// Package wire implements the RDB2 streaming binary trace format: a
// compact, framed, CRC-protected encoding of internal/trace events designed
// for online ingestion (cmd/rd2d) and for on-disk binary traces (.rdb).
//
// # Stream layout (DESIGN.md §8, §9)
//
//	stream  := magic version frame*
//	magic   := "RDB2"                        (4 bytes)
//	version := 0x01 | 0x02 | 0x03            (1 byte)
//	frame   := sync kind len payload crc     (sync only in version >= 2)
//	sync    := 0xE5 0x4D                     (per-frame resync marker)
//	kind    := 0x01 events | 0x02 end-of-stream
//	         | 0x03 hello  | 0x04 seq'd events (version >= 2 only)
//	len     := uvarint                       (payload length in bytes)
//	payload := event*                        (empty for end-of-stream)
//	crc     := CRC-32C of payload            (4 bytes little-endian)
//
// Version 2 (version 1 streams are still read) prefixes every frame with a
// two-byte sync marker and adds two frame kinds in support of fault
// tolerance:
//
//	hello   := sidlen:uvarint sid:bytes      (client-chosen session id)
//	          [tidlen:uvarint tid:bytes]     (tenant id, version 3 only)
//	seq'd   := seq:uvarint event*            (chunk sequence number)
//
// A hello frame, sent immediately after the stream header, opens a
// resumable session: every events frame then carries a chunk sequence
// number, the daemon acknowledges chunks with JSON lines ({"ack":N}) on
// the return path, and a client that loses its connection can redial,
// replay the header + hello + its unacknowledged chunks, and continue —
// the receiver skips chunks whose sequence number it has already consumed,
// so no event is duplicated or lost (ResumableClient implements the client
// side, with exponential backoff + jitter).
//
// Version 3 (written by this package) extends the hello payload with an
// optional trailing tenant id for multi-tenant admission and quotas
// (cmd/rd2d): a version 3 hello may carry a tenant id after the
// session id, and — uniquely in version 3 — an empty session id (sidlen 0)
// is permitted when a tenant id follows, declaring the tenant of a plain
// non-resumable stream. A daemon that refuses a new session (admission
// control: session table full, global ingest budget exhausted, or tenant
// quota exceeded) answers with its usual one-line JSON summary carrying
// "busy":true and closes; clients surface that as ErrBusy, a retryable
// condition distinct from every transport failure.
//
// Events are varint records; all ids (threads, objects, locks, vars,
// channels) are unsigned varints, integer values are zigzag varints, and
// strings (method names, string values) go through a per-stream interning
// table so each distinct string is transmitted once:
//
//	event      := kind:u8 body
//	fork|join  := tid other
//	acq|rel    := tid lock
//	read|write := tid var
//	send|recv  := tid chan
//	begin|end  := tid
//	die        := tid obj
//	act        := tid obj method:str nargs val* nrets val*
//	val        := 0x00            (nil)
//	            | 0x01 zigzag     (int)
//	            | 0x02 str        (string)
//	            | 0x03 u8         (bool)
//	str        := ref             (ref > 0: interned string #ref)
//	            | 0x00 len byte*  (ref = 0: new string, assigned the next id)
//
// Sequence numbers are not transmitted: the decoder assigns them in stream
// order, exactly like trace.Trace.Append. Vector clocks are never encoded
// (they are an analysis artifact, recomputed by the happens-before engine
// on the receiving side).
//
// The Decoder is a trace.Source: it yields one event per Next call and
// holds at most one frame (≤ MaxFrame bytes) plus the interning table in
// memory, so arbitrarily long traces stream in bounded space. It returns
// errors — never panics — on truncated, corrupt, or adversarial input
// (FuzzWireRoundTrip keeps it honest).
//
// # Corruption resync
//
// By default a corrupt frame (CRC mismatch, lost sync, unparseable header)
// is a fatal decode error. With SetResync(true) the decoder instead scans
// forward for the next sync marker that starts a CRC-valid frame and
// continues from there; the bytes skipped and frames dropped are counted
// (SkippedBytes, SkippedFrames) and reported through internal/obs, and
// Degraded() reports that the decoded event stream is incomplete. A
// candidate frame is accepted during the scan only after its checksum has
// been verified in the decoder's lookahead window (ResyncWindow), so a
// false sync marker inside corrupt data can never desynchronize the
// decoder further; valid frames larger than the window are skipped rather
// than trusted. Resync requires a version 2 stream (version 1 frames have
// no sync marker).
//
// An explicit end-of-stream frame distinguishes a clean end from a
// truncated stream: Decoder.Clean reports whether one was seen. The
// Encoder writes it from Close; a stream that merely stops at a frame
// boundary still decodes fully but reports Clean() == false.
package wire

import (
	"errors"

	"repro/internal/obs"
)

// Magic is the 4-byte stream header identifying the RDB2 binary format.
const Magic = "RDB2"

// Version is the wire format version written. The decoder accepts every
// version from MinVersion (no per-frame sync marker, no resumable
// sessions) through Version; version 2 streams differ from version 3 only
// in that their hello frames cannot carry a tenant id.
const (
	Version    = 3
	MinVersion = 1
)

// Per-frame sync marker bytes (version 2): every frame header starts with
// these, giving the corruption resync scan an anchor to search for.
const (
	sync0 byte = 0xE5
	sync1 byte = 0x4D
)

// Frame kinds.
const (
	frameEvents    byte = 0x01
	frameEnd       byte = 0x02
	frameHello     byte = 0x03 // resumable session id (version 2)
	frameEventsSeq byte = 0x04 // events with a chunk sequence number (version 2)
)

// Value kind tags (mirror trace.Kind but are an independent wire contract).
const (
	wireNil  byte = 0x00
	wireInt  byte = 0x01
	wireStr  byte = 0x02
	wireBool byte = 0x03
)

// Limits bounding decoder memory against corrupt or hostile streams.
const (
	// MaxFrame is the largest accepted frame payload. The encoder flushes
	// frames well below this (DefaultFrameSize).
	MaxFrame = 1 << 24
	// MaxString is the largest accepted interned string.
	MaxString = 1 << 20
	// MaxStrings caps the interning table size.
	MaxStrings = 1 << 20
	// MaxTuple caps the argument/return tuple length of one action.
	MaxTuple = 1 << 16
	// MaxSessionID caps the hello frame's session id length.
	MaxSessionID = 256
	// MaxTenantID caps the hello frame's tenant id length (version 3).
	MaxTenantID = 64
)

// DefaultFrameSize is the payload size at which the encoder emits a frame.
const DefaultFrameSize = 16 * 1024

// ResyncWindow is the decoder's lookahead during corruption resync: a
// candidate frame is accepted only if it fits the window and its CRC
// verifies there. Larger valid frames inside corrupt regions are skipped
// (counted, reported) rather than trusted.
const ResyncWindow = 128 * 1024

// ErrCRC is returned (wrapped) when a frame fails its checksum.
var ErrCRC = errors.New("wire: frame CRC mismatch")

// ErrTruncated is returned (wrapped) when the stream ends inside a frame.
var ErrTruncated = errors.New("wire: truncated stream")

// ErrSync is returned (wrapped) when a version 2 frame does not start with
// the sync marker (stream corruption), in strict (non-resync) mode.
var ErrSync = errors.New("wire: lost frame sync")

// ErrChunkGap is returned when a seq'd events frame skips ahead of the next
// expected chunk (a resuming client replayed too little), in strict mode.
var ErrChunkGap = errors.New("wire: chunk sequence gap")

// ErrBusy is returned (wrapped) by the clients when the daemon refused the
// session at admission — session table full, global ingest budget
// exhausted, or a tenant quota exceeded (Summary.Busy on the wire). The
// condition is retryable: the stream was never ingested, so resending the
// whole trace after a backoff is safe.
var ErrBusy = errors.New("wire: daemon busy, session rejected at admission")

// wireObs bundles the resync metrics: bytes skipped scanning for a sync
// marker, whole frames dropped (undecodable but CRC-valid, or lost in a
// chunk-sequence gap), and resync scans entered. Duplicate chunks skipped
// during a session resume are counted separately — they are
// protocol-normal, not corruption. Decoders record into the process-global
// set until SetObs points them at a scope (an rd2d session registry).
type wireObs struct {
	skippedBytes  *obs.Counter
	skippedFrames *obs.Counter
	resyncs       *obs.Counter
	dupChunks     *obs.Counter
}

func newWireObs(reg *obs.Registry) *wireObs {
	if reg == nil {
		reg = obs.Default
	}
	return &wireObs{
		skippedBytes:  reg.Counter("wire.resync_skipped_bytes"),
		skippedFrames: reg.Counter("wire.resync_skipped_frames"),
		resyncs:       reg.Counter("wire.resyncs"),
		dupChunks:     reg.Counter("wire.dup_chunks"),
	}
}

// defaultWireObs is the process-global instrument set, shared by every
// decoder not pointed at a scope via SetObs.
var defaultWireObs = newWireObs(nil)

// SniffLen is the number of bytes needed to recognize the format (Sniff).
const SniffLen = len(Magic)

// Sniff reports whether the prefix bytes identify an RDB2 binary stream.
func Sniff(prefix []byte) bool {
	return len(prefix) >= len(Magic) && string(prefix[:len(Magic)]) == Magic
}
