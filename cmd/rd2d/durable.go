package main

// Durable sessions (DESIGN.md §15): with -statedir every resumable session
// (one that opened with a client session id) is persistently checkpointed,
// so a daemon crash — SIGKILL included — loses nothing a client cannot
// replay. Two files per session under <statedir>/<sid>/:
//
//   wal        a valid RDB2 stream: the stream header, then every accepted
//              events frame appended verbatim (byte-identical: the wire
//              format has no encoding freedom) *before* the frame's chunk
//              is acknowledged to the client. A frame the client saw acked
//              is therefore on disk; a torn tail frame was never acked and
//              the client replays it on resume.
//   snap.ckpt  an RDS1 CRC-framed snapshot (internal/wire.StateWriter) of
//              the session at a frame boundary: decoder state (interning,
//              chunk cursor, degradation counters), happens-before engine
//              clocks, merged detector state, reporter seq, and metadata.
//              Written to a temp file and renamed, so a *process* crash can
//              never tear it; a machine crash without -fsync can, and the
//              loader falls back to replaying the WAL from byte zero.
//
// Recovery replays the WAL tail from the snapshot's frame offset through
// the ordinary producer → runnable path, with the JSONL reporter's
// suppression window (core.SessionReporter.Restore) making regenerated
// race records silent up to the report file's durable high-water mark.
// Verdicts after a crash+restart are byte-identical to the uninterrupted
// run because replay *is* the run: same bytes, same decoder state, same
// engine clocks, same detector state.
//
// There is one checkpoint cut point: the frame hook on the producer. When
// a snapshot is due it captures the decoder state and encodes the engine's
// snapshot section, the engine having stamped exactly the events before
// that frame, and the cut rides in-band with the next event to the
// runnable, which encodes the detector at the same position. The
// snapshot's three states therefore agree on a single stream position.
// Each state is encoded straight from the live structure by the package
// that owns it (hb, core) in wire's primitives; this file owns only the
// metadata section and the file around the sections. fsync policy is -fsync
// off|ckpt|always: the page cache survives a process SIGKILL, so even
// "off" is crash-safe against process death; "ckpt"/"always" extend the
// guarantee to machine crashes.

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/ap"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/hb"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Checkpoint metrics. All sit on the obscheck zero-alloc disabled path.
var (
	obsCkptSnapshots  = obs.GetCounter("rd2d.ckpt.snapshots")
	obsCkptBytes      = obs.GetCounter("rd2d.ckpt.bytes")
	obsCkptNs         = obs.GetCounter("rd2d.ckpt.ns")
	obsCkptWalAppends = obs.GetCounter("rd2d.ckpt.wal_appends")
	obsCkptRestores   = obs.GetCounter("rd2d.ckpt.restores")
	obsCkptTorn       = obs.GetCounter("rd2d.ckpt.torn_recoveries")
)

// fsync policy for the state dir.
const (
	fsyncOff    = iota // never fsync: crash-safe against process death only
	fsyncCkpt          // fsync WAL + snapshot at each checkpoint
	fsyncAlways        // additionally fsync the WAL on every frame append
)

func parseFsyncMode(s string) (int, error) {
	switch s {
	case "off":
		return fsyncOff, nil
	case "ckpt":
		return fsyncCkpt, nil
	case "always":
		return fsyncAlways, nil
	}
	return 0, fmt.Errorf("unknown -fsync mode %q (want off, ckpt, or always)", s)
}

// DefaultCkptEvery is the default checkpoint cadence, in events.
const DefaultCkptEvery = 4096

// errDurClosed marks WAL appends after the session's state was destroyed.
var errDurClosed = errors.New("durable: session state destroyed")

// boundary is a checkpoint cut at the start of an accepted events frame:
// the WAL offset where the frame starts, the cumulative event count of all
// frames before it, the decoder state, and the engine's snapshot section at
// that point. A snapshot taken at a boundary resumes by replaying the WAL
// from off — re-decoding the boundary's own frame first. Several
// boundaries can be in flight at once, so each owns its engine bytes until
// the runnable hands them back (durSession.release).
type boundary struct {
	off int64
	cum int
	st  wire.DecoderState
	en  []byte
}

// durSession is one session's persistent state: the open WAL, the
// checkpoint cadence, and the buffers snapshots are encoded into. The hook
// side (WAL append, cut decision) runs on the producer; the snapshot side
// runs on the runnable; mu covers the WAL fields both touch.
type durSession struct {
	d     *daemon
	sid   string
	dir   string
	every int // checkpoint cadence in events
	fsync int

	mu     sync.Mutex
	wal    *os.File
	walOff int64
	walErr error
	buf    []byte // frame re-encode scratch (hook side only)

	// Producer-side only.
	lastCkpt int              // events at the last cut
	force    bool             // replayed a WAL tail: cut at the next boundary
	esw      wire.StateWriter // encodes the engine section at each cut

	// enFree carries engine-section buffers back from the runnable to the
	// producer once their boundary's snapshot is written or skipped. It
	// holds four: at the default cadence one or two boundaries are in
	// flight, and a cut that finds it empty allocates a buffer instead.
	enFree chan []byte

	// Runnable-side only.
	sw      wire.StateWriter // the snapshot file, rebuilt at each checkpoint
	reg     []trace.ObjID    // sorted registered objects for the metadata
	ckptErr error            // first snapshot failure; disables further snapshots
}

// newDurSession returns the persistent state of session sid stored in dir,
// with no WAL open yet.
func (d *daemon) newDurSession(sid, dir string) *durSession {
	every := d.cfg.ckptEvery
	if every <= 0 {
		every = DefaultCkptEvery
	}
	return &durSession{d: d, sid: sid, dir: dir, every: every, fsync: d.cfg.fsyncMode,
		enFree: make(chan []byte, 4)}
}

// sanitizeSID maps a client session id to a filesystem-safe directory
// name: the id itself when it is plain, a hex encoding otherwise. Plain
// ids never start with "enc-" (those are encoded), so the mapping is
// injective.
func sanitizeSID(sid string) string {
	plain := sid != "" && len(sid) <= 64 && sid[0] != '.' && !strings.HasPrefix(sid, "enc-")
	for i := 0; plain && i < len(sid); i++ {
		c := sid[i]
		ok := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
			c == '.' || c == '_' || c == '-'
		plain = plain && ok
	}
	if plain {
		return sid
	}
	return "enc-" + hex.EncodeToString([]byte(sid))
}

// openDurSession creates the state dir for a brand-new durable session,
// discarding any stale leftovers under the same id (a fresh session with a
// reused sid supersedes whatever a previous life left behind — resident
// sessions never reach here, routeSession resumes them).
func (d *daemon) openDurSession(sid, tenant string) (*durSession, error) {
	dir := filepath.Join(d.cfg.stateDir, sanitizeSID(sid))
	if err := os.RemoveAll(dir); err != nil {
		return nil, fmt.Errorf("durable: clearing %s: %w", dir, err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	wal, err := os.OpenFile(filepath.Join(dir, "wal"), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	hdr := wire.AppendStreamHeader(nil, sid, tenant)
	if _, err := wal.Write(hdr); err != nil {
		wal.Close()
		return nil, fmt.Errorf("durable: wal header: %w", err)
	}
	ds := d.newDurSession(sid, dir)
	ds.wal, ds.walOff = wal, int64(len(hdr))
	return ds, nil
}

// walHook returns the decoder's OnFrameAccepted callback: append the
// accepted frame to the WAL, then cut a checkpoint boundary ahead of it if
// one is due — all before the decoder dispatches the frame (and so before
// its chunk is acked). An append failure fails the decode — with -statedir
// the durability contract is part of accepting bytes, so an unwritable WAL
// refuses ingest loudly instead of silently dropping coverage.
func (s *session) walHook(dec *wire.Decoder) func(byte, []byte) error {
	return func(kind byte, payload []byte) error {
		off, err := s.dur.append(kind, payload)
		if err != nil {
			return err
		}
		s.cut(off, dec)
		return nil
	}
}

// append writes one accepted frame to the WAL and returns the offset it
// starts at.
func (ds *durSession) append(kind byte, payload []byte) (int64, error) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if ds.walErr != nil {
		return 0, ds.walErr
	}
	off := ds.walOff
	ds.buf = wire.AppendFrame(ds.buf[:0], kind, payload)
	if n := ds.d.cfg.injectWalCrash; n > 0 && ds.d.walAppendN.Add(1) == int64(n) {
		// Injected machine crash mid-append: half the frame reaches the
		// disk, then the process dies without further ado.
		ds.wal.Write(ds.buf[:len(ds.buf)/2])
		ds.wal.Sync()
		faultinject.KillSelf()
	}
	if _, err := ds.wal.Write(ds.buf); err != nil {
		ds.walErr = err
		return 0, fmt.Errorf("durable: wal append: %w", err)
	}
	ds.walOff += int64(len(ds.buf))
	if ds.fsync == fsyncAlways {
		if err := ds.wal.Sync(); err != nil {
			ds.walErr = err
			return 0, fmt.Errorf("durable: wal fsync: %w", err)
		}
	}
	obsCkptWalAppends.Inc()
	return off, nil
}

// cut is the session's one checkpoint cut point, called by the producer at
// the start of every accepted events frame (off is the frame's WAL offset).
// The engine has then stamped exactly the events before the frame, so
// decoder and engine agree on the boundary. When the cadence (or a
// post-replay force) makes a snapshot due, cut encodes the engine's
// snapshot section and holds the boundary for the next stamped event to
// carry to the runnable.
// Duplicate-chunk and empty frames cut zero-event boundaries at the same
// position; the latest wins so a resume replays the least.
func (s *session) cut(off int64, dec *wire.Decoder) {
	ds := s.dur
	cum := dec.Events()
	if b := s.ckpt; b != nil && b.cum == cum {
		b.off, b.st = off, dec.State()
		return
	}
	if s.stampErr != nil || s.stampPanicked || (!ds.force && cum-ds.lastCkpt < ds.every) {
		return
	}
	ds.esw.Begin(snapSecEngine)
	s.en.WriteState(&ds.esw)
	var en []byte
	select {
	case en = <-ds.enFree:
	default:
	}
	s.ckpt = &boundary{off: off, cum: cum, st: dec.State(), en: append(en[:0], ds.esw.Payload()...)}
	ds.lastCkpt, ds.force = cum, false
}

// release hands b's engine section back for a later cut to reuse.
func (ds *durSession) release(b *boundary) {
	select {
	case ds.enFree <- b.en:
	default:
	}
	b.en = nil
}

// destroy closes and removes the session's on-disk state — the session
// completed (summary written, TTL expired, or drain) and its durability
// obligation ended with it.
func (ds *durSession) destroy() {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if ds.wal != nil {
		ds.wal.Close()
		ds.wal = nil
	}
	ds.walErr = errDurClosed
	os.RemoveAll(ds.dir)
}

// snapMeta is the snapshot's metadata section.
type snapMeta struct {
	SID         string
	Tenant      string
	Spec        string // default spec at snapshot time; mismatch discards the state
	Events      int    // cumulative events at the boundary
	WalOff      int64  // WAL offset resume replays from
	Resumes     int
	ReporterSeq uint64 // JSONL records written for this session so far
	Registered  []trace.ObjID
	DecState    wire.DecoderState
}

// maybeCheckpoint snapshots the session at boundary b, which the runnable
// reached: it has detected exactly the events the boundary covers. A
// degraded or failed session is never checkpointed — partial state must
// not shadow the honest WAL.
func (s *session) maybeCheckpoint(b *boundary) {
	ds := s.dur
	defer ds.release(b)
	if ds.ckptErr != nil || s.panicked || s.procErr != nil || b.cum != s.events {
		return
	}
	if err := s.checkpoint(b); err != nil {
		ds.ckptErr = err
		s.logf("checkpoint failed (continuing without snapshots, WAL still covers the session): %v", err)
	}
}

// checkpoint writes one snapshot at boundary b: encode the metadata, the
// boundary's engine section and the live detector into the session's
// snapshot buffer, and atomically replace snap.ckpt.
func (s *session) checkpoint(b *boundary) error {
	ds := s.dur
	start := time.Now()
	// Every race from events before b.cum has been written: the runnable
	// reports synchronously. Flushing the report before the snapshot exists
	// keeps the file's high-water seq >= every snapshot's ReporterSeq: a
	// restart regenerates only records past the snapshot.
	var rseq uint64
	if s.sr != nil {
		rseq = s.sr.Seq()
		if err := s.d.cfg.reportSink.Flush(); err != nil {
			return fmt.Errorf("report flush: %w", err)
		}
	}
	meta := snapMeta{
		SID:         s.sid,
		Tenant:      s.tenant,
		Spec:        s.d.cfg.defaultSpec,
		Events:      b.cum,
		WalOff:      b.off,
		ReporterSeq: rseq,
		DecState:    b.st,
	}
	s.mu.Lock()
	meta.Resumes = s.resumes
	s.mu.Unlock()
	ds.reg = ds.reg[:0]
	for obj := range s.registered {
		ds.reg = append(ds.reg, obj)
	}
	slices.Sort(ds.reg)
	meta.Registered = ds.reg
	data := writeSnapshot(&ds.sw, &meta, b.en, s.det)

	if ds.fsync >= fsyncCkpt {
		// The snapshot references WAL offsets; make the WAL durable first.
		// (nil mid-rehydration: replayed frames are already on disk.)
		ds.mu.Lock()
		var werr error
		if ds.wal != nil {
			werr = ds.wal.Sync()
		}
		ds.mu.Unlock()
		if werr != nil {
			return werr
		}
	}
	path := filepath.Join(ds.dir, "snap.ckpt")
	if n := s.d.cfg.injectCkptCrash; n > 0 && s.d.snapshotN.Add(1) == int64(n) {
		// Injected fsync-less machine crash: a torn snapshot lands in place
		// (bypassing the tmp+rename discipline, which a pure process crash
		// cannot defeat), then the process dies. Recovery must reject it by
		// CRC and fall back to genesis WAL replay.
		os.WriteFile(path, data[:len(data)/2], 0o644)
		faultinject.KillSelf()
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if ds.fsync >= fsyncCkpt {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	if ds.fsync >= fsyncCkpt {
		if dirf, err := os.Open(ds.dir); err == nil {
			dirf.Sync()
			dirf.Close()
		}
	}
	obsCkptSnapshots.Inc()
	obsCkptBytes.Add(uint64(len(data)))
	obsCkptNs.Add(uint64(time.Since(start)))
	return nil
}

// --- Snapshot serialization ------------------------------------------------

// Snapshot section kinds, in file order. The engine and detector sections
// are hb.(*Engine).WriteState and core.(*Detector).WriteState.
const (
	snapSecMeta     = 1
	snapSecEngine   = 2
	snapSecDetector = 3
)

// writeSnapshot encodes a snapshot file into sw — the metadata, the engine
// section encoded at the boundary, and the live detector — and returns its
// bytes, valid until sw's next snapshot.
func writeSnapshot(sw *wire.StateWriter, meta *snapMeta, engine []byte, det *core.Detector) []byte {
	sw.Reset()
	writeMeta(sw, meta)
	sw.Section(snapSecEngine, engine)
	sw.Begin(snapSecDetector)
	det.WriteState(sw)
	sw.End()
	return sw.Close()
}

// writeMeta writes the metadata section; openSnapshot reads it back.
func writeMeta(sw *wire.StateWriter, meta *snapMeta) {
	sw.Begin(snapSecMeta)
	sw.String(meta.SID)
	sw.String(meta.Tenant)
	sw.String(meta.Spec)
	sw.Varint(int64(meta.Events))
	sw.Varint(meta.WalOff)
	sw.Varint(int64(meta.Resumes))
	sw.Uvarint(meta.ReporterSeq)
	sw.Uvarint(uint64(len(meta.Registered)))
	for _, obj := range meta.Registered {
		sw.Varint(int64(obj))
	}
	st := &meta.DecState
	sw.Uvarint(uint64(st.Version))
	sw.String(st.SID)
	sw.String(st.Tenant)
	sw.Uvarint(uint64(len(st.Intern)))
	for _, s := range st.Intern {
		sw.String(s)
	}
	sw.Varint(int64(st.Events))
	sw.Varint(int64(st.Frames))
	sw.Uvarint(st.ExpectChunk)
	sw.Bool(st.SeenChunk)
	sw.Varint(int64(st.DupChunks))
	sw.Varint(st.SkippedBytes)
	sw.Varint(int64(st.SkippedFrames))
	sw.Varint(int64(st.Resyncs))
	sw.End()
}

// openSnapshot reads a snapshot file and decodes its metadata section,
// returning the reader positioned at the engine section for readSnapshot.
// Any failure — missing file, torn write, bitrot, truncation — is an error
// the caller answers with genesis WAL replay; a snapshot is an
// optimization, never the source of truth.
func openSnapshot(path string) (*snapMeta, *wire.StateReader, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	sr, err := wire.NewStateReader(bytes.NewReader(data))
	if err != nil {
		return nil, nil, err
	}
	if err := nextSection(sr, snapSecMeta); err != nil {
		return nil, nil, err
	}
	m := &snapMeta{
		SID:         sr.String(),
		Tenant:      sr.String(),
		Spec:        sr.String(),
		Events:      sr.Int(),
		WalOff:      sr.Varint(),
		Resumes:     sr.Int(),
		ReporterSeq: sr.Uvarint(),
	}
	for n := sr.Count(); n > 0 && sr.Err() == nil; n-- {
		m.Registered = append(m.Registered, trace.ObjID(sr.Int()))
	}
	st := &m.DecState
	st.Version = byte(sr.Uvarint())
	st.SID = sr.String()
	st.Tenant = sr.String()
	for n := sr.Count(); n > 0 && sr.Err() == nil; n-- {
		st.Intern = append(st.Intern, sr.String())
	}
	st.Events = sr.Int()
	st.Frames = sr.Int()
	st.ExpectChunk = sr.Uvarint()
	st.SeenChunk = sr.Bool()
	st.DupChunks = sr.Int()
	st.SkippedBytes = sr.Varint()
	st.SkippedFrames = sr.Int()
	st.Resyncs = sr.Int()
	if err := sr.Err(); err != nil {
		return nil, nil, err
	}
	return m, sr, nil
}

// readSnapshot decodes the rest of an opened snapshot — the engine and
// detector sections and the end marker — into en and det, which must be
// fresh. On error both hold part of the state and must be discarded.
func readSnapshot(sr *wire.StateReader, en *hb.Engine, det *core.Detector, repFor func(trace.ObjID) (ap.Rep, error)) error {
	if err := nextSection(sr, snapSecEngine); err != nil {
		return err
	}
	if err := en.ReadState(sr); err != nil {
		return err
	}
	if err := nextSection(sr, snapSecDetector); err != nil {
		return err
	}
	if err := det.ReadState(sr, repFor); err != nil {
		return err
	}
	if kind, err := sr.Next(); err != io.EOF {
		return fmt.Errorf("durable: snapshot does not end after the detector (section %d, %v)", kind, err)
	}
	return nil
}

// nextSection loads the next section, which must be of kind want.
func nextSection(sr *wire.StateReader, want byte) error {
	kind, err := sr.Next()
	if err == io.EOF {
		return fmt.Errorf("durable: snapshot ends before section %d", want)
	}
	if err == nil && kind != want {
		err = fmt.Errorf("durable: snapshot section %d where %d belongs", kind, want)
	}
	return err
}

// --- Restore ---------------------------------------------------------------

// sessionRestore carries a rehydrated session's checkpointed state into
// newSession. snap is the opened snapshot, positioned at its engine
// section; a genesis restore (no usable snapshot) has a nil snap and a zero
// meta except identity, and the WAL replays from byte 0.
type sessionRestore struct {
	meta       snapMeta
	snap       *wire.StateReader
	durableSeq uint64 // report file's high-water JSONL seq for this session
	dur        *durSession
}

// applyRestore decodes the snapshot's engine and detector sections into the
// session's fresh engine and detector. newSession runs it before the
// session is registered on the worker pool, so no event has been stamped
// or detected yet. A snapshot that fails to load has one outcome, whatever
// failed — framing, decoding or applying: it is dropped whole, the session
// gets a fresh engine and detector, and the WAL replays from genesis, as
// for a torn snapshot.
func (s *session) applyRestore(r *sessionRestore, ccfg core.Config) {
	if r.snap == nil {
		return
	}
	repFor := func(obj trace.ObjID) (ap.Rep, error) { return s.rep(obj), nil }
	if err := readSnapshot(r.snap, s.en, s.det, repFor); err != nil {
		obsCkptTorn.Inc()
		s.logf("snapshot invalid (%v), genesis WAL replay", err)
		s.en, s.det = hb.NewObs(s.scope), core.New(ccfg)
		r.meta, r.snap = snapMeta{SID: r.meta.SID, Tenant: r.meta.Tenant}, nil
		return
	}
	for _, obj := range r.meta.Registered {
		s.registered[obj] = true
	}
	s.events = r.meta.Events
}

// rehydrate loads every checkpointed session from the state dir into the
// parked-session table, before the daemon starts serving: expired state is
// garbage-collected, snapshots are validated (CRC) and fall back to
// genesis WAL replay, WAL tails are replayed through the ordinary producer
// path, and torn tail frames are truncated (the client never saw their
// ack, so it replays them on resume).
func (d *daemon) rehydrate() {
	if err := os.MkdirAll(d.cfg.stateDir, 0o755); err != nil {
		d.cfg.logger.Printf("statedir: %v", err)
		return
	}
	entries, err := os.ReadDir(d.cfg.stateDir)
	if err != nil {
		d.cfg.logger.Printf("statedir: %v", err)
		return
	}
	for _, ent := range entries {
		if ent.IsDir() {
			d.rehydrateOne(filepath.Join(d.cfg.stateDir, ent.Name()))
		}
	}
}

// rehydrateOne restores one session directory, or removes it when it is
// expired or unreadable.
func (d *daemon) rehydrateOne(dir string) {
	walPath := filepath.Join(dir, "wal")
	fi, err := os.Stat(walPath)
	if err != nil {
		d.cfg.logger.Printf("statedir: %s has no wal, removing", dir)
		os.RemoveAll(dir)
		return
	}
	ttl := d.cfg.resumeTTL
	if ttl <= 0 {
		ttl = DefaultResumeTTL
	}
	age := time.Since(fi.ModTime())
	if sfi, err := os.Stat(filepath.Join(dir, "snap.ckpt")); err == nil {
		if sage := time.Since(sfi.ModTime()); sage < age {
			age = sage
		}
	}
	if age > ttl {
		// The session's resume TTL elapsed while the daemon was down: the
		// client has long given up. GC, exactly as a live expiry would —
		// and never resurrect its stale JSONL seq window.
		d.cfg.logger.Printf("statedir: %s expired (%v old, ttl %v), removing", dir, age.Round(time.Second), ttl)
		os.RemoveAll(dir)
		return
	}

	restore := &sessionRestore{}
	meta, snap, serr := openSnapshot(filepath.Join(dir, "snap.ckpt"))
	if serr == nil && meta.Spec != d.cfg.defaultSpec {
		d.cfg.logger.Printf("statedir: %s was checkpointed under spec %q, daemon runs %q: discarding state",
			dir, meta.Spec, d.cfg.defaultSpec)
		os.RemoveAll(dir)
		return
	}
	if serr == nil && meta.WalOff > fi.Size() {
		// The snapshot references WAL bytes that never reached the disk: a
		// machine crash after the rename but before the WAL writes landed
		// (impossible for a process crash, or with -fsync ckpt/always).
		serr = fmt.Errorf("references wal offset %d beyond wal end %d", meta.WalOff, fi.Size())
	}
	if serr == nil {
		restore.meta = *meta
		restore.snap = snap
	} else if !os.IsNotExist(serr) {
		// A snapshot exists but does not validate: torn by a machine crash
		// (tmp+rename means a process crash cannot do this). The WAL is the
		// source of truth; replay it from byte zero.
		obsCkptTorn.Inc()
		d.cfg.logger.Printf("statedir: %s snapshot invalid (%v), genesis WAL replay", dir, serr)
	}

	// Identity: from the snapshot when valid, else from the WAL header.
	sid, tenant := restore.meta.SID, restore.meta.Tenant
	if sid == "" {
		f, err := os.Open(walPath)
		if err != nil {
			os.RemoveAll(dir)
			return
		}
		dec, derr := wire.NewDecoder(f)
		if derr == nil {
			sid, derr = dec.ReadHello()
			tenant = dec.Tenant()
		}
		f.Close()
		if derr != nil || sid == "" {
			d.cfg.logger.Printf("statedir: %s wal header unreadable (%v), removing", dir, derr)
			os.RemoveAll(dir)
			return
		}
	}
	if tenant == "" {
		tenant = "default"
	}
	restore.meta.SID, restore.meta.Tenant = sid, tenant
	if d.cfg.reportSeqs != nil {
		restore.durableSeq = d.cfg.reportSeqs[sid]
	}

	release, aerr := d.sched.Admit(tenant)
	if aerr != nil {
		d.cfg.logger.Printf("statedir: %s not admitted (%v), leaving on disk", dir, aerr)
		return
	}

	ds := d.newDurSession(sid, dir)
	restore.dur = ds
	s := d.newSession(sid, tenant, restore)
	s.admit = release
	// lastCkpt is primed before replay, from the snapshot newSession loaded
	// (0 if it fell back to genesis): replay cuts boundaries and the
	// runnable may legitimately checkpoint mid-replay once the cadence from
	// the snapshot's position says so.
	ds.lastCkpt = restore.meta.Events
	d.mu.Lock()
	d.sessions[sid] = s
	d.mu.Unlock()

	dec, tail, err := d.replayWAL(s, ds, walPath, restore)
	if err != nil {
		d.cfg.logger.Printf("statedir: %s wal replay: %v", dir, err)
	}
	wal, werr := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
	ds.mu.Lock()
	if werr != nil {
		ds.walErr = werr
	} else {
		ds.wal = wal
		if off, err := wal.Seek(0, io.SeekEnd); err == nil {
			ds.walOff = off
		}
	}
	ds.mu.Unlock()
	// A replayed tail means the snapshot is stale; refresh at the next
	// boundary.
	ds.force = tail

	s.publishLive(dec)
	s.mu.Lock()
	s.dec = dec // resume connections adopt interning/chunk state from here
	s.resumes = restore.meta.Resumes
	s.mu.Unlock()
	s.park()
	obsCkptRestores.Inc()
	s.logf("rehydrated from %s: %d events checkpointed, tail replay=%v", dir, restore.meta.Events, tail)
}

// replayWAL feeds the WAL's events through the session's ordinary
// producer (readLoop without a throttle): from the snapshot's frame offset with a resumed
// decoder, or from byte zero (genesis). Returns the decoder holding the
// final stream state, and whether any frames beyond the snapshot were
// replayed. A torn or corrupt tail is truncated at the last fully
// consumed frame — those bytes were never acked, so the client replays
// them.
func (d *daemon) replayWAL(s *session, ds *durSession, walPath string, restore *sessionRestore) (*wire.Decoder, bool, error) {
	f, err := os.Open(walPath)
	if err != nil {
		return nil, false, err
	}
	defer f.Close()

	var dec *wire.Decoder
	var startOff int64
	if restore.snap != nil {
		startOff = restore.meta.WalOff
		if _, err := f.Seek(startOff, io.SeekStart); err != nil {
			return nil, false, err
		}
		dec = wire.ResumeDecoder(f, restore.meta.DecState)
	} else {
		dec, err = wire.NewDecoder(f)
		if err != nil {
			return nil, false, err
		}
		if _, err := dec.ReadHello(); err != nil {
			return nil, false, err
		}
		startOff = int64(len(wire.AppendStreamHeader(nil, restore.meta.SID, restore.meta.Tenant)))
	}
	dec.SetObs(s.scope)

	// Cut boundaries as frames are re-accepted (the frames are already on
	// disk). tailOff tracks the offset after the last *fully consumed*
	// frame: when the hook fires for frame k+1, frame k's events were all
	// stamped.
	replayOff := startOff
	tailOff := startOff
	frames := 0
	dec.OnFrameAccepted = func(kind byte, payload []byte) error {
		tailOff = replayOff
		s.cut(replayOff, dec)
		replayOff += int64(wire.FrameWireSize(len(payload)))
		frames++
		return nil
	}
	var replayErr error
	if err := d.readLoop(s, dec, nil); err != io.EOF {
		replayErr = err
	} else {
		tailOff = replayOff // EOF at a frame boundary: everything consumed
	}
	dec.OnFrameAccepted = nil
	if replayErr != nil {
		// Torn tail: cut the WAL back to the last fully consumed frame.
		obsCkptTorn.Inc()
		if terr := os.Truncate(walPath, tailOff); terr != nil {
			return dec, frames > 0, terr
		}
		d.cfg.logger.Printf("statedir: %s wal torn at %d (%v), truncated to %d",
			ds.dir, replayOff, replayErr, tailOff)
	}
	return dec, frames > 0, nil
}

// scanReport reads an existing JSONL report and returns each session's
// durable high-water seq, truncating a torn last line (the report is
// written in whole-line batches in seq order, so only the final line can
// be partial).
// Degraded-note records carry a "note" field and do not advance seqs.
func scanReport(path string) (map[string]uint64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return map[string]uint64{}, nil
		}
		return nil, err
	}
	if n := bytes.LastIndexByte(data, '\n'); n < len(data)-1 {
		keep := int64(0)
		if n >= 0 {
			keep = int64(n + 1)
		}
		if err := os.Truncate(path, keep); err != nil {
			return nil, err
		}
		data = data[:keep]
	}
	seqs := map[string]uint64{}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var rec struct {
			Session string `json:"session"`
			Seq     uint64 `json:"seq"`
			Note    string `json:"note"`
		}
		if err := json.Unmarshal(line, &rec); err != nil || rec.Note != "" || rec.Session == "" {
			continue
		}
		if rec.Seq > seqs[rec.Session] {
			seqs[rec.Session] = rec.Seq
		}
	}
	return seqs, nil
}
