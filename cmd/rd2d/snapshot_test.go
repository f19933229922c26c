package main

// Snapshot format tests: the file layout is pinned by a golden snapshot
// written by the previous, export-struct codec, every corruption of a
// snapshot file is rejected whole, and a snapshot that frames cleanly but
// cannot be decoded or applied restarts its session from genesis replay
// with verdicts identical to an uninterrupted run.

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/ap"
	"repro/internal/core"
	"repro/internal/hb"
	"repro/internal/obs"
	"repro/internal/specs"
	"repro/internal/trace"
	"repro/internal/wire"
)

// goldenTrace reads the fixed trace behind testdata/snap.ckpt: a
// trace.Generate dictionary workload (seed 11; string keys, int and nil
// values, locks, forks and joins) wrapped in channel traffic that is still
// in flight at the cut. It is stored, not regenerated, so the golden bytes
// do not depend on the generator.
func goldenTrace(t *testing.T) *trace.Trace {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "snap.trace"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := trace.Parse(f)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// goldenRun stamps and detects tr[from:to] on en and det, registering each
// object's dict rep on first sight.
func goldenRun(t *testing.T, tr *trace.Trace, from, to int, en *hb.Engine, det *core.Detector,
	registered map[trace.ObjID]bool) {
	t.Helper()
	rep, err := specs.Rep("dict")
	if err != nil {
		t.Fatal(err)
	}
	for i := from; i < to; i++ {
		e := tr.Events[i]
		if _, err := en.Process(&e); err != nil {
			t.Fatal(err)
		}
		if e.Kind == trace.ActionEvent && !registered[e.Act.Obj] {
			det.Register(e.Act.Obj, rep)
			registered[e.Act.Obj] = true
		}
		if err := det.Process(&e); err != nil {
			t.Fatal(err)
		}
	}
}

// goldenMeta is the metadata section of testdata/snap.ckpt.
func goldenMeta(cut int, races uint64, registered map[trace.ObjID]bool) snapMeta {
	meta := snapMeta{
		SID: "golden", Tenant: "acme", Spec: "dict",
		Events: cut, WalOff: 4096, Resumes: 1, ReporterSeq: races,
		DecState: wire.DecoderState{
			Version: 2, SID: "golden", Tenant: "acme",
			Intern: []string{"put", "get", "size"},
			Events: cut, Frames: 9, ExpectChunk: 9, SeenChunk: true,
			DupChunks: 1, SkippedBytes: 3, SkippedFrames: 1, Resyncs: 1,
		},
	}
	for obj := range registered {
		meta.Registered = append(meta.Registered, obj)
	}
	sort.Slice(meta.Registered, func(i, j int) bool { return meta.Registered[i] < meta.Registered[j] })
	return meta
}

// dictRepFor resolves every object to the dict spec, as rd2d's default
// binding does.
func dictRepFor(t *testing.T) func(trace.ObjID) (ap.Rep, error) {
	rep, err := specs.Rep("dict")
	if err != nil {
		t.Fatal(err)
	}
	return func(trace.ObjID) (ap.Rep, error) { return rep, nil }
}

// loadSnapshotFile opens and fully loads a snapshot file into a fresh
// engine and detector, returning its metadata and the snapshot the loaded
// state encodes to again.
func loadSnapshotFile(t *testing.T, path string) (*snapMeta, []byte, error) {
	t.Helper()
	meta, sr, err := openSnapshot(path)
	if err != nil {
		return nil, nil, err
	}
	en, det := hb.New(), core.New(core.Config{})
	if err := readSnapshot(sr, en, det, dictRepFor(t)); err != nil {
		return nil, nil, err
	}
	var esw, sw wire.StateWriter
	esw.Begin(snapSecEngine)
	en.WriteState(&esw)
	return meta, writeSnapshot(&sw, meta, esw.Payload(), det), nil
}

// TestDurableSnapshotGolden pins the snapshot bytes. testdata/snap.ckpt was
// written by the export-struct codec this one replaced, for goldenTrace cut
// in half: the live encoders must reproduce it byte for byte, so state dirs
// written before an upgrade restore after it, and restoring it must finish
// the trace with the uninterrupted run's verdicts and stats.
func TestDurableSnapshotGolden(t *testing.T) {
	golden := filepath.Join("testdata", "snap.ckpt")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	tr := goldenTrace(t)
	cut := tr.Len() / 2

	var full []string
	cfg := core.Config{MaxRaces: 1 << 20, OnRace: func(r core.Race) { full = append(full, r.String()) }}
	wantDet := core.New(cfg)
	goldenRun(t, tr, 0, tr.Len(), hb.New(), wantDet, map[trace.ObjID]bool{})

	var atCut []string
	en := hb.New()
	det := core.New(core.Config{MaxRaces: 1 << 20, OnRace: func(r core.Race) { atCut = append(atCut, r.String()) }})
	reg := map[trace.ObjID]bool{}
	goldenRun(t, tr, 0, cut, en, det, reg)
	meta := goldenMeta(cut, uint64(len(atCut)), reg)
	var esw, sw wire.StateWriter
	esw.Begin(snapSecEngine)
	en.WriteState(&esw)
	if got := writeSnapshot(&sw, &meta, esw.Payload(), det); !bytes.Equal(got, want) {
		t.Fatalf("snapshot bytes differ from %s (%d bytes, want %d):\n got %x\nwant %x",
			golden, len(got), len(want), got, want)
	}

	gm, sr, err := openSnapshot(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*gm, meta) {
		t.Fatalf("golden metadata:\n got %+v\nwant %+v", *gm, meta)
	}
	var tail []string
	en2 := hb.New()
	det2 := core.New(core.Config{MaxRaces: 1 << 20, OnRace: func(r core.Race) { tail = append(tail, r.String()) }})
	if err := readSnapshot(sr, en2, det2, dictRepFor(t)); err != nil {
		t.Fatal(err)
	}
	reg2 := map[trace.ObjID]bool{}
	for _, obj := range gm.Registered {
		reg2[obj] = true
	}
	goldenRun(t, tr, cut, tr.Len(), en2, det2, reg2)
	if got, want := append(atCut, tail...), full; !reflect.DeepEqual(got, want) {
		t.Fatalf("restored run reports %d races, uninterrupted %d:\n got %q\nwant %q", len(got), len(want), got, want)
	}
	if gs, ws := det2.Stats(), wantDet.Stats(); gs != ws {
		t.Fatalf("restored stats %+v, uninterrupted %+v", gs, ws)
	}
}

// TestDurableSnapshotCodecRoundTrip pins the snapshot serialization: the
// metadata survives a write → load cycle field for field, the loaded engine
// and detector encode back to the same bytes, and any corruption — a
// flipped bit anywhere, a truncated tail, an empty file — is rejected,
// never half-loaded.
func TestDurableSnapshotCodecRoundTrip(t *testing.T) {
	tr := goldenTrace(t)
	en, det := hb.New(), core.New(core.Config{})
	reg := map[trace.ObjID]bool{}
	goldenRun(t, tr, 0, tr.Len()*2/3, en, det, reg)
	meta := goldenMeta(tr.Len()*2/3, 7, reg)
	var esw, sw wire.StateWriter
	esw.Begin(snapSecEngine)
	en.WriteState(&esw)
	data := append([]byte(nil), writeSnapshot(&sw, &meta, esw.Payload(), det)...)
	path := filepath.Join(t.TempDir(), "snap.ckpt")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	gm, again, err := loadSnapshotFile(t, path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*gm, meta) {
		t.Errorf("meta round trip:\n got %+v\nwant %+v", *gm, meta)
	}
	if !bytes.Equal(again, data) {
		t.Errorf("loaded state encodes to different bytes:\n got %x\nwant %x", again, data)
	}

	for _, off := range []int{1, len(data) / 2, len(data) - 1} {
		bad := append([]byte(nil), data...)
		bad[off] ^= 0x40
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := loadSnapshotFile(t, path); err == nil {
			t.Errorf("bit flip at offset %d loaded without error", off)
		}
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := loadSnapshotFile(t, path); err == nil {
		t.Error("truncated snapshot loaded without error")
	}
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := loadSnapshotFile(t, path); err == nil {
		t.Error("empty snapshot loaded without error")
	}
}

// forgeSnapshot replaces the snapshot in sdir with a CRC-valid one that
// keeps its metadata but carries the given detector section and, when
// engine is nil, its own engine section re-encoded.
func forgeSnapshot(t *testing.T, sdir string, engine, detector []byte) {
	t.Helper()
	path := filepath.Join(sdir, "snap.ckpt")
	meta, sr, err := openSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if engine == nil {
		if err := nextSection(sr, snapSecEngine); err != nil {
			t.Fatal(err)
		}
		en := hb.New()
		if err := en.ReadState(sr); err != nil {
			t.Fatal(err)
		}
		var esw wire.StateWriter
		esw.Begin(snapSecEngine)
		en.WriteState(&esw)
		engine = esw.Payload()
	}
	var sw wire.StateWriter
	sw.Reset()
	writeMeta(&sw, meta)
	sw.Section(snapSecEngine, engine)
	sw.Section(snapSecDetector, detector)
	if err := os.WriteFile(path, sw.Close(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestDurableInvalidSnapshotRecovery forges CRC-valid snapshots between the
// crash and the restart that cannot be decoded (a string or clock length
// past the section end) or applied (a point listed twice). Each has the
// one outcome of a torn snapshot: the session restarts from genesis WAL
// replay on a fresh engine and detector, the torn-recovery counter moves,
// and the verdicts match the uninterrupted baseline byte for byte.
func TestDurableInvalidSnapshotRecovery(t *testing.T) {
	huge := uint64(math.MaxUint64 - 8)
	point := func(sw *wire.StateWriter) {
		sw.Varint(0)                  // class
		sw.Value(trace.StrValue("k")) // value
		sw.Varint(0)                  // epoch tid
		sw.Uvarint(1)                 // epoch clock
		sw.VC(nil)
		sw.Action(trace.Action{Obj: 0, Method: "put"})
		sw.Varint(0) // last thread
		sw.Varint(1) // last seq
	}
	cases := []struct {
		name             string
		engine, detector func(sw *wire.StateWriter)
	}{
		{name: "huge string", detector: func(sw *wire.StateWriter) {
			sw.Uvarint(1) // objects
			sw.Varint(0)
			sw.Uvarint(1) // points
			sw.Varint(0)
			sw.Uvarint(uint64(trace.Str))
			sw.Uvarint(huge)
		}},
		{name: "huge clock", engine: func(sw *wire.StateWriter) {
			sw.Uvarint(1) // threads
			sw.Bool(true)
			sw.Bool(false)
			sw.Bool(true) // clock present
			sw.Uvarint(huge)
		}, detector: func(sw *wire.StateWriter) {}},
		{name: "repeated point", detector: func(sw *wire.StateWriter) {
			sw.Uvarint(1) // objects
			sw.Varint(0)
			sw.Uvarint(2) // points
			point(sw)
			point(sw)
			sw.Uvarint(0)            // racy objects
			for i := 0; i < 8; i++ { // dead racy, seven counters
				sw.Varint(0)
			}
		}},
	}
	prev := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			torn := obsCkptTorn.Load()
			durableRestartDiff(t, func(t *testing.T, sdir, _ string) {
				var esw, dsw wire.StateWriter
				var engine []byte
				if tc.engine != nil {
					esw.Begin(snapSecEngine)
					tc.engine(&esw)
					engine = esw.Payload()
				}
				dsw.Begin(snapSecDetector)
				tc.detector(&dsw)
				forgeSnapshot(t, sdir, engine, dsw.Payload())
			})
			if got := obsCkptTorn.Load() - torn; got != 1 {
				t.Fatalf("torn recoveries moved by %d, want 1", got)
			}
		})
	}
}
