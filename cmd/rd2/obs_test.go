package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestReportFlagWritesJSONL: -report streams one structured record per race
// (serial and sharded paths), each line valid JSON with the responsible
// spec attached.
func TestReportFlagWritesJSONL(t *testing.T) {
	tracePath := writeFile(t, "racy.trace", racyTrace)
	for _, shards := range []string{"1", "4"} {
		out := filepath.Join(t.TempDir(), "races.jsonl")
		code := run([]string{"-trace", tracePath, "-q", "-shards", shards, "-report", out})
		if code != 1 {
			t.Fatalf("shards=%s: exit = %d, want 1", shards, code)
		}
		f, err := os.Open(out)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		lines := 0
		for sc.Scan() {
			lines++
			var rec core.RaceRecord
			if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
				t.Fatalf("shards=%s line %d: %v", shards, lines, err)
			}
			if rec.Spec != "dict" {
				t.Errorf("shards=%s line %d: spec = %q, want dict", shards, lines, rec.Spec)
			}
			if rec.First.Method == "" || len(rec.Second.Clock) == 0 {
				t.Errorf("shards=%s line %d: incomplete record %+v", shards, lines, rec)
			}
		}
		if lines == 0 {
			t.Fatalf("shards=%s: report file is empty", shards)
		}
	}
}

// TestReportFlagCleanTrace: no races → empty report file, exit 0.
func TestReportFlagCleanTrace(t *testing.T) {
	tracePath := writeFile(t, "clean.trace", cleanTrace)
	out := filepath.Join(t.TempDir(), "races.jsonl")
	if code := run([]string{"-trace", tracePath, "-q", "-report", out}); code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 0 {
		t.Fatalf("report not empty for clean trace: %q", data)
	}
}

// TestReportFlagWriteError: a report that cannot be written (here a full
// device, surfacing when the buffered records are flushed) fails the run
// with exit 2 instead of dropping records silently.
func TestReportFlagWriteError(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full")
	}
	tracePath := writeFile(t, "racy.trace", racyTrace)
	if code := run([]string{"-trace", tracePath, "-q", "-report", "/dev/full"}); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}

// TestHTTPFlagServesMetrics: -http (without -serve) exposes a /metrics
// snapshot that passes schema validation and carries core counters from the
// analysis. The server races with run() returning, so the scrape happens
// while rd2 is still inside run via the emitter-style polling below — here
// we instead bind the server ourselves through the same code path rd2 uses.
func TestHTTPFlagServesMetrics(t *testing.T) {
	obs.Default.Reset()
	obs.SetEnabled(true)
	defer func() {
		obs.SetEnabled(false)
		obs.Default.Reset()
	}()
	srv, err := obs.Serve("127.0.0.1:0", obs.Default)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	tracePath := writeFile(t, "racy.trace", racyTrace)
	if code := run([]string{"-trace", tracePath, "-q"}); code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}

	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", srv.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateSnapshot(body); err != nil {
		t.Fatalf("metrics failed schema validation: %v\n%s", err, body)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["core.actions"] == 0 {
		t.Errorf("core.actions = 0 after analyzing a trace; counters: %v", snap.Counters)
	}
	if snap.Counters["core.races"] == 0 {
		t.Errorf("core.races = 0 after a racy trace")
	}
}

// TestObsFlagEnablesMetrics: -obs flips the global switch (and run prints a
// final snapshot to stderr; here we just assert the switch and counters).
func TestObsFlagEnablesMetrics(t *testing.T) {
	obs.Default.Reset()
	defer func() {
		obs.SetEnabled(false)
		obs.Default.Reset()
	}()
	tracePath := writeFile(t, "clean.trace", cleanTrace)
	if code := run([]string{"-trace", tracePath, "-q", "-obs"}); code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	if !obs.Enabled() {
		t.Fatal("-obs did not enable metrics")
	}
	if obs.GetCounter("core.actions").Load() == 0 {
		t.Error("core.actions not counted under -obs")
	}
}

// TestServeRequiresHTTP: -serve without -http is a usage error.
func TestServeRequiresHTTP(t *testing.T) {
	tracePath := writeFile(t, "clean.trace", cleanTrace)
	if code := run([]string{"-trace", tracePath, "-serve"}); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}
