package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/trace"
)

// capture writes a trace file the way cmd/livesim -trace-out does: a
// recorder's spans and their breakdown.
func capture(t *testing.T, waitNs int64) string {
	t.Helper()
	rec := trace.NewRecorder(64)
	for call := int64(0); call < 4; call++ {
		rec.Record(1, 1, trace.PSend, call*1000, 100, 19)
		rec.Record(1, 1, trace.PQuorumWait, call*1000+100, waitNs, 16)
		rec.Record(1, 0, trace.PMerge, call*1000+150, 50, 1)
	}
	spans := rec.Spans()
	path := filepath.Join(t.TempDir(), "trace.json")
	f := &trace.File{
		Meta:      trace.Meta{Name: "smoke", Transport: "chan", N: 32, K: 32, Elections: 1, MeanElectionSec: 4e-6},
		Breakdown: trace.ComputeBreakdown(spans, rec.Dropped()),
		Spans:     spans,
	}
	if err := trace.WriteFile(path, f); err != nil {
		t.Fatal(err)
	}
	return path
}

// Smoke tests: run, the binary's one entry point below flag parsing, on
// captures written by internal/trace. The tables go to standard output, as
// from the command line.

func TestRunRoundTripsACapture(t *testing.T) {
	before, after := capture(t, 800), capture(t, 400)
	if err := run(false, "", []string{before}); err != nil {
		t.Errorf("table: %v", err)
	}
	if err := run(true, "", []string{before, after}); err != nil {
		t.Errorf("-diff: %v", err)
	}
	chrome := filepath.Join(t.TempDir(), "chrome.json")
	if err := run(false, chrome, []string{before}); err != nil {
		t.Errorf("-chrome: %v", err)
	}
	if st, err := os.Stat(chrome); err != nil || st.Size() == 0 {
		t.Errorf("-chrome wrote nothing: %v", err)
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	path := capture(t, 800)
	if err := run(false, "", nil); err == nil {
		t.Error("no trace file ran")
	}
	if err := run(true, "", []string{path}); err == nil {
		t.Error("-diff with one file ran")
	}
	if err := run(false, "", []string{filepath.Join(t.TempDir(), "missing.json")}); err == nil {
		t.Error("a missing file ran")
	}
}
