package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/fault"
	"repro/internal/trace"
)

// Smoke tests: the binary's two entry points run end to end at n=8 and
// report no error. Their tables go to standard output, as from the command
// line.

func smokeConfig(transport string) config {
	return config{n: 8, runs: 4, seed: 1, algo: "poisonpill", transport: transport, traceCap: 1 << 12}
}

func TestRunCampaign(t *testing.T) {
	for _, transport := range []string{"chan", "tcp"} {
		if err := run(smokeConfig(transport)); err != nil {
			t.Errorf("-transport %s: %v", transport, err)
		}
	}
}

// TestRunMatrixWritesTraces: a two-scenario matrix with the flight
// recorder on writes a trace file that traceview can read — one recorder
// across the matrix, so its elections count every scenario's runs — and a
// non-empty Chrome export; an unknown scenario name is an error.
func TestRunMatrixWritesTraces(t *testing.T) {
	dir := t.TempDir()
	cfg := smokeConfig("chan")
	cfg.runs = 2
	cfg.scenarios = "crash-1,reorder"
	cfg.traceOut = filepath.Join(dir, "trace.json")
	cfg.traceChrome = filepath.Join(dir, "trace.chrome.json")
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
	f, err := trace.ReadFile(cfg.traceOut)
	if err != nil {
		t.Fatal(err)
	}
	if f.Meta.Elections != 4 || len(f.Spans) == 0 {
		t.Errorf("trace file covers %d elections with %d spans, want 4 elections and some spans",
			f.Meta.Elections, len(f.Spans))
	}
	if fi, err := os.Stat(cfg.traceChrome); err != nil {
		t.Error(err)
	} else if fi.Size() == 0 {
		t.Error("empty chrome export")
	}

	cfg.scenarios = "crash-1,no-such-scenario"
	if err := run(cfg); err == nil {
		t.Error("unknown scenario accepted")
	}
}

// TestRunChaosWritesReport: one seed of the chaos grid, every backend: no
// invalid election, the grid's 30 (scenario, backend) cells in scenario
// order, and a report whose cells account for every run.
func TestRunChaosWritesReport(t *testing.T) {
	out := filepath.Join(t.TempDir(), "chaos.json")
	if err := runChaos(smokeConfig("chan"), 1, out); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep chaosReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("report %s: %v", out, err)
	}
	if rep.N != 8 || rep.Seeds != 1 || len(rep.Cells) == 0 {
		t.Fatalf("report covers n=%d, %d seeds, %d cells", rep.N, rep.Seeds, len(rep.Cells))
	}
	if rep.Invalid != 0 || rep.SiblingInvalid != 0 {
		t.Errorf("%d invalid elections, %d invalid siblings", rep.Invalid, rep.SiblingInvalid)
	}
	if rep.SiblingRuns != 6 {
		t.Errorf("%d tcp-shared elections, want 6 (one per link-only or fault-free scenario)", rep.SiblingRuns)
	}
	var want []string
	for _, sc := range []struct {
		name   string
		shared bool
	}{
		{"baseline", true}, {"partition-heal", true}, {"partition-minority", true},
		{"partition-majority", true}, {"crash-recovery", false}, {"flaky", true},
		{"flaky-asym", true}, {"chaos-recovery", false},
	} {
		want = append(want, sc.name+"/chan", sc.name+"/tcp", sc.name+"/udp")
		if sc.shared {
			want = append(want, sc.name+"/tcp-shared")
		}
	}
	var got []string
	for _, c := range rep.Cells {
		got = append(got, c.Scenario+"/"+c.Backend)
	}
	if !slices.Equal(got, want) {
		t.Errorf("cells\n got %v\nwant %v", got, want)
	}
	for _, c := range rep.Cells {
		if c.Runs == 0 || c.Elected+c.WinnerCrashed+c.NoQuorumRuns != c.Runs {
			t.Errorf("%s/%s: %d elected + %d winner-crashed + %d no-quorum of %d runs",
				c.Scenario, c.Backend, c.Elected, c.WinnerCrashed, c.NoQuorumRuns, c.Runs)
		}
	}
}

// TestChaosColumnsShareOnlyLinkOnly: the grid holds at least one scenario
// that crashes servers — which is what makes the tcp and udp matrices build
// one cluster per run — and the tcp-shared column, whose matrix shares one
// cluster, holds only fault-free or link-only scenarios.
func TestChaosColumnsShareOnlyLinkOnly(t *testing.T) {
	if !slices.ContainsFunc(fault.ChaosGrid(), func(sc fault.Scenario) bool {
		return sc.Active() && !sc.LinkOnly()
	}) {
		t.Error("fault.ChaosGrid has no scenario that is active and not link-only")
	}
	shared := 0
	for _, col := range chaosColumns() {
		if col.backend != "tcp-shared" {
			continue
		}
		for _, sc := range col.scenarios {
			shared++
			if sc.Active() && !sc.LinkOnly() {
				t.Errorf("tcp-shared runs %q, which is active and not link-only", sc.Name)
			}
		}
	}
	if shared == 0 {
		t.Error("no tcp-shared column")
	}
}
