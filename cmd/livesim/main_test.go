package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// Smoke tests: the binary's two entry points run end to end at n=8 and
// report no error. Their tables go to standard output, as from the command
// line.

func smokeConfig(transport string) config {
	return config{n: 8, runs: 4, seed: 1, algo: "poisonpill", backend: "live", transport: transport, traceCap: 1 << 12}
}

func TestRunCampaign(t *testing.T) {
	for _, transport := range []string{"chan", "tcp"} {
		if err := run(smokeConfig(transport)); err != nil {
			t.Errorf("-transport %s: %v", transport, err)
		}
	}
}

// TestRunChaosWritesReport: one seed of the chaos grid, every backend: no
// invalid election, and a report whose cells account for every run.
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
	for _, c := range rep.Cells {
		if c.Runs == 0 || c.Elected+c.WinnerCrashed+c.NoQuorumRuns != c.Runs {
			t.Errorf("%s/%s: %d elected + %d winner-crashed + %d no-quorum of %d runs",
				c.Scenario, c.Backend, c.Elected, c.WinnerCrashed, c.NoQuorumRuns, c.Runs)
		}
	}
}
