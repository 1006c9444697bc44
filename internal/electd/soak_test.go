package electd_test

import (
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/electd"
)

// TestSoakServiceEndurance: the compressed in-CI soak — thousands of short
// elections over one long-running TTL-evicting cluster, asserting the full
// SoakReport.Check contract: unique winners everywhere, eviction running,
// no state accumulation, a flat heap, and /metrics totals equal to the
// service's own counters. ELECTD_SOAK_ELECTIONS scales it up to the real
// thing (the acceptance run uses 100k+; `electd -soak` is the same harness
// from the command line).
func TestSoakServiceEndurance(t *testing.T) {
	elections := 3000
	if testing.Short() {
		elections = 600
	}
	if env := os.Getenv("ELECTD_SOAK_ELECTIONS"); env != "" {
		v, err := strconv.Atoi(env)
		if err != nil {
			t.Fatalf("ELECTD_SOAK_ELECTIONS=%q: %v", env, err)
		}
		elections = v
	}
	rep, err := electd.Soak(electd.SoakConfig{
		Elections: elections,
		Log:       t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("soak: %d elections (%d invalid), served %d, evicted %d, final live %d, heap %.0f → %.0f bytes",
		rep.Elections, rep.Invalid, rep.Served, rep.Evicted, rep.FinalLive, rep.FirstQMean, rep.LastQMean)
	if err := rep.Check(); err != nil {
		t.Fatal(err)
	}
}

// leaked is what TestSoakCatchesInjectedLeak retains; package-level so the
// collector cannot prove it dead.
var leaked [][]byte

// TestSoakCatchesInjectedLeak: the heap gate must still bite. The harness
// calls Log once per heap sample, so a Log that retains 256 KiB per call is
// a leak of the size the 10% + slack bar exists to catch — growing through
// every sample, sweeper caught up or not — and Check has to name it.
func TestSoakCatchesInjectedLeak(t *testing.T) {
	defer func() { leaked = nil }()
	rep, err := electd.Soak(electd.SoakConfig{
		Elections: 320,
		Log: func(string, ...any) {
			leaked = append(leaked, make([]byte, 256<<10))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	err = rep.Check()
	if err == nil || !strings.Contains(err.Error(), "leak") {
		t.Fatalf("a 256 KiB-per-sample leak passed the soak check (heap %.0f → %.0f bytes): %v",
			rep.FirstQMean, rep.LastQMean, err)
	}
}
