package main

import (
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

var (
	// gate mirrors the binary's default -gate pattern; keep the two in sync.
	gate   = regexp.MustCompile(`(?:election-sec|allocs)$`)
	higher = regexp.MustCompile(`-per-sec$`)
)

// find returns the row for name, failing the test when absent.
func find(t *testing.T, rows []row, name string) row {
	t.Helper()
	for _, r := range rows {
		if r.name == name {
			return r
		}
	}
	t.Fatalf("no comparison row for %q", name)
	return row{}
}

// TestGateFailsOnLatencyRegression: a gated lower-is-better metric beyond
// the threshold fails; one inside the threshold passes.
func TestGateFailsOnLatencyRegression(t *testing.T) {
	baseline := map[string]float64{
		"t13/tcp/n=32/election-sec": 0.040,
		"t13/tcp/n=8/election-sec":  0.004,
	}
	current := map[string]float64{
		"t13/tcp/n=32/election-sec": 0.060, // +50%: fail
		"t13/tcp/n=8/election-sec":  0.005, // +25%: within 30%
	}
	rows := compare(baseline, current, gate, higher, 0.30)
	if r := find(t, rows, "t13/tcp/n=32/election-sec"); !r.failed || !r.gated {
		t.Errorf("+50%% latency regression not flagged: %+v", r)
	}
	if r := find(t, rows, "t13/tcp/n=8/election-sec"); r.failed {
		t.Errorf("+25%% change failed a 30%% gate: %+v", r)
	}
}

// TestGateFailsOnAllocsRegression: allocation counts are gated by default —
// lower is better, a rise beyond the threshold fails, a drop (the pooling
// win) and a within-threshold rise pass.
func TestGateFailsOnAllocsRegression(t *testing.T) {
	baseline := map[string]float64{
		"t13/tcp/n=32/allocs":     100000,
		"t13/tcp/n=8/allocs":      7000,
		"t15/chan/conc=16/allocs": 20000,
	}
	current := map[string]float64{
		"t13/tcp/n=32/allocs":     140000, // +40%: fail
		"t13/tcp/n=8/allocs":      8000,   // +14%: within 30%
		"t15/chan/conc=16/allocs": 9000,   // pooling win: pass
	}
	rows := compare(baseline, current, gate, higher, 0.30)
	if r := find(t, rows, "t13/tcp/n=32/allocs"); !r.failed || !r.gated {
		t.Errorf("+40%% allocs regression not flagged: %+v", r)
	}
	if r := find(t, rows, "t13/tcp/n=8/allocs"); r.failed {
		t.Errorf("+14%% allocs change failed a 30%% gate: %+v", r)
	}
	r := find(t, rows, "t15/chan/conc=16/allocs")
	if r.failed {
		t.Errorf("allocation improvement failed the gate: %+v", r)
	}
	if r.delta > -0.5 {
		t.Errorf("55%% allocs drop reported delta %v, want strongly negative", r.delta)
	}
}

// TestGateDirectionForThroughput: higher-is-better metrics regress when
// they fall, not when they rise — and are only enforced when gated.
func TestGateDirectionForThroughput(t *testing.T) {
	baseline := map[string]float64{"t14/workers=4/elections-per-sec": 100}
	current := map[string]float64{"t14/workers=4/elections-per-sec": 60}
	rows := compare(baseline, current, gate, higher, 0.30)
	r := find(t, rows, "t14/workers=4/elections-per-sec")
	if r.delta < 0.39 || r.delta > 0.41 {
		t.Errorf("throughput drop delta = %v, want +0.40", r.delta)
	}
	if r.failed {
		t.Errorf("ungated throughput metric enforced: %+v", r)
	}
	// Gate it explicitly: now the same drop fails.
	rows = compare(baseline, current, regexp.MustCompile(`elections-per-sec$`), higher, 0.30)
	if r := find(t, rows, "t14/workers=4/elections-per-sec"); !r.failed {
		t.Errorf("gated throughput drop of 40%% passed: %+v", r)
	}
}

// TestImprovementsAndNewMetricsPass: improvements never fail, metrics
// missing from either side are skipped, and a zero baseline never gates.
func TestImprovementsAndNewMetricsPass(t *testing.T) {
	baseline := map[string]float64{
		"t13/tcp/n=32/election-sec": 0.080,
		"t13/retired/election-sec":  1.0,
		"t13/zero/election-sec":     0.0,
	}
	current := map[string]float64{
		"t13/tcp/n=32/election-sec":     0.035, // 2.3x better
		"t13/brand-new/election-sec":    9.9,   // no baseline: skipped
		"t13/zero/election-sec":         5.0,   // degenerate baseline: never gated
		"t13/tcp/n=32/wire-bytes":       1,     // not shared
		"t14/workers=1/elections-per-s": 1,
	}
	rows := compare(baseline, current, gate, higher, 0.30)
	if len(rows) != 2 {
		t.Fatalf("%d rows, want 2 (shared metrics only): %+v", len(rows), rows)
	}
	for _, r := range rows {
		if r.failed {
			t.Errorf("row failed unexpectedly: %+v", r)
		}
	}
	if r := find(t, rows, "t13/tcp/n=32/election-sec"); r.delta > -0.5 {
		t.Errorf("2.3x improvement reported delta %v, want strongly negative", r.delta)
	}
}

// TestParseMetricsSchema: the host-profiled form loads; the flat metric
// array and the unprofiled object that preceded it, and any other object
// without a "profiles" key, are rejected with a message naming the key
// rather than silently read as zero metrics.
func TestParseMetricsSchema(t *testing.T) {
	auto := hostSelector{mode: "auto"}
	prof := []byte(`{"profiles":[{"host":{"cores":` + itoa(runtime.NumCPU()) + `,"gomaxprocs":` + itoa(runtime.NumCPU()) +
		`,"goos":"` + runtime.GOOS + `","goarch":"` + runtime.GOARCH + `"},"metrics":[{"name":"p","value":3}],"phases":[]}]}`)
	ms, ok, _, err := parseMetrics(prof, auto)
	if err != nil || !ok || len(ms) != 1 || ms[0].Name != "p" {
		t.Fatalf("profiled schema: err=%v ok=%v, metrics=%+v", err, ok, ms)
	}
	for _, bad := range []string{
		`[{"name":"a","value":1},{"name":"b","value":2}]`,
		`{"metrics":[{"name":"a","value":1}],"phases":[]}`,
		`{"something":"else"}`,
	} {
		if _, _, _, err := parseMetrics([]byte(bad), auto); err == nil || !strings.Contains(err.Error(), `"profiles"`) {
			t.Errorf("non-profile file %s: err=%v, want a parse error naming the profiles key", bad, err)
		}
	}
}

func itoa(n int) string { return strconv.Itoa(n) }

// TestHostSelection: profile matching across the three -host modes, the
// no-match skip signal, and the any-mode single-profile requirement.
func TestHostSelection(t *testing.T) {
	// Two profiles, neither shaped like this host (cores counts no real
	// machine has, and a foreign goos for the matching-core one).
	foreign := []byte(`{"profiles":[
		{"host":{"cores":100001,"gomaxprocs":100001,"goos":"linux","goarch":"amd64"},"metrics":[{"name":"x","value":1}]},
		{"host":{"cores":` + itoa(runtime.NumCPU()) + `,"gomaxprocs":` + itoa(runtime.NumCPU()) + `,"goos":"plan9","goarch":"arm"},"metrics":[{"name":"y","value":2}]}]}`)

	// auto finds no profile: not an error, ok=false with a note naming what
	// the file holds — the caller's skip path.
	ms, ok, note, err := parseMetrics(foreign, hostSelector{mode: "auto"})
	if err != nil || ok || ms != nil {
		t.Fatalf("auto vs foreign profiles: err=%v ok=%v ms=%+v", err, ok, ms)
	}
	if !strings.Contains(note, "cores=100001") || !strings.Contains(note, "plan9") {
		t.Errorf("no-match note should list the file's profiles, got %q", note)
	}

	// cores=N selects by core count regardless of goos.
	ms, ok, _, err = parseMetrics(foreign, hostSelector{mode: "cores", cores: 100001})
	if err != nil || !ok || len(ms) != 1 || ms[0].Name != "x" {
		t.Fatalf("cores=100001: err=%v ok=%v ms=%+v", err, ok, ms)
	}

	// any refuses a multi-profile file (which profile would it mean?), but
	// accepts a single-profile file no matter the shape.
	if _, _, _, err := parseMetrics(foreign, hostSelector{mode: "any"}); err == nil {
		t.Error("-host any accepted a two-profile file")
	}
	single := []byte(`{"profiles":[{"host":{"cores":100001,"gomaxprocs":100001,"goos":"plan9","goarch":"arm"},"metrics":[{"name":"x","value":1}]}]}`)
	ms, ok, _, err = parseMetrics(single, hostSelector{mode: "any"})
	if err != nil || !ok || len(ms) != 1 {
		t.Fatalf("-host any vs single profile: err=%v ok=%v ms=%+v", err, ok, ms)
	}

	// auto skips a profile measured under a non-default GOMAXPROCS even on
	// matching hardware: that run was an experiment, selected only explicitly.
	experiment := []byte(`{"profiles":[{"host":{"cores":` + itoa(runtime.NumCPU()) + `,"gomaxprocs":` + itoa(4*runtime.NumCPU()) +
		`,"goos":"` + runtime.GOOS + `","goarch":"` + runtime.GOARCH + `"},"metrics":[{"name":"x","value":1}]}]}`)
	if _, ok, _, err := parseMetrics(experiment, hostSelector{mode: "auto"}); err != nil || ok {
		t.Errorf("auto matched a gomaxprocs!=cores experiment profile: err=%v ok=%v", err, ok)
	}
}

// TestParseHostSelector: flag syntax for the three modes.
func TestParseHostSelector(t *testing.T) {
	for _, good := range []struct {
		in   string
		want hostSelector
	}{
		{"auto", hostSelector{mode: "auto"}},
		{"any", hostSelector{mode: "any"}},
		{"cores=4", hostSelector{mode: "cores", cores: 4}},
	} {
		got, err := parseHostSelector(good.in)
		if err != nil || got != good.want {
			t.Errorf("parseHostSelector(%q) = %+v, %v; want %+v", good.in, got, err, good.want)
		}
	}
	for _, bad := range []string{"", "cores=", "cores=zero", "cores=-1", "cores=0", "everything"} {
		if _, err := parseHostSelector(bad); err == nil {
			t.Errorf("parseHostSelector(%q) accepted", bad)
		}
	}
}

// TestCompareRatios: the paired traced:untraced gate flags bounded
// overhead as passing, 2x overhead as failing, and refuses to run when a
// pair matches nothing or a sibling is missing — a silent no-op gate is
// worse than no gate.
func TestCompareRatios(t *testing.T) {
	current := map[string]float64{
		"t13/tcp-traced/n=32/allocs":       1100,
		"t13/tcp/n=32/allocs":              1000,
		"t13/tcp-traced/n=32/election-sec": 0.036, // outside the allocs ratio gate
		"t13/tcp/n=32/election-sec":        0.030,
		"t15/tcp-traced/conc=16/allocs":    2000,
		"t15/tcp/conc=16/allocs":           1000,
		"t15/zero-traced/conc=1/allocs":    5,
		"t15/zero/conc=1/allocs":           0,
	}
	allocs := regexp.MustCompile(`allocs$`)
	rows, err := compareRatios(current, []string{"t13/tcp-traced:t13/tcp"}, allocs, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].failed || rows[0].ratio < 1.09 || rows[0].ratio > 1.11 {
		t.Fatalf("10%% overhead within a 25%% bound flagged: %+v", rows)
	}
	rows, err = compareRatios(current, []string{"t15/tcp-traced:t15/tcp"}, allocs, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || !rows[0].failed {
		t.Fatalf("2x overhead passed a 25%% bound: %+v", rows)
	}
	rows, err = compareRatios(current, []string{"t15/zero-traced:t15/zero"}, allocs, 0.25)
	if err != nil || len(rows) != 1 || !rows[0].degenerate || rows[0].failed {
		t.Fatalf("zero-denominator pair should report without gating: err=%v rows=%+v", err, rows)
	}
	if _, err := compareRatios(current, []string{"t99/a:t99/b"}, allocs, 0.25); err == nil {
		t.Error("pair matching no metric accepted")
	}
	if _, err := compareRatios(map[string]float64{"x-traced/allocs": 1}, []string{"x-traced:x"}, allocs, 0.25); err == nil {
		t.Error("missing untraced sibling accepted")
	}
	if _, err := compareRatios(current, []string{"nocolon"}, allocs, 0.25); err == nil {
		t.Error("malformed pair accepted")
	}
}
