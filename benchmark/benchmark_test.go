package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/rt"
	"repro/internal/trace"
)

func TestPercentileNearestRank(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: percentile must sort
		}
		return xs
	}
	cases := []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{nil, 0.5, 0},
		{[]float64{7}, 0.95, 7},
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{4, 1, 3, 2}, 0.5, 2},
		{seq(10), 0.95, 10}, // n < 20: p95 is the maximum
		{seq(19), 0.95, 19},
		{seq(20), 0.95, 19},
		{seq(100), 0.50, 50},
		{seq(100), 0.95, 95},
		{seq(100), 0.99, 99},
		{seq(250), 0.95, 238},
	}
	for _, c := range cases {
		if got := percentile(c.xs, c.p); got != c.want {
			t.Errorf("percentile(n=%d, %v) = %v, want %v", len(c.xs), c.p, got, c.want)
		}
	}
	if got := beyond(250, 0.95); got != 12 {
		t.Errorf("beyond(250, 0.95) = %d, want 12", got)
	}
	if got := beyond(10, 0.95); got != 0 {
		t.Errorf("beyond(10, 0.95) = %d, want 0", got)
	}
}

func TestCheckValid(t *testing.T) {
	decisions := func(ds ...core.Decision) live.Result {
		res := live.Result{Decisions: map[rt.ProcID]core.Decision{}}
		for i, d := range ds {
			if d != 0 {
				res.Decisions[rt.ProcID(i)] = d
			}
		}
		return res
	}
	cases := []struct {
		name string
		res  live.Result
		k    int
		ok   bool
	}{
		{"one winner", decisions(core.Lose, core.Win, core.Lose), 3, true},
		{"solo winner", decisions(core.Win), 1, true},
		{"two winners", decisions(core.Win, core.Win, core.Lose), 3, false},
		{"no winner", decisions(core.Lose, core.Lose, core.Lose), 3, false},
		{"missing participant", decisions(core.Win, 0, core.Lose), 3, false},
		{"too few decisions", decisions(core.Win, core.Lose), 3, false},
		{"undecided participant", decisions(core.Win, core.Proceed, core.Lose), 3, false},
		{"stranger decided", decisions(core.Win, core.Lose, core.Lose, core.Lose), 3, false},
	}
	for _, c := range cases {
		if err := checkValid(c.res, c.k); (err == nil) != c.ok {
			t.Errorf("%s: checkValid = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestOpenLoopChargesFromDueTime(t *testing.T) {
	const stall = 60 * time.Millisecond
	arrivals := 0
	o := openLoop{
		interval: 10 * time.Millisecond, count: 4, maxInFlight: 8,
		// Arrival 0 is due at once and needs no sleep; the generator stalls
		// in its second sleep, so arrivals 2 and 3 fire late although the
		// elections themselves are instant.
		sleep: func(d time.Duration) {
			if arrivals++; arrivals == 2 {
				d += stall
			}
			time.Sleep(d)
		},
	}
	var done atomic.Int64
	samples, refused, lag := o.run(&done, func(i int) sample {
		return sample{id: uint64(i), service: time.Microsecond, latency: time.Microsecond}
	})
	if refused != 0 || len(samples) != 4 || done.Load() != 4 {
		t.Fatalf("refused=%d samples=%d done=%d, want 0, 4, 4", refused, len(samples), done.Load())
	}
	for _, s := range samples {
		switch late := s.id >= 2; {
		case late && s.latency < stall/2:
			t.Errorf("election %d fired after the stall but was charged only %v", s.id, s.latency)
		case !late && s.latency > stall/2:
			t.Errorf("election %d fired before the stall but was charged %v", s.id, s.latency)
		}
		if s.service != time.Microsecond {
			t.Errorf("election %d: service time %v changed", s.id, s.service)
		}
	}
	if lag[2] < stall/2 || lag[0] > stall/2 {
		t.Errorf("generator lag %v does not show the stall at arrival 2", lag)
	}
}

func TestOpenLoopRefusesBeyondCap(t *testing.T) {
	release := make(chan struct{})
	o := openLoop{interval: time.Millisecond, count: 5, maxInFlight: 2, sleep: time.Sleep}
	var done atomic.Int64
	go func() {
		for done.Load() < 3 { // three refusals: every arrival has been made
			time.Sleep(time.Millisecond)
		}
		close(release)
	}()
	samples, refused, _ := o.run(&done, func(int) sample {
		<-release
		return sample{}
	})
	if refused != 3 || len(samples) != 2 {
		t.Errorf("refused=%d completed=%d, want 3 and 2", refused, len(samples))
	}
	m := &measured{samples: samples, refused: refused}
	if failed, first := m.failed(); failed != 3 || first == nil || m.attempted() != 5 {
		t.Errorf("failed=%d (%v) attempted=%d, want 3 of 5", failed, first, m.attempted())
	}
}

func TestGuardedReportsOverrun(t *testing.T) {
	var done atomic.Int64
	if err := guarded(time.Second, &done, func() { done.Add(2) }); err != nil {
		t.Fatalf("finished run: %v", err)
	}
	stuck := make(chan struct{})
	defer close(stuck)
	err := guarded(20*time.Millisecond, &done, func() { done.Add(5); <-stuck })
	var over errOverrun
	if !errors.As(err, &over) || over.done != 7 {
		t.Fatalf("stuck run: got %v, want an overrun reporting 7 completed elections", err)
	}
	if !strings.Contains(err.Error(), "7 elections completed so far count as failed") {
		t.Errorf("overrun message %q does not report the completed elections as failed", err)
	}
}

func TestElectionSeedStable(t *testing.T) {
	// Pinned: a change here silently changes every workload's inputs.
	want := map[[2]int64]int64{
		{1, 0}:            6238072747940578789,
		{1, 1}:            -7995527694508729151,
		{1, warmupOffset}: 6365388470549307545,
		{42, 7}:           4028864712777624925,
	}
	for in, w := range want {
		if got := electionSeed(in[0], int(in[1])); got != w {
			t.Errorf("electionSeed(%d, %d) = %d, want %d", in[0], in[1], got, w)
		}
	}
	seen := map[int64]bool{}
	for i := 0; i < 10000; i++ {
		seen[electionSeed(1, i)] = true
	}
	if len(seen) != 10000 {
		t.Errorf("10000 elections drew %d distinct seeds", len(seen))
	}
}

// TestNamesMatchBenchmarkJSON holds the program's workload and metric
// tables to BENCHMARK.json: same names, order, units, directions, bounds.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(buf, &raw); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	if len(raw) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, the contract allows exactly 6", len(raw))
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	used := map[string]bool{}
	checkName := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is not made of letters, digits, _ . - (at most 64)", name)
		}
		if used[name] {
			t.Errorf("name %q is used twice", name)
		}
		used[name] = true
	}
	var driven []workload
	for _, w := range workloads {
		checkName(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		if w.driven {
			driven = append(driven, w)
		}
	}
	if len(doc.Workloads) != len(driven) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program marks %d as driven", len(doc.Workloads), len(driven))
	}
	for i, w := range driven {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, doc.Workloads[i].Name, doc.Workloads[i].Why, w.Name, w.Why)
		}
	}
	compare := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program has %d", kind, len(got), len(want))
		}
		for i, d := range want {
			checkName(d.Name)
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, g, d)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25):
				t.Errorf("%s %s: bound must be in (0, 0.25] and equal in both places", kind, d.Name)
			case !bounded && g.Bound != nil:
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, d.Name)
			}
		}
	}
	compare("end_to_end", doc.EndToEnd, endToEndDefs, true)
	compare("per_layer", doc.PerLayer, perLayerDefs(), false)
	if len(trace.Phases()) != 13 {
		t.Errorf("internal/trace has %d phases, the benchmark documents 13", len(trace.Phases()))
	}
	if doc.RunSeconds != recordSeconds || len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("run_seconds=%d paths=%v, want %d and [benchmark]", doc.RunSeconds, doc.Paths, recordSeconds)
	}
}

func TestDriverLineCarriesExactlyTheDeclaredMetrics(t *testing.T) {
	r := &workloadResult{EndToEnd: map[string]float64{}, PerLayer: map[string]float64{}, Attempted: 9}
	for _, d := range endToEndDefs {
		r.EndToEnd[d.Name] = 1.5
	}
	for _, d := range perLayerDefs() {
		r.PerLayer[d.Name] = 0.5
	}
	r.PerLayer["extra"] = 1
	for _, traced := range []bool{false, true} {
		line, err := driverLine(r, traced)
		if err != nil {
			t.Fatal(err)
		}
		var out struct {
			Correct   *bool
			Attempted *int
			Failed    *int
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal(line, &out); err != nil || out.Correct == nil || !*out.Correct || *out.Attempted != 9 || *out.Failed != 0 {
			t.Fatalf("traced=%v: bad driver line %s (%v)", traced, line, err)
		}
		want := endToEndDefs
		if traced {
			want = perLayerDefs()
		}
		if len(out.Metrics) != len(want) {
			t.Errorf("traced=%v: %d metrics on the line, %d declared", traced, len(out.Metrics), len(want))
		}
		for _, d := range want {
			if m, ok := out.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("traced=%v: metric %s missing or with unit %q", traced, d.Name, m.Unit)
			}
		}
	}
	delete(r.EndToEnd, "setup_s")
	if _, err := driverLine(r, false); err == nil {
		t.Error("a missing metric must be an error, not a silent gap")
	}
}

func TestSpanTotalsSelfTime(t *testing.T) {
	l := &spanLog{spans: []benchSpan{
		{ID: 1, Parent: 0, Name: "measure", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "live.Elect", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "live.Elect", Start: 30, End: 70}, // overlaps span 2
		{ID: 4, Parent: 1, Name: "live.Elect", Start: 80, End: 90},
	}}
	got := map[string]spanTotal{}
	for _, s := range l.totals() {
		got[s.Name] = s
	}
	// Children cover [10,70] and [80,90]: 70 of the parent's 100.
	if m := got["measure"]; m.Count != 1 || m.TotalNs != 100 || m.SelfNs != 30 {
		t.Errorf("measure = %+v, want total 100, self 30", m)
	}
	if e := got["live.Elect"]; e.Count != 3 || e.TotalNs != 90 || e.SelfNs != 90 {
		t.Errorf("live.Elect = %+v, want 3 spans, total 90, self 90", e)
	}
	var none *spanLog
	none.end(none.begin("x", 0)) // a nil log records nothing and must not panic
}

func TestPhaseShares(t *testing.T) {
	b := trace.ComputeBreakdown([]trace.Span{
		{Election: 1, Phase: trace.PSend, Start: 0, Dur: 10},
		{Election: 1, Phase: trace.PQuorumWait, Start: 10, Dur: 90},
		{Election: 1, Phase: trace.PQuorumWait, Start: 100, Dur: 100},
		{Election: 1, Phase: trace.PStraggler, Start: 50},
		{Election: 1, Phase: trace.PStraggler, Start: 60},
		{Election: 1, Phase: trace.PMerge, Start: 20, Dur: 30},
		{Election: 1, Phase: trace.PReply, Start: 50, Dur: 10},
	}, 0)
	got := phaseShares(b, 4)
	want := map[string]float64{
		"trace.share.send":        0.05,
		"trace.share.quorum-wait": 0.95,
		"trace.share.straggler":   0.25, // 2 of the 2 calls x 4 replies
		"trace.share.merge":       0.75,
		"trace.share.reply":       0.25,
		"trace.share.wire":        0,
	}
	for name, w := range want {
		if g, ok := got[name]; !ok || g < w-1e-9 || g > w+1e-9 {
			t.Errorf("%s = %v, want %v", name, g, w)
		}
	}
	if len(got) != len(trace.Phases()) {
		t.Errorf("%d shares for %d phases", len(got), len(trace.Phases()))
	}
}

func TestCompareAA(t *testing.T) {
	bound := map[string]float64{}
	for _, d := range endToEndDefs {
		bound[d.Name] = d.Bound
	}
	p50, calls := bound["election_p50_ms"], bound["comm_calls_per_election"]
	mk := func(p50, calls, failed, sim float64) *report {
		r := &workloadResult{Name: "w", EndToEnd: map[string]float64{}, PerLayer: map[string]float64{failedShare: failed}}
		for _, d := range endToEndDefs {
			r.EndToEnd[d.Name] = 10
		}
		r.EndToEnd["election_p50_ms"], r.EndToEnd["comm_calls_per_election"] = p50, calls
		return &report{Workloads: []*workloadResult{r}, Ladder: map[string]float64{"core.sim_msgs.poisonpill": sim, "live.pool_cycle_ns": p50}}
	}
	base := mk(10, 10, 0, 5)
	cases := []struct {
		name string
		b    *report
		bad  int
	}{
		{"identical", mk(10, 10, 0, 5), 0},
		{"within bounds", mk(10*(1+p50*0.9), 10*(1-calls*0.9), 0, 5), 0},
		{"p50 outside its bound", mk(10*(1+p50*1.1), 10, 0, 5), 1},
		{"calls outside their bound", mk(10, 10*(1+calls*1.1), 0, 5), 1},
		{"any failure", mk(10, 10, 0.001, 5), 1},
		{"sim count moved", mk(10, 10, 0, 5.0625), 1},
	}
	for _, c := range cases {
		var out bytes.Buffer
		if bad := compareAA(&out, base, c.b); bad != c.bad {
			t.Errorf("%s: %d comparisons outside, want %d\n%s", c.name, bad, c.bad, out.String())
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "no-such"}, {"-trace", "2"}, {"-seconds", "0"}, {"stray"}, {"-trace"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 || out.Len() != 0 || errOut.Len() == 0 {
			t.Errorf("run(%v) = %d with stdout %q, want exit 2, a message on stderr and no result", args, code, out.String())
		}
	}
}

// TestShortRunEndToEnd drives the real program on the cheapest workload:
// every declared end-to-end metric is measured and nonzero, every election
// valid, and the last line of standard output is the driver's JSON object.
func TestShortRunEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real elections for about two seconds")
	}
	var out, errOut bytes.Buffer
	args := []string{"--workload", "solo-chan-n32", "--seed", "7", "--seconds", "1", "--trace", "0", "-out", t.TempDir()}
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct{ Value float64 }
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not the driver's JSON object: %v", err)
	}
	if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
		t.Errorf("correct=%v attempted=%d failed=%d", line.Correct, line.Attempted, line.Failed)
	}
	for _, d := range endToEndDefs {
		if line.Metrics[d.Name].Value <= 0 {
			t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, line.Metrics[d.Name].Value)
		}
	}
	if !strings.Contains(out.String(), linkNote) {
		t.Errorf("output does not state %q", linkNote)
	}
}
