// Command benchmark is the repository's benchmark of record: six election
// workloads driven in one process over substrates built once, every
// election timed and its validity checked here, plus — with -trace 1 — a
// per-layer ladder and a traced re-run. BENCHMARK.json at the repository
// root describes it to the driver; README.md explains the metrics.
//
//	go run -C benchmark . [-workload name] [-seed n] [-seconds n] [-trace 0|1] [-short] [-aa]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// setUps is how many times a run of record builds and warms the substrate;
// setup_s is their median and the last one is measured on.
const setUps = 3

// linkNote is printed with every result: latency here is processor and
// scheduler time, never wire time.
const linkNote = "loopback only: no real link was crossed"

type options struct {
	seed    int64
	seconds int
	trace   bool
	short   bool
	outDir  string
}

// length is one workload's measured duration; -short quarters it.
func (o options) length() time.Duration {
	d := time.Duration(o.seconds) * time.Second
	if o.short {
		d /= 4
	}
	return d
}

// recordSeconds is the length of a run of record, BENCHMARK.json's
// run_seconds.
const recordSeconds = 32

// warmupCount is 10% of the elections the run is sized to complete, and at
// most one sized second's worth: set-up happens three times per run and the
// driver's budget is better spent measuring.
func warmupCount(w workload, length time.Duration) int {
	return max(1, int(w.sized*min(1, 0.1*length.Seconds())))
}

// workloadResult is one workload's part of result.json.
type workloadResult struct {
	Name     string             `json:"name"`
	Shape    string             `json:"shape"`
	Why      string             `json:"why"`
	EndToEnd map[string]float64 `json:"end_to_end"`
	PerLayer map[string]float64 `json:"per_layer"`
	// Valid is the latency sample count, BeyondP95 how many of them lie
	// above the reported 95th percentile, P99 is for information only.
	Valid     int     `json:"valid_elections"`
	BeyondP95 int     `json:"samples_beyond_p95"`
	P99Ms     float64 `json:"election_p99_ms_info"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	// TracedAttempted and TracedFailed count the traced re-run's elections,
	// which the driver's line adds to the run of record's.
	TracedAttempted int       `json:"traced_attempted,omitempty"`
	TracedFailed    int       `json:"traced_failed,omitempty"`
	FirstErr        string    `json:"first_error,omitempty"`
	SetUpsS         []float64 `json:"setups_s"`
	Flags           []string  `json:"flags,omitempty"`
}

// report is result.json.
type report struct {
	OfRecord bool `json:"of_record"`
	// Claim is always null: this benchmark defines the measure, it claims
	// no gain.
	Claim   *string `json:"claim"`
	Seed    int64   `json:"seed"`
	Seconds float64 `json:"seconds_per_workload"`
	Traced  bool    `json:"per_layer_run"`
	Link    string  `json:"link"`
	Host    struct {
		GOOS       string `json:"goos"`
		GOARCH     string `json:"goarch"`
		NumCPU     int    `json:"num_cpu"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		Go         string `json:"go"`
	} `json:"host"`
	Workloads []*workloadResult `json:"workloads"`
	// Ladder holds the workload-independent per-layer metrics (also merged
	// into every workload's per_layer map).
	Ladder map[string]float64 `json:"ladder,omitempty"`
	// Spans sums the benchmark's own spans by name.
	Spans []spanTotal `json:"bench_spans,omitempty"`
}

func (w workload) shape() string {
	s := fmt.Sprintf("closed loop, %d in flight", w.inFlight)
	if w.rate > 0 {
		s = fmt.Sprintf("open loop, due every 1/%.0f s, at most %d in flight", w.rate, w.maxInFlight)
	}
	s += fmt.Sprintf(", n=k=%d, %s", w.n, w.transport)
	if w.scenario.Active() {
		s += fmt.Sprintf(", injected link delay %v + U[0, %v] per message", w.scenario.Link.Base, w.scenario.Link.Jitter)
	}
	return s
}

// runWorkload performs one workload's run of record: set up and warm the
// substrate setUps times, then measure on the last with tracing off.
func runWorkload(w workload, o options) (*workloadResult, error) {
	length := o.length()
	r := &workloadResult{Name: w.Name, Shape: w.shape(), Why: w.Why}
	var e *env
	for i := 0; i < setUps; i++ {
		if e != nil {
			e.close()
		}
		start := time.Now()
		var err error
		if e, err = setUp(w, nil); err != nil {
			return nil, err
		}
		if err := e.warmUp(o.seed, warmupCount(w, length)); err != nil {
			e.close()
			return nil, err
		}
		r.SetUpsS = append(r.SetUpsS, time.Since(start).Seconds())
	}
	defer e.close()
	m, err := e.measure(o.seed, length, nil, 0)
	if err != nil {
		return nil, err
	}
	r.EndToEnd = m.endToEnd()
	r.EndToEnd["setup_s"] = percentile(append([]float64(nil), r.SetUpsS...), 0.50)
	r.PerLayer = m.counters()
	lats := m.latencies()
	r.Valid, r.BeyondP95, r.P99Ms = len(lats), beyond(len(lats), 0.95), percentile(lats, 0.99)
	r.Attempted = m.attempted()
	var first error
	if r.Failed, first = m.failed(); first != nil {
		r.FirstErr = first.Error()
	}
	if r.BeyondP95 < 10 {
		r.Flags = append(r.Flags, fmt.Sprintf("only %d samples beyond p95", r.BeyondP95))
	}
	if lag := r.PerLayer["benchmark.generator_lag_p95_ms"]; lag > 1 {
		r.Flags = append(r.Flags, fmt.Sprintf("generator ran late: lag p95 %.3f ms > 1 ms", lag))
	}
	return r, nil
}

// runAll runs the selected workloads one after another and, with -trace 1,
// the ladder and each workload's traced re-run at a quarter of the length.
func runAll(selected []workload, o options) (*report, error) {
	rep := &report{
		OfRecord: !o.short, Seed: o.seed, Seconds: o.length().Seconds(), Traced: o.trace, Link: linkNote,
	}
	rep.Host.GOOS, rep.Host.GOARCH, rep.Host.Go = runtime.GOOS, runtime.GOARCH, runtime.Version()
	rep.Host.NumCPU, rep.Host.GOMAXPROCS = runtime.NumCPU(), runtime.GOMAXPROCS(0)
	for _, w := range selected {
		r, err := runWorkload(w, o)
		if err != nil {
			return nil, fmt.Errorf("workload %s: %w", w.Name, err)
		}
		rep.Workloads = append(rep.Workloads, r)
	}
	if !o.trace {
		return rep, nil
	}
	spans := &spanLog{}
	var err error
	if rep.Ladder, err = runLadder(o.seed, min(1, o.length().Seconds()/10), spans); err != nil {
		return nil, err
	}
	for i, w := range selected {
		r := rep.Workloads[i]
		shares, m, err := tracedRun(w, o.seed, o.length()/4, r.EndToEnd["election_p50_ms"], o.outDir, spans)
		if err != nil {
			return nil, fmt.Errorf("traced run of %s: %w", w.Name, err)
		}
		var first error
		r.TracedAttempted = m.attempted()
		if r.TracedFailed, first = m.failed(); first != nil && r.FirstErr == "" {
			r.FirstErr = "traced run: " + first.Error()
		}
		for k, v := range shares {
			r.PerLayer[k] = v
		}
		for k, v := range rep.Ladder {
			r.PerLayer[k] = v
		}
	}
	rep.Spans = spans.totals()
	if err := spans.write(filepath.Join(o.outDir, "bench-spans.json")); err != nil {
		return nil, err
	}
	return rep, nil
}

func boundText(d metricDef) string {
	switch {
	case d.Name == failedShare:
		return "bound 0 (absolute)"
	case d.Bound > 0:
		return fmt.Sprintf("bound %.0f%%", d.Bound*100)
	}
	return ""
}

func printMetrics(w io.Writer, defs []metricDef, vals map[string]float64, samples int) {
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			continue
		}
		n := ""
		if samples > 0 {
			n = fmt.Sprintf("n=%d", samples)
		}
		fmt.Fprintf(w, "    %-38s %16.6g %-6s %-6s %-8s %s\n", d.Name, v, d.Unit, d.Better, n, boundText(d))
	}
}

func (rep *report) print(w io.Writer) {
	record := "of record"
	if !rep.OfRecord {
		record = "NOT OF RECORD (-short is for smoke use only)"
	}
	fmt.Fprintf(w, "benchmark: seed %d, %.4g s per workload, GOMAXPROCS %d of %d CPUs, %s/%s %s — %s\n",
		rep.Seed, rep.Seconds, rep.Host.GOMAXPROCS, rep.Host.NumCPU, rep.Host.GOOS, rep.Host.GOARCH, rep.Host.Go, record)
	fmt.Fprintf(w, "%s; claim: none\n", rep.Link)
	for _, r := range rep.Workloads {
		fmt.Fprintf(w, "\nworkload %s — %s\n  why: %s\n", r.Name, r.Shape, r.Why)
		fmt.Fprintf(w, "  end-to-end, tracing off: %d attempted, %d failed; %d latency samples, %d beyond p95; p99 %.4g ms (information only)\n",
			r.Attempted, r.Failed, r.Valid, r.BeyondP95, r.P99Ms)
		printMetrics(w, endToEndDefs, r.EndToEnd, r.Valid)
		printMetrics(w, []metricDef{failedShareDef}, r.PerLayer, r.Attempted)
		fmt.Fprintf(w, "  per-layer, counters differenced around the run\n")
		printMetrics(w, counterDefs, r.PerLayer, r.Valid)
		if rep.Traced {
			fmt.Fprintf(w, "  per-layer, traced re-run at 1/4 length (shares are of each layer's recorded time)\n")
			fmt.Fprintf(w, "    (%d attempted, %d failed)\n", r.TracedAttempted, r.TracedFailed)
			printMetrics(w, traceDefs(), r.PerLayer, 0)
		}
		if r.FirstErr != "" {
			fmt.Fprintf(w, "  FIRST FAILURE: %s\n", r.FirstErr)
		}
		for _, f := range r.Flags {
			fmt.Fprintf(w, "  FLAG: %s\n", f)
		}
	}
	if rep.Ladder != nil {
		fmt.Fprintf(w, "\nladder — each layer measured from outside, tracing off\n")
		printMetrics(w, ladderDefs, rep.Ladder, 0)
		fmt.Fprintf(w, "\nbenchmark's own spans\n")
		for _, t := range rep.Spans {
			fmt.Fprintf(w, "    %-38s n=%-6d total %10.3f ms   self %10.3f ms\n", t.Name, t.Count, float64(t.TotalNs)/1e6, float64(t.SelfNs)/1e6)
		}
	}
}

func (rep *report) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "result.json"), append(buf, '\n'), 0o644)
}

// driverLine is the one JSON object the driver reads from the last line of
// standard output: the end-to-end metrics of a -trace 0 run, the per-layer
// metrics of a -trace 1 run.
func driverLine(r *workloadResult, trace bool) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, vals := endToEndDefs, r.EndToEnd
	if trace {
		defs, vals = perLayerDefs(), r.PerLayer
	}
	metrics := map[string]value{}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		metrics[d.Name] = value{v, d.Unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed+r.TracedFailed == 0, r.Attempted + r.TracedAttempted, r.Failed + r.TracedFailed, metrics})
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceN int
	name := fs.String("workload", "", "run one workload (default: all six, one after another)")
	fs.Int64Var(&o.seed, "seed", 1, "base seed; election i of a workload uses a splitmix of (seed, i)")
	fs.IntVar(&o.seconds, "seconds", recordSeconds, "measured seconds per workload (the default is the run of record)")
	fs.IntVar(&traceN, "trace", 0, "1 adds the per-layer metrics: the ladder and a traced re-run of each workload")
	fs.BoolVar(&o.short, "short", false, "quarter length, for smoke use only; the output is marked not of record")
	fs.StringVar(&o.outDir, "out", "out", "directory for result.json and the trace files")
	aa := fs.Bool("aa", false, "run the full set twice in fresh child processes and compare the two against the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || traceN < 0 || traceN > 1 || o.seconds < 1 {
		fmt.Fprintln(stderr, "benchmark: want -trace 0|1, -seconds >= 1 and no positional arguments")
		return 2
	}
	o.trace = traceN == 1
	selected := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			var names []string
			for _, w := range workloads {
				names = append(names, w.Name)
			}
			fmt.Fprintf(stderr, "benchmark: unknown workload %q (have %s)\n", *name, strings.Join(names, ", "))
			return 2
		}
		selected = []workload{w}
	}
	if *aa {
		return runAA(selected, o, stdout, stderr)
	}
	rep, err := runAll(selected, o)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	rep.print(stdout)
	if err := rep.write(o.outDir); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	failed := 0
	for _, r := range rep.Workloads {
		failed += r.Failed + r.TracedFailed
	}
	if len(selected) == 1 {
		line, err := driverLine(rep.Workloads[0], o.trace)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "benchmark: %d elections failed\n", failed)
		return 1
	}
	return 0
}
