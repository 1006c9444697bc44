// Command livesim runs leader elections on the real-concurrency goroutine
// backend and drives the parallel campaign engine: many independent
// elections fanned across a worker pool, with wall-clock latency percentiles
// and throughput — optionally under fault/latency injection scenarios
// (crash schedules, link-delay distributions, slow processors, reordering).
//
// Usage:
//
//	livesim -n 64 -runs 256                      # campaign at GOMAXPROCS workers
//	livesim -n 256 -runs 64 -algorithm tournament
//	livesim -n 64 -runs 256 -scan                # worker-scaling curve 1..GOMAXPROCS
//	livesim -n 32 -runs 128 -backend sim         # same campaign on the sim kernel
//	livesim -n 32 -runs 128 -transport tcp       # quorums over loopback TCP (electd)
//	livesim -n 32 -runs 128 -transport udp       # quorums over UDP datagrams (electd)
//	livesim -n 64 -runs 1 -v                     # one election, per-run detail
//
// Flight recorder (live backend only):
//
//	livesim -n 32 -runs 64 -transport tcp -trace-out trace.json
//	livesim -n 32 -runs 64 -trace-out t.json -trace-chrome t.chrome.json
//
// -trace-out records phase-level spans (client pool, transport, electd
// server) into a lock-free ring, prints the per-phase latency attribution
// table, and writes the trace file cmd/traceview reads; -trace-chrome also
// exports Chrome trace_event JSON for about://tracing. Tracing off (the
// default) leaves every hot path byte-identical to an untraced build.
//
// Scenario matrices (live backend only):
//
//	livesim -n 64 -runs 128 -scenarios all       # every preset scenario
//	livesim -n 64 -runs 128 -scenarios baseline,crash-minority,heavy-tail
//	livesim -n 64 -runs 128 -crashes 31 -crash-window 2ms   # custom crash campaign
//	livesim -n 64 -runs 128 -delay 100us -jitter 400us -tail 1.2
//
// Chaos verification grid (live backend only):
//
//	livesim -n 8 -chaos                          # fault.ChaosGrid × 6 seeds × backends
//	livesim -n 8 -chaos -chaos-seeds 12 -chaos-out chaos.json
//
// The chaos grid is four campaign matrices (chan, tcp, udp, tcp-shared) and
// reports the campaign engine's verdict on every election — unique winner
// among the survivors, or typed no-quorum aborts only on clients the fault
// plan provably starved — exiting nonzero on any invalid run. Link-only
// scenarios also run multiplexed on a shared electd cluster, three
// scenarios' elections at a time (blast-radius accounting). -chaos-out
// writes the machine-readable JSON report CI archives.
//
// A campaign runs all of its elections under the same verdict; if any is
// invalid, livesim exits nonzero naming the first violation.
//
// Algorithms: poisonpill (default), tournament. Backends: live (default),
// sim. Transports (live backend): chan (default, in-process mailboxes), tcp
// (electd quorum servers over loopback TCP sockets; the campaign shares one
// multiplexed server set), udp (the same servers over loopback datagrams
// with client-side retransmit-and-dedup). Preset scenarios: baseline,
// crash-1, crash-minority, lan, wan, heavy-tail, slow-third, reorder,
// chaos.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/fault"
	"repro/internal/live"
	"repro/internal/trace"
)

func main() {
	var (
		n       = flag.Int("n", 64, "system size (total processors)")
		k       = flag.Int("k", 0, "participants (0 = all processors)")
		runs    = flag.Int("runs", 256, "elections per campaign (per scenario)")
		workers = flag.Int("workers", 0, "worker-pool size (0 = GOMAXPROCS)")
		seed    = flag.Int64("seed", 1, "base seed (per-run seeds are sharded from it)")
		algo    = flag.String("algorithm", "poisonpill", "poisonpill | tournament")
		backend = flag.String("backend", "live", "live | sim")
		trans   = flag.String("transport", "chan", "chan | tcp | udp (live backend comm substrate)")
		scan    = flag.Bool("scan", false, "sweep worker counts 1,2,4,...,GOMAXPROCS and print the scaling curve")
		verbose = flag.Bool("v", false, "run additional individual live elections first and print their per-run details")

		scenarios = flag.String("scenarios", "", "comma-separated preset scenarios, or \"all\" (live backend)")

		traceOut    = flag.String("trace-out", "", "record phase-level spans and write the trace file (breakdown + raw spans) to this path (live backend)")
		traceChrome = flag.String("trace-chrome", "", "also export the recorded spans in Chrome trace_event format to this path")
		traceCap    = flag.Int("trace-cap", 1<<20, "flight-recorder ring capacity in spans (rounded up to a power of two)")

		chaos      = flag.Bool("chaos", false, "run the chaos verification grid (fault.ChaosGrid × seeds × backends) and validate every election")
		chaosSeeds = flag.Int("chaos-seeds", 6, "seeds per chaos grid cell")
		chaosOut   = flag.String("chaos-out", "", "write the chaos grid's machine-readable JSON report to this path")

		crashes     = flag.Int("crashes", 0, "custom scenario: processors to crash (≤ ⌈n/2⌉−1, -1 = max)")
		crashWindow = flag.Duration("crash-window", 0, "custom scenario: crash times are uniform in [0, window)")
		delay       = flag.Duration("delay", 0, "custom scenario: fixed link-delay floor per message")
		jitter      = flag.Duration("jitter", 0, "custom scenario: uniform link-delay jitter width")
		tail        = flag.Float64("tail", 0, "custom scenario: Pareto tail index α (>1) — makes the link delay heavy-tailed")
		slow        = flag.Int("slow", 0, "custom scenario: processors to throttle (-1 = ⌈n/3⌉)")
		slowDelay   = flag.Duration("slow-delay", 0, "custom scenario: extra delay per op on throttled processors")
		reorder     = flag.Float64("reorder", 0, "custom scenario: probability a message takes an extra reorder delay")
	)
	flag.Parse()

	custom, err := buildCustomScenario(*crashes, *crashWindow, *delay, *jitter, *tail, *slow, *slowDelay, *reorder)
	if err != nil {
		fmt.Fprintln(os.Stderr, "livesim:", err)
		os.Exit(1)
	}
	cfg := config{
		n: *n, k: *k, runs: *runs, workers: *workers, seed: *seed,
		algo: *algo, backend: *backend, transport: *trans, scan: *scan, verbose: *verbose,
		scenarios: *scenarios, custom: custom,
		traceOut: *traceOut, traceChrome: *traceChrome, traceCap: *traceCap,
	}
	if *chaos {
		if err := runChaos(cfg, *chaosSeeds, *chaosOut); err != nil {
			fmt.Fprintln(os.Stderr, "livesim:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "livesim:", err)
		os.Exit(1)
	}
}

type config struct {
	n, k, runs, workers int
	seed                int64
	algo, backend       string
	transport           string
	scan, verbose       bool
	scenarios           string
	custom              *fault.Scenario

	traceOut, traceChrome string
	traceCap              int
}

// buildCustomScenario assembles a Scenario from the individual injection
// flags; nil when none is set. Companion flags that would otherwise be
// silently dropped (-tail without a delay, -crash-window without -crashes,
// -slow-delay without -slow) are errors: a campaign must never run a
// narrower scenario than the command line asked for.
func buildCustomScenario(crashes int, window, delay, jitter time.Duration, tail float64, slow int, slowDelay time.Duration, reorder float64) (*fault.Scenario, error) {
	sc := fault.Scenario{Name: "custom", Crashes: crashes, CrashWindow: window}
	if window > 0 && crashes == 0 {
		return nil, fmt.Errorf("-crash-window has no effect without -crashes")
	}
	if delay > 0 || jitter > 0 {
		sc.Link = fault.Dist{Kind: fault.Uniform, Base: delay, Jitter: jitter}
		if tail > 0 {
			sc.Link = fault.Dist{Kind: fault.Pareto, Base: delay, Jitter: jitter, Alpha: tail}
		}
	} else if tail > 0 {
		return nil, fmt.Errorf("-tail needs a link delay to shape: set -delay and/or -jitter")
	}
	if slow != 0 {
		sc.SlowProcs = slow
		d := slowDelay
		if d == 0 {
			d = 500 * time.Microsecond
		}
		sc.Slow = fault.Dist{Kind: fault.Uniform, Base: d / 2, Jitter: d}
	} else if slowDelay > 0 {
		return nil, fmt.Errorf("-slow-delay has no effect without -slow")
	}
	if reorder > 0 {
		sc.ReorderProb = reorder
		sc.Reorder = fault.Dist{Kind: fault.Uniform, Jitter: 500 * time.Microsecond}
	}
	if !sc.Active() {
		return nil, nil
	}
	return &sc, nil
}

// resolveScenarios expands the -scenarios flag (and the custom flags) into
// the matrix to run; nil means no matrix — plain campaign mode.
func resolveScenarios(cfg config) ([]fault.Scenario, error) {
	var out []fault.Scenario
	switch cfg.scenarios {
	case "":
	case "all":
		out = fault.Presets()
	default:
		for _, name := range strings.Split(cfg.scenarios, ",") {
			name = strings.TrimSpace(name)
			sc, ok := fault.Lookup(name)
			if !ok {
				return nil, fmt.Errorf("unknown scenario %q (available: %s, or \"all\")",
					name, strings.Join(fault.Names(), ", "))
			}
			out = append(out, sc)
		}
	}
	if cfg.custom != nil {
		out = append(out, *cfg.custom)
	}
	return out, nil
}

func run(cfg config) error {
	ccfg := campaign.Config{
		Runs: cfg.runs, Workers: cfg.workers, N: cfg.n, K: cfg.k, BaseSeed: cfg.seed,
		Algorithm: live.Algorithm(cfg.algo), Backend: campaign.Backend(cfg.backend),
		Transport: live.Transport(cfg.transport),
	}
	var rec *trace.Recorder
	if cfg.traceOut != "" || cfg.traceChrome != "" {
		if campaign.Backend(cfg.backend) != campaign.BackendLive {
			return fmt.Errorf("-trace-out records the live backend's flight recorder; backend %q has no live spans", cfg.backend)
		}
		rec = trace.NewRecorder(cfg.traceCap)
		ccfg.Trace = rec
	}
	scenarios, err := resolveScenarios(cfg)
	if err != nil {
		return err
	}

	if cfg.verbose && campaign.Backend(cfg.backend) == campaign.BackendLive {
		detail := scenarios
		if len(detail) == 0 {
			detail = []fault.Scenario{{}} // fault-free
		}
		for _, sc := range detail {
			if err := printRuns(cfg, sc); err != nil {
				return err
			}
		}
	}

	if len(scenarios) > 0 {
		if cfg.scan {
			return fmt.Errorf("-scan and -scenarios are mutually exclusive (the matrix shares one pool)")
		}
		m, err := campaign.RunMatrix(ccfg, scenarios)
		if err != nil {
			return err
		}
		printMatrix(m)
		if rec != nil {
			// The matrix shares one recorder, so the trace file aggregates
			// every scenario's spans; the first row's latency anchors the
			// reconciliation line.
			s := m.Scenarios[0]
			return writeTrace(cfg, rec, m.Runs, s.Latency.Mean, s.MeanRounds, s.MeanMsgs)
		}
		return nil
	}

	if cfg.scan {
		return printScan(ccfg)
	}
	rep, err := campaign.Run(ccfg)
	if err != nil {
		return err
	}
	printHeader()
	printReport(rep)
	printShape(rep.Shape)
	if rec != nil {
		return writeTrace(cfg, rec, rep.Runs, rep.Latency.Mean, rep.MeanRounds, rep.MeanMsgs)
	}
	return nil
}

// printShape prints the paper-shape reconciliation of a campaign report:
// measured mean rounds and messages against the O(log* k) and O(kn)
// predictions of Theorem A.5.
func printShape(s campaign.Shape) {
	if s.K == 0 {
		return
	}
	fmt.Printf("shape: rounds %.2f vs log*k+2 = %d (%.2fx), msgs %.1f vs kn = %d (%.2fx)\n",
		s.RoundsRatio*float64(s.LogStarK+2), s.LogStarK+2, s.RoundsRatio,
		s.MsgsRatio*float64(s.KN), s.KN, s.MsgsRatio)
}

// writeTrace snapshots the flight recorder, writes the trace file and the
// optional Chrome export, and prints the attribution table.
func writeTrace(cfg config, rec *trace.Recorder, runs int, meanLat time.Duration, meanRounds, meanMsgs float64) error {
	k := cfg.k
	if k == 0 {
		k = cfg.n
	}
	f := &trace.File{
		Meta: trace.Meta{
			Name:      fmt.Sprintf("%s/%s/n=%d", cfg.algo, cfg.transport, cfg.n),
			Transport: cfg.transport, N: cfg.n, K: k,
			Elections: runs, Participants: k,
			MeanElectionSec: meanLat.Seconds(),
			MeanRounds:      meanRounds, MeanMsgs: meanMsgs,
		},
		Spans: rec.Spans(),
	}
	f.Breakdown = trace.ComputeBreakdown(f.Spans, rec.Dropped())
	fmt.Println()
	f.WriteTable(os.Stdout)
	if cfg.traceOut != "" {
		if err := trace.WriteFile(cfg.traceOut, f); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		fmt.Printf("trace written to %s (%d spans)\n", cfg.traceOut, len(f.Spans))
	}
	if cfg.traceChrome != "" {
		out, err := os.Create(cfg.traceChrome)
		if err != nil {
			return fmt.Errorf("write chrome trace: %w", err)
		}
		defer out.Close()
		if err := f.WriteChrome(out); err != nil {
			return fmt.Errorf("write chrome trace: %w", err)
		}
		fmt.Printf("chrome trace written to %s (load in about://tracing)\n", cfg.traceChrome)
	}
	return nil
}

// printRuns executes each election individually under one scenario and
// prints its detail line, labelled with the scenario's name.
func printRuns(cfg config, sc fault.Scenario) error {
	name := sc.Name
	if name == "" {
		name = "fault-free"
	}
	for i := 0; i < cfg.runs; i++ {
		res, err := live.Elect(live.Config{
			N: cfg.n, K: cfg.k, Seed: cfg.seed + int64(i),
			Algorithm: live.Algorithm(cfg.algo), Scenario: sc,
			Transport: live.Transport(cfg.transport),
		})
		if err != nil {
			return fmt.Errorf("%s run %d: %w", name, i, err)
		}
		fmt.Printf("scenario=%-16s run=%-4d winner=%-4d rounds=%-3d time=%-4d messages=%-8d bytes=%-8d crashed=%-3d wall=%v\n",
			name, i, res.Winner, res.Rounds, res.Time, res.Messages, res.Bytes, len(res.Crashed),
			res.Elapsed.Round(time.Microsecond))
	}
	return nil
}

// printScan sweeps power-of-two worker counts up to GOMAXPROCS.
func printScan(cfg campaign.Config) error {
	max := runtime.GOMAXPROCS(0)
	var counts []int
	for w := 1; w < max; w *= 2 {
		counts = append(counts, w)
	}
	counts = append(counts, max)
	reps, err := campaign.ScanWorkers(cfg, counts)
	if err != nil {
		return err
	}
	printHeader()
	for _, rep := range reps {
		printReport(rep)
	}
	if len(reps) > 1 {
		base := reps[0].Throughput
		last := reps[len(reps)-1]
		fmt.Printf("\nscaling: %.2fx throughput at %d workers over 1 worker\n",
			last.Throughput/base, last.Workers)
	}
	return nil
}

func printHeader() {
	fmt.Printf("%-8s %-6s %-10s %-12s %-10s %-10s %-10s %-10s %-8s\n",
		"workers", "runs", "elapsed", "elect/s", "p50", "p90", "p99", "max", "time")
}

func printReport(rep campaign.Report) {
	fmt.Printf("%-8d %-6d %-10v %-12.1f %-10v %-10v %-10v %-10v %-8.1f\n",
		rep.Workers, rep.Runs, rep.Elapsed.Round(time.Millisecond), rep.Throughput,
		rep.Latency.P50.Round(time.Microsecond), rep.Latency.P90.Round(time.Microsecond),
		rep.Latency.P99.Round(time.Microsecond), rep.Latency.Max.Round(time.Microsecond),
		rep.MeanTime)
}

// printMatrix renders one row per scenario: latency percentiles, the
// paper's time metric and the election-validity counts.
func printMatrix(m campaign.MatrixReport) {
	fmt.Printf("%-16s %-6s %-10s %-10s %-10s %-10s %-8s %-8s %-7s %-8s\n",
		"scenario", "runs", "p50", "p90", "p99", "max", "time", "elected", "no-win", "crashed")
	for _, row := range m.Scenarios {
		name := row.Scenario.Name
		if name == "" {
			name = "(fault-free)"
		}
		fmt.Printf("%-16s %-6d %-10v %-10v %-10v %-10v %-8.1f %-8d %-7d %-8d\n",
			name, row.Runs,
			row.Latency.P50.Round(time.Microsecond), row.Latency.P90.Round(time.Microsecond),
			row.Latency.P99.Round(time.Microsecond), row.Latency.Max.Round(time.Microsecond),
			row.MeanTime, row.Elected, row.WinnerCrashed, row.Crashed)
	}
	fmt.Printf("\nmatrix: %d elections, %d workers, %v elapsed, %.1f elect/s\n",
		m.Runs, m.Workers, m.Elapsed.Round(time.Millisecond), m.Throughput)
}
