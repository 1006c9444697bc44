// Command livesim drives the parallel campaign engine: many independent
// live elections (real goroutines, wall-clock time) fanned across a worker
// pool, with latency percentiles and throughput — optionally under the
// fault/latency scenarios of internal/fault (crash schedules, link-delay
// distributions, slow processors, reordering, partitions).
//
// Usage:
//
//	livesim -n 64 -runs 256                      # campaign at GOMAXPROCS workers
//	livesim -n 256 -runs 64 -algorithm tournament
//	livesim -n 32 -runs 128 -transport tcp       # quorums over loopback TCP (electd)
//	livesim -n 32 -runs 128 -transport udp       # quorums over UDP datagrams (electd)
//
// Flight recorder:
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
// Scenario matrices:
//
//	livesim -n 64 -runs 128 -scenarios all       # every preset scenario
//	livesim -n 64 -runs 128 -scenarios baseline,crash-minority,heavy-tail
//	livesim -n 64 -runs 128 -scenarios slow-third,reorder
//
// Chaos verification grid:
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
// Algorithms: poisonpill (default), tournament. Transports: chan (default,
// in-process mailboxes), tcp (electd quorum servers over loopback TCP
// sockets; the campaign shares one multiplexed server set), udp (the same
// servers over loopback datagrams with client-side retransmit-and-dedup).
// Preset scenarios: baseline, crash-1, crash-minority, lan, wan,
// heavy-tail, slow-third, reorder, chaos, partition-heal,
// partition-minority, partition-majority, crash-recovery, flaky,
// flaky-asym, chaos-recovery.
package main

import (
	"flag"
	"fmt"
	"os"
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
		trans   = flag.String("transport", "chan", "chan | tcp | udp (comm substrate)")

		scenarios = flag.String("scenarios", "", "comma-separated preset scenarios, or \"all\"")

		traceOut    = flag.String("trace-out", "", "record phase-level spans and write the trace file (breakdown + raw spans) to this path")
		traceChrome = flag.String("trace-chrome", "", "also export the recorded spans in Chrome trace_event format to this path")
		traceCap    = flag.Int("trace-cap", 1<<20, "flight-recorder ring capacity in spans (rounded up to a power of two)")

		chaos      = flag.Bool("chaos", false, "run the chaos verification grid (fault.ChaosGrid × seeds × backends) and validate every election")
		chaosSeeds = flag.Int("chaos-seeds", 6, "seeds per chaos grid cell")
		chaosOut   = flag.String("chaos-out", "", "write the chaos grid's machine-readable JSON report to this path")
	)
	flag.Parse()

	cfg := config{
		n: *n, k: *k, runs: *runs, workers: *workers, seed: *seed,
		algo: *algo, transport: *trans, scenarios: *scenarios,
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
	algo, transport     string
	scenarios           string

	traceOut, traceChrome string
	traceCap              int
}

// resolveScenarios expands the -scenarios flag into the matrix to run; nil
// means no matrix — plain campaign mode.
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
	return out, nil
}

func run(cfg config) error {
	ccfg := campaign.Config{
		Runs: cfg.runs, Workers: cfg.workers, N: cfg.n, K: cfg.k, BaseSeed: cfg.seed,
		Algorithm: live.Algorithm(cfg.algo), Transport: live.Transport(cfg.transport),
	}
	var rec *trace.Recorder
	if cfg.traceOut != "" || cfg.traceChrome != "" {
		rec = trace.NewRecorder(cfg.traceCap)
		ccfg.Trace = rec
	}
	scenarios, err := resolveScenarios(cfg)
	if err != nil {
		return err
	}

	if len(scenarios) > 0 {
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
