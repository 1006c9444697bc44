package repro_test

// This file holds the root package's `go test -bench` benchmarks:
//
//   - the paper's evaluation, one benchmark per table (T1–T13, ablations
//     A1–A2) and per claim-figure (F1–F3), each running its experiment at
//     Quick scale per iteration and reporting the headline quantity as a
//     custom metric — ns/op there is only the experiment's cost
//     (docs/PAPER_MAP.md maps the paper's claims to them);
//   - micro-benchmarks of the simulation substrate;
//   - wall-clock benchmarks of the live goroutine backend;
//   - T15, the transport × GOMAXPROCS × concurrency contention sweep.
//
// Run with:
//
//	go test -bench=. -benchmem
//
// None of them writes a file or gates anything; the benchmark of record is
// the separate module under benchmark/ (benchmark/README.md).

import (
	"fmt"
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro"
	"repro/internal/campaign"
	"repro/internal/expt"
	"repro/internal/fault"
	"repro/internal/live"
	"repro/internal/quorum"
	"repro/internal/sim"
)

// benchScale keeps every experiment benchmark in seconds; the full-scale
// tables are `reproduce -scale standard -markdown` output.
var benchScale = expt.Scale{Seeds: 2, MaxN: 64}

// runTable executes one experiment generator per iteration.
func runTable(b *testing.B, gen func(expt.Scale) *expt.Table) *expt.Table {
	b.Helper()
	var tab *expt.Table
	for i := 0; i < b.N; i++ {
		tab = gen(benchScale)
	}
	if len(tab.Rows) == 0 {
		b.Fatal("experiment produced no rows")
	}
	return tab
}

// lastField parses the numeric cell at column col of the last row matching
// the given prefix filter (empty filter = last row).
func lastField(b *testing.B, tab *expt.Table, col int, match func([]string) bool) float64 {
	b.Helper()
	for i := len(tab.Rows) - 1; i >= 0; i-- {
		if match == nil || match(tab.Rows[i]) {
			v, err := strconv.ParseFloat(tab.Rows[i][col], 64)
			if err != nil {
				b.Fatalf("parse %q: %v", tab.Rows[i][col], err)
			}
			return v
		}
	}
	b.Fatal("no matching row")
	return 0
}

func BenchmarkT1PoisonPillSurvivors(b *testing.B) {
	tab := runTable(b, expt.T1PoisonPillSurvivors)
	// Mean survivors per √n at the largest size under the sequential
	// (worst-case) schedule: Claims 3.1+3.2 predict a Θ(1) ratio.
	ratio := lastField(b, tab, 6, func(r []string) bool { return r[1] == "sequential" })
	b.ReportMetric(ratio, "survivors/sqrt(n)")
}

func BenchmarkT2HetSurvivors(b *testing.B) {
	tab := runTable(b, expt.T2HetSurvivors)
	ratio := lastField(b, tab, 6, func(r []string) bool { return r[1] == "sequential" })
	b.ReportMetric(ratio, "survivors/log2(k)")
}

func BenchmarkT3ElectionTime(b *testing.B) {
	tab := runTable(b, expt.T3ElectionTime)
	pp := lastField(b, tab, 3, func(r []string) bool {
		return r[1] == string(expt.AlgoPoisonPill) && r[2] == "lockstep"
	})
	tn := lastField(b, tab, 3, func(r []string) bool {
		return r[1] == string(expt.AlgoTournament) && r[2] == "lockstep"
	})
	b.ReportMetric(pp, "poisonpill-time")
	b.ReportMetric(tn, "tournament-time")
	b.ReportMetric(tn/pp, "speedup")
}

func BenchmarkT4ElectionMessages(b *testing.B) {
	tab := runTable(b, expt.T4ElectionMessages)
	b.ReportMetric(lastField(b, tab, 4, nil), "messages/(kn)")
}

func BenchmarkT5Adaptivity(b *testing.B) {
	tab := runTable(b, expt.T5Adaptivity)
	b.ReportMetric(lastField(b, tab, 2, nil), "time-at-max-k")
}

func BenchmarkT6RenamingMessages(b *testing.B) {
	tab := runTable(b, expt.T6RenamingMessages)
	ratio := lastField(b, tab, 3, func(r []string) bool { return r[1] == string(expt.AlgoRenaming) })
	b.ReportMetric(ratio, "messages/n^2")
}

func BenchmarkT7RenamingTime(b *testing.B) {
	tab := runTable(b, expt.T7RenamingTime)
	t := lastField(b, tab, 3, func(r []string) bool { return r[1] == string(expt.AlgoRenaming) })
	b.ReportMetric(t, "renaming-time")
}

func BenchmarkT8LowerBound(b *testing.B) {
	tab := runTable(b, expt.T8LowerBound)
	b.ReportMetric(lastField(b, tab, 4, nil), "messages/(kn)")
}

func BenchmarkT9RoundDecay(b *testing.B) {
	tab := runTable(b, expt.T9RoundDecay)
	b.ReportMetric(lastField(b, tab, 2, nil), "worst-max-round")
}

func BenchmarkT10NaiveVsPoisonPill(b *testing.B) {
	tab := runTable(b, expt.T10NaiveVsPoisonPill)
	naive := lastField(b, tab, 3, func(r []string) bool { return r[1] == string(expt.AlgoNaiveSift) })
	pill := lastField(b, tab, 3, func(r []string) bool { return r[1] == string(expt.AlgoBasicSift) })
	b.ReportMetric(naive, "naive-survivor-fraction")
	b.ReportMetric(pill, "poisonpill-survivor-fraction")
}

func BenchmarkT11FaultTolerance(b *testing.B) {
	tab := runTable(b, expt.T11FaultTolerance)
	b.ReportMetric(lastField(b, tab, 4, nil), "violations")
}

func BenchmarkF1HeadlineCurve(b *testing.B) {
	tab := runTable(b, expt.F1HeadlineCurve)
	b.ReportMetric(lastField(b, tab, 3, nil), "tournament/poisonpill")
}

func BenchmarkF2SurvivorHistogram(b *testing.B) {
	tab := runTable(b, expt.F2SurvivorHistogram)
	b.ReportMetric(lastField(b, tab, 4, func(r []string) bool { return r[0] == string(expt.AlgoHetSift) }), "het-mean-survivors")
}

func BenchmarkF3RenamingDistributions(b *testing.B) {
	tab := runTable(b, expt.F3RenamingDistributions)
	b.ReportMetric(lastField(b, tab, 4, nil), "max-trials")
}

// --- substrate micro-benchmarks ------------------------------------------

// BenchmarkKernelRoundtrip measures one message round-trip (send, deliver,
// step, reply, deliver, step) through the kernel.
func BenchmarkKernelRoundtrip(b *testing.B) {
	type echo struct{}
	k := sim.NewKernel(sim.Config{N: 2, Seed: 1, Budget: int64(b.N)*16 + 1024})
	k.SetService(1, serviceFunc(func(from sim.ProcID, payload any) (any, bool) {
		return echo{}, true
	}))
	got := 0
	k.SetService(0, serviceFunc(func(from sim.ProcID, payload any) (any, bool) {
		got++
		return nil, false
	}))
	k.Spawn(0, func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Send(1, echo{})
			want := i + 1
			p.Await(func() bool { return got >= want })
		}
	})
	b.ResetTimer()
	if _, err := k.Run(nil); err != nil {
		b.Fatal(err)
	}
}

// serviceFunc adapts a function to sim.Service.
type serviceFunc func(sim.ProcID, any) (any, bool)

func (f serviceFunc) HandleMessage(from sim.ProcID, payload any) (any, bool) {
	return f(from, payload)
}

// BenchmarkQuorumPropagateCollect measures one propagate + collect pair over
// a 32-processor system.
func BenchmarkQuorumPropagateCollect(b *testing.B) {
	const n = 32
	k := sim.NewKernel(sim.Config{N: n, Seed: 1, Budget: int64(b.N)*int64(n)*8 + 4096})
	stores := quorum.InstallStores(k)
	k.Spawn(0, func(p *sim.Proc) {
		c := quorum.NewComm(p, stores[0])
		for i := 0; i < b.N; i++ {
			c.Propagate("bench", i)
			c.Collect("bench")
		}
	})
	b.ResetTimer()
	if _, err := k.Run(nil); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkElection64 measures one complete 64-processor election.
func BenchmarkElection64(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := repro.Elect(
			repro.WithN(64),
			repro.WithSchedule(repro.LockStep),
			repro.WithSeed(int64(i)),
		); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTournament64 measures the baseline on the same workload.
func BenchmarkTournament64(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := repro.Elect(
			repro.WithN(64),
			repro.WithAlgorithm(repro.Tournament),
			repro.WithSchedule(repro.LockStep),
			repro.WithSeed(int64(i)),
		); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRenaming32 measures one complete 32-processor renaming.
func BenchmarkRenaming32(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := repro.Rename(
			repro.WithN(32),
			repro.WithSchedule(repro.LockStep),
			repro.WithSeed(int64(i)),
		); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkT12TimeMetric(b *testing.B) {
	tab := runTable(b, expt.T12TimeMetric)
	b.ReportMetric(lastField(b, tab, 4, nil), "makespan/calls")
}

func BenchmarkT13RoundDecaySeries(b *testing.B) {
	tab := runTable(b, expt.T13RoundDecaySeries)
	b.ReportMetric(float64(len(tab.Rows)), "schedules")
}

func BenchmarkA1BiasAblation(b *testing.B) {
	tab := runTable(b, expt.A1BiasAblation)
	paper := lastField(b, tab, 2, func(r []string) bool { return r[1] == "1/√n (paper)" })
	b.ReportMetric(paper, "paper-bias-survivors")
}

// --- live backend (wall-clock) benchmarks --------------------------------

// BenchmarkLiveElectionWallClock measures the wall-clock latency of one
// complete PoisonPill election on the real-concurrency goroutine backend at
// several system sizes. ns/op is the election latency; the custom metrics
// carry the paper's complexity measures for cross-checking against the sim
// backend (T3/T9).
func BenchmarkLiveElectionWallClock(b *testing.B) {
	for _, n := range []int{8, 64, 256} {
		b.Run("n="+strconv.Itoa(n), func(b *testing.B) {
			var rounds, calls float64
			for i := 0; i < b.N; i++ {
				res, err := live.Elect(live.Config{N: n, Seed: int64(i)})
				if err != nil {
					b.Fatal(err)
				}
				rounds += float64(res.Rounds)
				calls += float64(res.Time)
			}
			b.ReportMetric(rounds/float64(b.N), "rounds")
			b.ReportMetric(calls/float64(b.N), "comm-calls")
		})
	}
}

// BenchmarkLiveCampaignThroughput measures elections/second through the
// parallel campaign engine at one worker and at GOMAXPROCS workers. The
// ratio between the two sub-benchmarks' elections/s metrics is the
// multi-core speedup; on a multi-core machine it exceeds 1 because campaign
// runs are independent and share no state.
func BenchmarkLiveCampaignThroughput(b *testing.B) {
	workers := []int{1}
	if g := runtime.GOMAXPROCS(0); g > 1 {
		workers = append(workers, g)
	}
	const runsPerIter = 32
	for _, w := range workers {
		b.Run("workers="+strconv.Itoa(w), func(b *testing.B) {
			var tput float64
			for i := 0; i < b.N; i++ {
				rep, err := campaign.Run(campaign.Config{
					Runs: runsPerIter, Workers: w, N: 32, BaseSeed: int64(i),
				})
				if err != nil {
					b.Fatal(err)
				}
				tput += rep.Throughput
			}
			b.ReportMetric(tput/float64(b.N), "elections/s")
		})
	}
}

// BenchmarkLiveElectionCrashFaults measures a live election with the full
// crash budget ⌈n/2⌉−1 firing inside a tight window, so most crashes land
// mid-protocol. ns/op is the degraded-mode election latency; the custom
// metrics report how many participants each run lost and how often a
// surviving winner still emerged (a winnerless run means the linearized
// winner itself crashed — allowed by Theorem A.5, never more than one
// winner).
func BenchmarkLiveElectionCrashFaults(b *testing.B) {
	sc := fault.Scenario{
		Name:        "bench-crash",
		Crashes:     fault.CrashMax,
		CrashWindow: 500 * time.Microsecond,
	}
	for _, n := range []int{16, 64} {
		b.Run("n="+strconv.Itoa(n), func(b *testing.B) {
			var crashed, elected float64
			for i := 0; i < b.N; i++ {
				res, err := live.Elect(live.Config{N: n, Seed: int64(i), Scenario: sc})
				if err != nil {
					b.Fatal(err)
				}
				crashed += float64(len(res.Crashed))
				if res.Winner >= 0 {
					elected++
				}
			}
			b.ReportMetric(crashed/float64(b.N), "crashed/run")
			b.ReportMetric(elected/float64(b.N), "elected-frac")
		})
	}
}

// BenchmarkLiveElectionHeavyTail measures a live election under
// Pareto-distributed link latency (α = 1.2): most messages are fast, a few
// are extreme stragglers. ns/op captures the wall-clock cost of the tail;
// the comm-calls metric shows the paper's time metric is latency-blind —
// quorums wait only for the fastest majority, so the O(log* k) call count
// matches the fault-free runs even as wall-clock latency balloons.
func BenchmarkLiveElectionHeavyTail(b *testing.B) {
	sc := fault.HeavyTail()
	for _, n := range []int{16, 64} {
		b.Run("n="+strconv.Itoa(n), func(b *testing.B) {
			var calls, rounds float64
			for i := 0; i < b.N; i++ {
				res, err := live.Elect(live.Config{N: n, Seed: int64(i), Scenario: sc})
				if err != nil {
					b.Fatal(err)
				}
				calls += float64(res.Time)
				rounds += float64(res.Rounds)
			}
			b.ReportMetric(calls/float64(b.N), "comm-calls")
			b.ReportMetric(rounds/float64(b.N), "rounds")
		})
	}
}

func BenchmarkA2HetBiasAblation(b *testing.B) {
	tab := runTable(b, expt.A2HetBiasAblation)
	paper := lastField(b, tab, 3, func(r []string) bool { return r[1] == "ln l/l (paper)" && r[2] == "sequential" })
	fair := lastField(b, tab, 3, func(r []string) bool { return r[1] == "1/2" && r[2] == "sequential" })
	b.ReportMetric(paper, "paper-bias-survivors")
	b.ReportMetric(fair, "fair-bias-survivors")
}

// --- contention sweep ----------------------------------------------------

// baseProcs is the ambient GOMAXPROCS of the run, captured at package init
// before T15's procs sweep moves it.
var baseProcs = runtime.GOMAXPROCS(0)

// BenchmarkT15ContentionScaling measures how elections/second scales with
// the number of elections in flight at once, on every comm substrate: the
// campaign engine runs conc workers over a shared system pool (chan) or a
// shared electd server set plus the system pool (tcp, udp), so every added
// level of concurrency lands on the same sharded server maps, sharded
// client call table and recycled Systems. allocs/election is the pooling
// metric: it must stay flat — or fall — as concurrency grows. Each
// iteration runs 2·conc elections so every worker sustains pipeline
// pressure rather than a single wave.
//
// The sweep repeats at 1×, 2× and 4× the ambient GOMAXPROCS (`procs=<p>`):
// the lock-free register store only shows its worth when several OS threads
// contend on the same cells and published snapshots, and an oversubscribed
// GOMAXPROCS surfaces convoy effects (a descheduled lock holder stalls every
// waiter; a descheduled lock-free reader stalls nobody) even on one core.
// docs/BENCH.md explains how to read the surface.
func BenchmarkT15ContentionScaling(b *testing.B) {
	for _, tr := range []live.Transport{live.TransportChan, live.TransportTCP, live.TransportUDP} {
		for _, mult := range []int{1, 2, 4} {
			procs := mult * baseProcs
			for _, conc := range []int{1, 4, 16, 64} {
				b.Run(fmt.Sprintf("transport=%s/procs=%d/conc=%d", tr, procs, conc), func(b *testing.B) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					runs := 2 * conc
					var tput float64
					var before, after runtime.MemStats
					runtime.GC()
					runtime.ReadMemStats(&before)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						rep, err := campaign.Run(campaign.Config{
							Runs: runs, Workers: conc, N: 16, BaseSeed: int64(i),
							Transport: tr,
						})
						if err != nil {
							b.Fatal(err)
						}
						tput += rep.Throughput
					}
					b.StopTimer()
					runtime.ReadMemStats(&after)
					b.ReportMetric(tput/float64(b.N), "elections/s")
					b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N*runs), "allocs/election")
				})
			}
		}
	}
}
