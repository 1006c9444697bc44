package repro_test

// This file holds the root package's one `go test -bench` benchmark: T15,
// the transport × GOMAXPROCS × concurrency contention sweep.
//
// Run with:
//
//	go test -run=NONE -bench T15Contention -benchtime 1x .
//
// It writes no file and gates nothing; the benchmark of record is the
// separate module under benchmark/ (benchmark/README.md), and the paper's
// tables are `reproduce`'s.

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/campaign"
	"repro/internal/live"
)

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
