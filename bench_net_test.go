package repro_test

// Network-subsystem benchmarks: T13 compares election latency over loopback
// TCP (electd quorum servers, wire-codec frames, real sockets) against the
// in-process channel substrate; T14 measures the throughput of campaigns
// multiplexed onto one shared electd server set; T15 sweeps the number of
// concurrent elections on both substrates — the contention-scaling curve
// the sharded electd maps, the sharded client pool and the live SystemPool
// exist for. All run the batched, pooled hot path (T13/T15 add
// flight-recorder-enabled "traced" variants whose traced/untraced metric
// ratios CI gates with benchgate -ratio). Their headline metrics are
// additionally emitted to BENCH_net.json — the network perf trajectory the
// CI bench job gates on (docs/BENCH.md) — regenerated by:
//
//	go test -run=NONE -bench 'T13Transport|T14Electd|T15Contention' .
//
// The file is keyed by host profile: {"profiles": [{"host": {cores,
// gomaxprocs, goos, goarch}, "metrics": [...], "phases": [...]}]}, where
// "metrics" holds the flat name/value rows benchgate compares and "phases"
// the internal/trace attribution baselines (per-phase latency breakdowns
// captured by the traced variants, recorded as context for perf PRs rather
// than gated numbers). Profile keying exists because contention numbers
// are host-shaped: a single-core container's T15 curve and a many-core
// runner's curve must never be compared, so benchgate selects the baseline
// profile matching the current machine (-host auto) and skips the compare
// — with a note, not a failure — when none matches. TestMain writes the
// file after the benchmarks have run, replacing only this host's profile
// and carrying every other profile through verbatim (it is skipped, and
// the checked-in numbers left untouched, when no T13/T14/T15 benchmark
// executed).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"testing"

	"repro/internal/campaign"
	"repro/internal/live"
	"repro/internal/trace"
)

// netBench collects the metrics the network benchmarks choose to persist.
var netBench = struct {
	mu      sync.Mutex
	metrics map[string]float64
	phases  []trace.File
}{metrics: map[string]float64{}}

// baseProcs is the ambient GOMAXPROCS of the run — captured at package
// init, before any benchmark's procs sweep moves it — and the value the
// written host profile records.
var baseProcs = runtime.GOMAXPROCS(0)

// hostProfile identifies the machine shape a profile's numbers were
// measured on; benchgate matches baselines to the current host on it.
type hostProfile struct {
	Cores      int    `json:"cores"`
	Gomaxprocs int    `json:"gomaxprocs"`
	Goos       string `json:"goos"`
	Goarch     string `json:"goarch"`
}

func currentHost() hostProfile {
	return hostProfile{
		Cores:      runtime.NumCPU(),
		Gomaxprocs: baseProcs,
		Goos:       runtime.GOOS,
		Goarch:     runtime.GOARCH,
	}
}

// recordNet persists one headline metric for BENCH_net.json.
func recordNet(name string, value float64) {
	netBench.mu.Lock()
	netBench.metrics[name] = value
	netBench.mu.Unlock()
}

// recordNetPhases persists one per-phase attribution baseline (meta +
// breakdown only — raw spans stay out of the repository). The benchmark
// harness re-invokes sub-benchmarks while calibrating b.N, so the last
// capture per name — the full-length run — replaces earlier ones.
func recordNetPhases(f trace.File) {
	f.Spans = nil
	netBench.mu.Lock()
	defer netBench.mu.Unlock()
	for i := range netBench.phases {
		if netBench.phases[i].Meta.Name == f.Meta.Name {
			netBench.phases[i] = f
			return
		}
	}
	netBench.phases = append(netBench.phases, f)
}

// TestMain flushes the recorded network-benchmark metrics to BENCH_net.json
// after the run.
func TestMain(m *testing.M) {
	code := m.Run()
	netBench.mu.Lock()
	defer netBench.mu.Unlock()
	if code == 0 && len(netBench.metrics) > 0 {
		if err := writeBenchNet(netBench.metrics, netBench.phases); err != nil {
			fmt.Fprintln(os.Stderr, "bench_net:", err)
			code = 1
		}
	}
	os.Exit(code)
}

// writeBenchNet renders the metrics and attribution baselines as a stable,
// diff-friendly JSON object keyed by host profile: the current host's
// profile is replaced wholesale, profiles measured on other machine shapes
// are carried through untouched (so a multi-core runner's numbers and the
// single-core container's numbers coexist in one file and never overwrite
// each other), and a legacy-schema file is superseded entirely.
func writeBenchNet(metrics map[string]float64, phases []trace.File) error {
	keys := make([]string, 0, len(metrics))
	for k := range metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	type namedMetric struct {
		Name  string  `json:"name"`
		Value float64 `json:"value"`
	}
	ordered := make([]namedMetric, len(keys))
	for i, k := range keys {
		ordered[i].Name = k
		ordered[i].Value = metrics[k]
	}
	sort.Slice(phases, func(i, j int) bool { return phases[i].Meta.Name < phases[j].Meta.Name })

	type profile struct {
		Host    hostProfile     `json:"host"`
		Metrics []namedMetric   `json:"metrics"`
		Phases  []trace.File    `json:"phases,omitempty"`
		Raw     json.RawMessage `json:"-"`
	}
	host := currentHost()
	profiles := []profile{{Host: host, Metrics: ordered, Phases: phases}}
	if raw, err := os.ReadFile("BENCH_net.json"); err == nil {
		var existing struct {
			Profiles []struct {
				Host hostProfile `json:"host"`
			} `json:"profiles"`
		}
		var rawDoc struct {
			Profiles []json.RawMessage `json:"profiles"`
		}
		if json.Unmarshal(raw, &existing) == nil && json.Unmarshal(raw, &rawDoc) == nil {
			for i, p := range existing.Profiles {
				if p.Host != host {
					profiles = append(profiles, profile{Host: p.Host, Raw: rawDoc.Profiles[i]})
				}
			}
		}
	}
	sort.Slice(profiles, func(i, j int) bool {
		a, b := profiles[i].Host, profiles[j].Host
		if a.Cores != b.Cores {
			return a.Cores < b.Cores
		}
		if a.Gomaxprocs != b.Gomaxprocs {
			return a.Gomaxprocs < b.Gomaxprocs
		}
		return a.Goos+"/"+a.Goarch < b.Goos+"/"+b.Goarch
	})
	parts := make([]json.RawMessage, len(profiles))
	for i, p := range profiles {
		if p.Raw != nil {
			parts[i] = p.Raw
			continue
		}
		enc, err := json.Marshal(p)
		if err != nil {
			return err
		}
		parts[i] = enc
	}
	doc := struct {
		Profiles []json.RawMessage `json:"profiles"`
	}{Profiles: parts}
	compact, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	// Indent the assembled document as one unit so carried-through raw
	// profiles and freshly marshalled ones format identically.
	var out bytes.Buffer
	if err := json.Indent(&out, compact, "", "  "); err != nil {
		return err
	}
	out.WriteByte('\n')
	return os.WriteFile("BENCH_net.json", out.Bytes(), 0o644)
}

// BenchmarkT13TransportLatency measures one complete PoisonPill election
// per iteration on each transport: chan (in-process mailboxes), tcp
// (loopback sockets through electd and the wire codec, with the batched,
// pooled hot path) and udp (datagram sockets with the retransmit/dedup
// reliability layer and mmsg batching on Linux). ns/op is the election
// latency; the tcp/chan ratio is the cost of the real network boundary and
// the udp/tcp ratio the win from dropping the stream abstraction.
// Bytes/election reports the wire-codec payload volume — batching is
// transport framing and must not change it materially — and
// allocs/election the whole-process allocation count per election.
//
// The tcp-traced variant re-runs the tcp configuration with the flight
// recorder attached. Its metrics quantify the recorder's overhead (CI
// bounds the traced/untraced allocs ratio via benchgate -ratio), and its
// n=32 capture is distilled into the "phases" attribution baseline for
// t13/tcp/n=32 — the per-phase answer to where the TCP election's
// milliseconds go.
func BenchmarkT13TransportLatency(b *testing.B) {
	variants := []struct {
		name   string
		tr     live.Transport
		traced bool
	}{
		{"chan", live.TransportChan, false},
		{"tcp", live.TransportTCP, false},
		{"udp", live.TransportUDP, false},
		{"tcp-traced", live.TransportTCP, true},
	}
	for _, v := range variants {
		for _, n := range []int{8, 32} {
			b.Run(fmt.Sprintf("transport=%s/n=%d", v.name, n), func(b *testing.B) {
				b.ReportAllocs()
				var rec *trace.Recorder
				if v.traced {
					rec = trace.NewRecorder(1 << 19)
				}
				var bytes, calls, rounds, msgs float64
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := live.Elect(live.Config{N: n, Seed: int64(i), Transport: v.tr, Trace: rec})
					if err != nil {
						b.Fatal(err)
					}
					bytes += float64(res.Bytes)
					calls += float64(res.Time)
					rounds += float64(res.Rounds)
					msgs += float64(res.Messages)
				}
				b.StopTimer()
				runtime.ReadMemStats(&after)
				allocs := float64(after.Mallocs-before.Mallocs) / float64(b.N)
				b.ReportMetric(bytes/float64(b.N), "wire-bytes")
				b.ReportMetric(calls/float64(b.N), "comm-calls")
				b.ReportMetric(allocs, "allocs/election")
				secPerOp := b.Elapsed().Seconds() / float64(b.N)
				recordNet(fmt.Sprintf("t13/%s/n=%d/election-sec", v.name, n), secPerOp)
				recordNet(fmt.Sprintf("t13/%s/n=%d/wire-bytes", v.name, n), bytes/float64(b.N))
				recordNet(fmt.Sprintf("t13/%s/n=%d/allocs", v.name, n), allocs)
				if v.traced && n == 32 {
					spans := rec.Spans()
					recordNetPhases(trace.File{
						Meta: trace.Meta{
							Name: "t13/tcp/n=32", Transport: "tcp", N: n,
							Elections:       b.N,
							MeanElectionSec: secPerOp,
							MeanRounds:      rounds / float64(b.N),
							MeanMsgs:        msgs / float64(b.N),
						},
						Breakdown: trace.ComputeBreakdown(spans, rec.Dropped()),
					})
				}
			})
		}
	}
}

// BenchmarkT14ElectdCampaignThroughput measures elections/second through
// the campaign engine with every run multiplexed onto one shared electd
// server set over loopback TCP — the service-under-load shape: one quorum
// system, many concurrent clients, and the shape that benefits most from
// the write loops' frame coalescing (concurrent elections share each server
// connection, so whole broadcast waves ride single frames).
func BenchmarkT14ElectdCampaignThroughput(b *testing.B) {
	const runsPerIter = 24
	for _, workers := range []int{1, 4, 16} {
		b.Run("workers="+strconv.Itoa(workers), func(b *testing.B) {
			b.ReportAllocs()
			var tput float64
			for i := 0; i < b.N; i++ {
				rep, err := campaign.Run(campaign.Config{
					Runs: runsPerIter, Workers: workers, N: 16, BaseSeed: int64(i),
					Transport: live.TransportTCP,
				})
				if err != nil {
					b.Fatal(err)
				}
				tput += rep.Throughput
			}
			b.ReportMetric(tput/float64(b.N), "elections/s")
			recordNet(fmt.Sprintf("t14/workers=%d/elections-per-sec", workers), tput/float64(b.N))
		})
	}
}

// BenchmarkT15ContentionScaling measures how elections/second scales with
// the number of elections in flight at once, on both comm substrates: the
// campaign engine runs conc workers over a shared system pool (chan) or a
// shared electd server set plus the system pool (tcp), so every added
// level of concurrency lands on the same sharded server maps, sharded
// client call table and recycled Systems this tier exists to gate. The
// per-election allocation count is the pooling metric: it must stay flat —
// or fall — as concurrency grows, and it is gated in CI alongside the
// latency metrics (cmd/benchgate). Each iteration runs 2·conc elections so
// every worker sustains pipeline pressure rather than a single wave.
//
// The tier is additionally swept across GOMAXPROCS at 1×, 2× and 4× the
// machine's core count (`procs=<p>` in names and metrics): the lock-free
// register stores only show their worth when multiple OS threads actually
// contend on the same cells and published snapshots, and an oversubscribed
// GOMAXPROCS surfaces convoy effects (a descheduled lock *holder* stalls
// every waiter; a descheduled lock-free reader stalls nobody) even on a
// single-core host. Metrics land under the current host profile, so curves
// from different machine shapes never get compared (docs/BENCH.md).
//
// The tcp-traced/procs=<base>/conc=16 variant re-runs the shared-cluster
// contention point with the flight recorder attached at the ambient
// GOMAXPROCS: its allocs ratio against tcp/procs=<base>/conc=16 is the
// recorder's overhead under contention (gated in CI via benchgate -ratio),
// and its capture becomes the "phases" attribution baseline for
// t15/tcp/conc=16.
func BenchmarkT15ContentionScaling(b *testing.B) {
	cores := runtime.NumCPU()
	for _, tr := range []live.Transport{live.TransportChan, live.TransportTCP, live.TransportUDP} {
		for _, mult := range []int{1, 2, 4} {
			procs := mult * cores
			for _, conc := range []int{1, 4, 16, 64} {
				b.Run(fmt.Sprintf("transport=%s/procs=%d/conc=%d", tr, procs, conc), func(b *testing.B) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					b.ReportAllocs()
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
					allocs := float64(after.Mallocs-before.Mallocs) / float64(b.N*runs)
					b.ReportMetric(tput/float64(b.N), "elections/s")
					b.ReportMetric(allocs, "allocs/election")
					recordNet(fmt.Sprintf("t15/%s/procs=%d/conc=%d/elections-per-sec", tr, procs, conc), tput/float64(b.N))
					recordNet(fmt.Sprintf("t15/%s/procs=%d/conc=%d/allocs", tr, procs, conc), allocs)
				})
			}
		}
	}
	b.Run(fmt.Sprintf("transport=tcp-traced/procs=%d/conc=16", baseProcs), func(b *testing.B) {
		b.ReportAllocs()
		const conc, runs = 16, 32
		rec := trace.NewRecorder(1 << 19)
		var tput float64
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rep, err := campaign.Run(campaign.Config{
				Runs: runs, Workers: conc, N: 16, BaseSeed: int64(i),
				Transport: live.TransportTCP, Trace: rec,
			})
			if err != nil {
				b.Fatal(err)
			}
			tput += rep.Throughput
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		allocs := float64(after.Mallocs-before.Mallocs) / float64(b.N*runs)
		b.ReportMetric(tput/float64(b.N), "elections/s")
		b.ReportMetric(allocs, "allocs/election")
		recordNet(fmt.Sprintf("t15/tcp-traced/procs=%d/conc=16/elections-per-sec", baseProcs), tput/float64(b.N))
		recordNet(fmt.Sprintf("t15/tcp-traced/procs=%d/conc=16/allocs", baseProcs), allocs)
		// The attribution baseline comes from one extra untimed campaign on
		// a fresh recorder: election IDs are per-cluster counters, so spans
		// from different timed iterations would collide under the same IDs
		// and stretch the per-election extents.
		prec := trace.NewRecorder(1 << 19)
		prep, err := campaign.Run(campaign.Config{
			Runs: runs, Workers: conc, N: 16, BaseSeed: int64(b.N),
			Transport: live.TransportTCP, Trace: prec,
		})
		if err != nil {
			b.Fatal(err)
		}
		recordNetPhases(trace.File{
			Meta: trace.Meta{
				Name: "t15/tcp/conc=16", Transport: "tcp", N: 16,
				Elections:       runs,
				MeanElectionSec: prep.Latency.Mean.Seconds(),
				MeanRounds:      prep.MeanRounds,
				MeanMsgs:        prep.MeanMsgs,
			},
			Breakdown: trace.ComputeBreakdown(prec.Spans(), prec.Dropped()),
		})
	})
}
