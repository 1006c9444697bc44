package live_test

// Chaos on the thrifty quorum call, on every substrate: a communicate call
// goes first to quorum+slack servers — picked by election ID over sockets,
// the caller's right-hand neighbours in process — and to the rest only after
// a tick, so the faults that matter are the ones that land *inside* that
// first wave. These tests find fault plans whose crashed or cut-off servers
// sit there, and hold the elections to the chaos contract plus the
// sticky-fallback latency bound: a participant pays for the silenced set
// once, not once per call. CI runs them under the race detector: the socket
// ones through the TestTCP / TestUDP conformance steps, the chan ones with
// the package.

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/electd"
	"repro/internal/fault"
	"repro/internal/live"
	"repro/internal/rt"
	"repro/internal/trace"
	"repro/internal/transport"
)

// The shared schedule's constants: the first wave is quorum+2 servers, and
// on a plan without its own retransmit tick a call widens after 50 ms
// (stretched by up to a quarter of jitter, which is why the bound below
// allows two ticks for the one a participant pays).
const (
	thriftySlack = rt.ThriftySlack
	widenTick    = rt.WidenAfter
	thriftyN     = 16 // quorum 9, first wave 11 (10 peers on chan), crash/partition budget 7
)

// firstWaveServers reports whom participant 0's first wave asks. On chan
// that is its n/2+slack right-hand neighbours — a processor is its own
// first quorum member, so it needs one answer fewer. Over sockets it is
// observed: on a probe cluster of the same shape as an owned cluster's
// election (ID 0), one propagate, and the servers that served it.
func firstWaveServers(t *testing.T, tr live.Transport, n int) []int {
	t.Helper()
	if tr == live.TransportChan {
		wave := make([]int, n/2+thriftySlack)
		for i := range wave {
			wave[i] = i + 1
		}
		return wave
	}
	cl, err := electd.NewClusterSpec(transport.Spec{Name: string(tr)}, n, electd.ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close() //nolint:errcheck // teardown
	cl.NewComm(electd.NewParticipant(0, n, 1), 0, nil).Propagate("probe", 1)
	want := n/2 + 1 + thriftySlack
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		var asked []int
		for j := 0; j < n; j++ {
			if cl.Server(rt.ProcID(j)).Served() > 0 {
				asked = append(asked, j)
			}
		}
		if len(asked) == want {
			return asked
		}
		if len(asked) > want || time.Now().After(deadline) {
			t.Fatalf("%s n=%d: the probe call reached servers %v, want %d of them — has rt.ThriftySlack moved?", tr, n, asked, want)
		}
	}
}

// faultFreeP95 is the nearest-rank 95th percentile of 20 fault-free
// elections of the same shape.
func faultFreeP95(t *testing.T, cfg live.Config) time.Duration {
	t.Helper()
	cfg.Scenario = fault.Scenario{}
	took := make([]time.Duration, 20)
	for i := range took {
		cfg.Seed = int64(1000 + i)
		took[i] = electValid(t, cfg).Elapsed
	}
	slices.Sort(took)
	return took[18]
}

// thriftyChaos runs the scenario on three seeds whose plans put their
// silenced servers inside the first wave (inside reports whether the wave
// asks enough of a plan's victims to come up short of a quorum), and
// checks each election: valid, at most one winner and only a crashed one
// missing, every surviving participant decided, and done within the
// fault-free p95 plus two widen ticks.
func thriftyChaos(t *testing.T, cfg live.Config, inside func(plan *fault.Plan, wave []int) bool) {
	t.Helper()
	wave := firstWaveServers(t, cfg.Transport, cfg.N)
	bound := faultFreeP95(t, cfg) + 2*widenTick
	found := 0
	for seed := int64(1); found < 3; seed++ {
		if seed > 20000 {
			t.Fatalf("no plan of %q among 20000 seeds puts its victims inside the first wave %v", cfg.Scenario.Name, wave)
		}
		plan, err := cfg.Scenario.Plan(cfg.N, seed)
		if err != nil {
			t.Fatal(err)
		}
		if !inside(plan, wave) {
			continue
		}
		found++
		cfg.Seed = seed
		label := fmt.Sprintf("%s/%s seed %d", cfg.Scenario.Name, cfg.Transport, seed)
		res := electValid(t, cfg)
		if len(res.NoQuorum) > 0 {
			t.Fatalf("%s: participants %v starved", label, res.NoQuorum)
		}
		t.Logf("%s: %v (bound %v), %d crashed, %d messages", label, res.Elapsed, bound, len(res.Crashed), res.Messages)
		if res.Elapsed > bound {
			t.Fatalf("%s: election took %v, bound %v (fault-free p95 + 2 widen ticks): the silenced first wave cost more than one tick per participant",
				label, res.Elapsed, bound)
		}
	}
}

// crashMinorityInside: the crash-minority preset — the full ⌈n/2⌉−1 budget,
// server and participant halves alike, early in the run — with every victim
// inside the first wave, which leaves it 4 live servers of the 9 it needs
// (in process, 3 live peers of the 8).
// Over TCP the survivors find the severed links and route around them; over
// UDP and in process nothing tells them, and each pays its one widen.
func crashMinorityInside(t *testing.T, tr live.Transport) {
	sc := fault.CrashMinority()
	sc.CrashWindow = 1500 * time.Microsecond // inside the run's wall-clock span
	thriftyChaos(t, live.Config{N: thriftyN, Scenario: sc, Transport: tr},
		func(plan *fault.Plan, wave []int) bool {
			for _, cr := range plan.Crashes {
				if !slices.Contains(wave, cr.Proc) {
					return false
				}
			}
			return len(plan.Crashes) > thriftySlack
		})
}

// partitionMajorityInside: a never-healing cut of the full minority budget
// with all 8 clients on the majority side, and more than slack of the
// cut-off servers inside the first wave: every client's first call after
// the cut comes up short, widens on the plan's tick — set to the schedule's
// own here, so one bound serves both presets — and the rest of its election
// rides the 9 reachable servers.
func partitionMajorityInside(t *testing.T, tr live.Transport) {
	sc := fault.PartitionMajority()
	sc.Retransmit = widenTick
	thriftyChaos(t, live.Config{N: thriftyN, K: thriftyN / 2, Scenario: sc, Transport: tr},
		func(plan *fault.Plan, wave []int) bool {
			cut := 0
			for _, j := range wave {
				if plan.Partition.Minority[j] {
					cut++
				}
			}
			return cut > thriftySlack
		})
}

func TestChanCrashMinorityInsideFirstWave(t *testing.T) { crashMinorityInside(t, live.TransportChan) }
func TestChanPartitionInsideFirstWave(t *testing.T)     { partitionMajorityInside(t, live.TransportChan) }
func TestTCPCrashMinorityInsideFirstWave(t *testing.T)  { crashMinorityInside(t, live.TransportTCP) }
func TestUDPCrashMinorityInsideFirstWave(t *testing.T)  { crashMinorityInside(t, live.TransportUDP) }
func TestTCPPartitionInsideFirstWave(t *testing.T)      { partitionMajorityInside(t, live.TransportTCP) }
func TestUDPPartitionInsideFirstWave(t *testing.T)      { partitionMajorityInside(t, live.TransportUDP) }

// TestChanFaultFreeElectionNeverWidens: a fault-free n=32 election in
// process makes no call that ticks, and its message count is what thrifty
// first waves add up to — at most quorum−1+slack requests and as many
// replies per communicate call, 36 where asking everyone costs 62.
func TestChanFaultFreeElectionNeverWidens(t *testing.T) {
	const n = 32
	rec := trace.NewRecorder(1 << 15)
	res := electValid(t, live.Config{N: n, Seed: 7, Trace: rec})
	if rec.Dropped() > 0 {
		t.Fatalf("the recorder dropped %d spans; the counts below would be short", rec.Dropped())
	}
	calls := int64(0)
	for _, sp := range rec.Spans() {
		switch sp.Phase {
		case trace.PSend:
			calls++
		case trace.PRetransmit:
			t.Errorf("a call of a fault-free election ticked (round %d, ordinal %d)", sp.Round, sp.Detail)
		}
	}
	if calls < int64(res.Time) {
		t.Fatalf("the trace holds %d calls, fewer than the %d one participant made", calls, res.Time)
	}
	if max := 2 * int64(n/2+thriftySlack) * calls; res.Messages > max {
		t.Errorf("%d messages over %d communicate calls, want at most %d (%d per call)", res.Messages, calls, max, max/calls)
	}
}
