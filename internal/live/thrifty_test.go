package live_test

// Chaos on the thrifty quorum call, on every substrate: a communicate call
// goes first to quorum+slack servers — quorum+2 picked by election ID over
// sockets, exactly the quorum of the caller's right-hand neighbours in
// process — and to the rest only after a tick, so the faults that matter
// are the ones that land *inside* that first wave. These tests find fault
// plans whose crashed or cut-off servers sit there, and hold the elections
// to the chaos contract plus the fallback latency bound: a participant pays
// for the silenced set once — over sockets by staying wide, in process by
// the probe after its widen — not once per call. CI runs them under the
// race detector: the socket ones through the TestTCP / TestUDP conformance
// steps, the chan ones with the package.

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

// The schedule's widen tick: on a plan without its own retransmit tick a
// call widens after at most 50 ms — electd's fixed tick, and the cap a cold
// or slow RTT estimate ticks at on chan — stretched by up to a quarter of
// jitter, which is why the bound below allows two ticks for the one a
// participant pays.
const (
	widenTick = rt.WidenAfter
	thriftyN  = 16 // quorum 9, first wave 11 over sockets and 8 peers on chan, crash/partition budget 7
)

// slack is how many servers beyond the quorum a first wave asks on tr.
func slack(tr live.Transport) int {
	if tr == live.TransportChan {
		return 0
	}
	return rt.ThriftySlack
}

// firstWaveServers reports whom participant 0's first wave asks. On chan
// that is its n/2 right-hand neighbours — a processor is its own first
// quorum member, so it needs one answer fewer. Over sockets it is
// observed: on a probe cluster of the same shape as an owned cluster's
// election (ID 0), one propagate, and the servers that served it.
func firstWaveServers(t *testing.T, tr live.Transport, n int) []int {
	t.Helper()
	if tr == live.TransportChan {
		wave := make([]int, n/2)
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
	want := n/2 + 1 + slack(tr)
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
// inside the first wave and more than slack of them, which leaves the wave
// short of the quorum: over sockets 4 live servers of the 9 it needs, in
// process as few as 1 live peer of the 8.
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
			return len(plan.Crashes) > slack(tr)
		})
}

// partitionMajorityInside: a never-healing cut of the full minority budget
// with all 8 clients on the majority side, and more than slack of the
// cut-off servers inside the first wave: every client's first call after
// the cut comes up short, widens on the plan's tick — set to the schedule's
// cap here, so one bound serves both presets — and the rest of its election
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
			return cut > slack(tr)
		})
}

func TestChanCrashMinorityInsideFirstWave(t *testing.T) { crashMinorityInside(t, live.TransportChan) }
func TestChanPartitionInsideFirstWave(t *testing.T)     { partitionMajorityInside(t, live.TransportChan) }
func TestTCPCrashMinorityInsideFirstWave(t *testing.T)  { crashMinorityInside(t, live.TransportTCP) }
func TestUDPCrashMinorityInsideFirstWave(t *testing.T)  { crashMinorityInside(t, live.TransportUDP) }
func TestTCPPartitionInsideFirstWave(t *testing.T)      { partitionMajorityInside(t, live.TransportTCP) }
func TestUDPPartitionInsideFirstWave(t *testing.T)      { partitionMajorityInside(t, live.TransportUDP) }

// TestChanFaultFreeElectionRarelyWidens: fault-free n=32 elections in
// process, on one pooled system as a campaign runs them, so the RTT
// estimate is warm after the first. A tick there is the observed widen — a
// hedge on a call merely slower than the estimate, never a resend — and it
// fires on a small share of calls: none in most plain runs, and at most 2 %
// here. Under the race detector every synchronization slows by an order of
// magnitude and one stall widens every call in flight at once, so there the
// share is only logged. The message count is
// what exact first waves add up to — quorum−1 requests and as many replies
// per communicate call, 32 where asking everyone costs 62 — plus, per
// widen, at most the rest of the peers asked twice, by the widen and by the
// probe after it.
func TestChanFaultFreeElectionRarelyWidens(t *testing.T) {
	const n, elections = 32, 8
	pool := live.NewSystemPool(n, true)
	defer pool.Close()
	var calls, widens, msgs int64
	for e := range elections {
		rec := trace.NewRecorder(1 << 15)
		res := electValid(t, live.Config{N: n, Seed: int64(7 + e), Trace: rec, Pool: pool})
		if rec.Dropped() > 0 {
			t.Fatalf("the recorder dropped %d spans; the counts below would be short", rec.Dropped())
		}
		c := int64(0)
		for _, sp := range rec.Spans() {
			switch sp.Phase {
			case trace.PSend:
				c++
			case trace.PRetransmit:
				if sp.Detail != 0 {
					t.Errorf("a call of a fault-free election resent (round %d, ordinal %d)", sp.Round, sp.Detail)
				}
				widens++
			}
		}
		if c < int64(res.Time) {
			t.Fatalf("the trace holds %d calls, fewer than the %d one participant made", c, res.Time)
		}
		calls += c
		msgs += res.Messages
	}
	t.Logf("%d of %d calls widened (%.3f %%)", widens, calls, 100*float64(widens)/float64(calls))
	if !raceEnabled && widens*50 > calls {
		t.Errorf("%d of %d calls of fault-free elections widened, want at most 2 %%", widens, calls)
	}
	if max := 2*int64(n/2)*calls + 4*int64(n-1)*widens; msgs > max {
		t.Errorf("%d messages over %d communicate calls and %d widens, want at most %d", msgs, calls, widens, max)
	}
}
