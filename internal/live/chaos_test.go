package live_test

// Chaos-family conformance: partitions, crash-recovery and flaky links on
// both transports. The contract under test is the one the chaos grid
// enforces in CI — a unique winner among the survivors, typed no-quorum
// aborts only for clients the fault plan provably starved, and fault
// injection scoped to its own election on shared clusters. CI runs this
// file under the race detector.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/electd"
	"repro/internal/fault"
	"repro/internal/live"
	"repro/internal/rt"
	"repro/internal/transport"
)

// transports under chaos test. UDP rides its default retransmit/dedup
// reliability layer here: injected loss stacks on top of real datagram
// loss, so these are the liveness tests for retransmission itself.
var chaosTransports = []live.Transport{live.TransportChan, live.TransportTCP, live.TransportUDP}

// electValid runs one election and applies the chaos validity contract:
// no error (two winners or an undecided return would be one), decisions the
// election judge accepts, every participant accounted for, and no electable
// participant starved.
func electValid(t *testing.T, cfg live.Config) live.Result {
	t.Helper()
	res, err := live.Elect(cfg)
	if err != nil {
		t.Fatalf("%s/%s seed %d: %v", cfg.Scenario.Name, cfg.Transport, cfg.Seed, err)
	}
	k := cfg.K
	if k == 0 {
		k = cfg.N
	}
	label := fmt.Sprintf("%s/%s seed %d", cfg.Scenario.Name, cfg.Transport, cfg.Seed)
	checkJudged(t, label, k, res.Decisions, res.Winner)
	if got := len(res.Decisions) + len(res.Crashed) + len(res.NoQuorum); got != k {
		t.Fatalf("%s: %d of %d participants accounted for", label, got, k)
	}
	plan, err := cfg.Scenario.Plan(cfg.N, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range res.NoQuorum {
		if plan == nil || plan.Electable(int(id)) {
			t.Fatalf("%s/%s seed %d: electable participant %d aborted with NoQuorumError",
				cfg.Scenario.Name, cfg.Transport, cfg.Seed, id)
		}
	}
	return res
}

// TestChaosPartitionHeals: a partition that heals within the run must not
// cost the election — retransmission carries the cut-off clients over the
// window, and every participant decides: unique winner, nobody starved.
func TestChaosPartitionHeals(t *testing.T) {
	for _, tr := range chaosTransports {
		t.Run(string(tr), func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= 3; seed++ {
				res := electValid(t, live.Config{
					N: 8, Seed: seed, Scenario: fault.PartitionHeal(), Transport: tr,
				})
				if res.Winner < 0 {
					t.Fatalf("seed %d: no winner under a healing partition (crashed=%v starved=%v)",
						seed, res.Crashed, res.NoQuorum)
				}
				if len(res.NoQuorum) > 0 {
					t.Fatalf("seed %d: participants %v starved under a healing partition", seed, res.NoQuorum)
				}
			}
		})
	}
}

// TestChaosLongestHealingPartition: the longest healing partition Validate
// accepts — one period under rt.RidesOut of the scenario's resend period —
// with processor 0 on its minority side and the full permanent crash budget
// on top, so clients on both sides are cut off from a quorum until it heals.
// Nothing tells them that it will; their calls must still ride it out, and
// every surviving participant decide, none giving up.
func TestChaosLongestHealingPartition(t *testing.T) {
	const period, start = time.Millisecond, 100 * time.Microsecond
	sc := fault.Scenario{Name: "longest-heal", Retransmit: period, Crashes: fault.CrashMax,
		Partition: &fault.PartitionSpec{Start: start, Heal: start + rt.RidesOut(period) - period,
			Minority: fault.MinorityMax, Clients: fault.SideMinority}}
	for _, tr := range chaosTransports {
		t.Run(string(tr), func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= 2; seed++ {
				if res := electValid(t, live.Config{N: 8, Seed: seed, Scenario: sc, Transport: tr}); len(res.NoQuorum) > 0 {
					t.Fatalf("seed %d: participants %v starved under a partition that heals", seed, res.NoQuorum)
				}
			}
		})
	}
}

// TestChaosPartitionMinorityTyped: a never-healing partition with the
// client on the minority side. Processor 0 is pinned there by SideMinority,
// so it must surface the typed no-quorum outcome — and never a second
// winner (electValid fails on Elect's two-winner error) nor a silent hang.
func TestChaosPartitionMinorityTyped(t *testing.T) {
	sc := fault.Scenario{Name: "cut-minority", NoQuorumOK: true,
		Partition: &fault.PartitionSpec{Start: 100 * time.Microsecond,
			Minority: fault.MinorityMax, Clients: fault.SideMinority}}
	for _, tr := range chaosTransports {
		t.Run(string(tr), func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= 3; seed++ {
				res := electValid(t, live.Config{N: 8, Seed: seed, Scenario: sc, Transport: tr})
				inNoQuorum := false
				for _, id := range res.NoQuorum {
					if id == 0 {
						inNoQuorum = true
					}
				}
				// Processor 0 is provably starved from Start on; unless it
				// finished the whole election inside the first 100µs (it
				// then decided before the cut — still valid), it must land
				// in NoQuorum, not hang and not decide late.
				if !inNoQuorum {
					if _, decided := res.Decisions[0]; !decided {
						t.Fatalf("seed %d: minority client 0 neither decided nor typed-aborted", seed)
					}
				}
			}
		})
	}
}

// TestChaosPartitionMajorityElects: the complementary conformance case — a
// never-healing partition whose minority is drawn from the high ids only
// (SideMajority). With k=4 participants on an n=8 system every client sits
// on the majority side, so all of them decide and one wins: the partition
// is invisible to electability, only to the dead replicas.
func TestChaosPartitionMajorityElects(t *testing.T) {
	for _, tr := range chaosTransports {
		t.Run(string(tr), func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= 3; seed++ {
				res := electValid(t, live.Config{
					N: 8, K: 4, Seed: seed, Scenario: fault.PartitionMajority(), Transport: tr,
				})
				if len(res.NoQuorum) > 0 {
					t.Fatalf("seed %d: majority-side clients %v starved", seed, res.NoQuorum)
				}
				if res.Winner < 0 {
					t.Fatalf("seed %d: no winner among majority-side clients", seed)
				}
				if len(res.Decisions) != 4 {
					t.Fatalf("seed %d: %d of 4 clients decided", seed, len(res.Decisions))
				}
			}
		})
	}
}

// TestChaosCrashRecovery: crash victims' replicas rejoin mid-run; the
// election must complete validly with the recovered quorum members
// answering retransmitted requests.
func TestChaosCrashRecovery(t *testing.T) {
	for _, tr := range chaosTransports {
		t.Run(string(tr), func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= 3; seed++ {
				res := electValid(t, live.Config{
					N: 8, Seed: seed, Scenario: fault.CrashRecovery(), Transport: tr,
				})
				if len(res.NoQuorum) > 0 {
					t.Fatalf("seed %d: participants %v starved under recovering crashes", seed, res.NoQuorum)
				}
			}
		})
	}
}

// TestChaosFlakyLinks: per-link asymmetric loss on both transports —
// requests dropped at the send seam, replies at the receive seam — must
// never cost safety or liveness: retransmission redraws the coin until the
// quorum assembles.
func TestChaosFlakyLinks(t *testing.T) {
	for _, sc := range []fault.Scenario{fault.Flaky(), fault.FlakyAsym()} {
		for _, tr := range chaosTransports {
			t.Run(fmt.Sprintf("%s/%s", sc.Name, tr), func(t *testing.T) {
				t.Parallel()
				for seed := int64(1); seed <= 3; seed++ {
					res := electValid(t, live.Config{N: 8, Seed: seed, Scenario: sc, Transport: tr})
					if res.Winner < 0 {
						t.Fatalf("seed %d: no winner under flaky links", seed)
					}
					if len(res.NoQuorum) > 0 {
						t.Fatalf("seed %d: participants %v starved under sub-certain loss", seed, res.NoQuorum)
					}
				}
			})
		}
	}
}

// TestChaosSharedClusterBlastRadius: a partitioned election multiplexed on
// a shared electd cluster must not perturb its siblings — the partition is
// injected at the client side, scoped to one election ID, so concurrent
// fault-free elections on the same servers all elect cleanly.
func TestChaosSharedClusterBlastRadius(t *testing.T) {
	const n, siblings = 8, 3
	nw := &transport.TCP{}
	cluster, err := electd.NewClusterWith(nw, n, electd.ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	sc := fault.Scenario{Name: "cut-minority", NoQuorumOK: true,
		Partition: &fault.PartitionSpec{Start: 100 * time.Microsecond,
			Minority: fault.MinorityMax, Clients: fault.SideMinority}}

	type out struct {
		label string
		res   live.Result
		err   error
	}
	results := make(chan out, siblings+1)
	var wg sync.WaitGroup
	launch := func(label string, cfg live.Config) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := live.Elect(cfg)
			results <- out{label, res, err}
		}()
	}
	launch("chaos", live.Config{
		N: n, Seed: 11, Scenario: sc, Transport: live.TransportTCP,
		Cluster: cluster, ElectionID: cluster.NextElectionID(),
	})
	for j := 0; j < siblings; j++ {
		launch(fmt.Sprintf("sibling-%d", j), live.Config{
			N: n, Seed: int64(100 + j), Transport: live.TransportTCP,
			Cluster: cluster, ElectionID: cluster.NextElectionID(),
		})
	}
	wg.Wait()
	close(results)

	for o := range results {
		if o.err != nil {
			t.Fatalf("%s: %v", o.label, o.err)
		}
		if o.label == "chaos" {
			// The partitioned election obeys its own contract; its minority
			// clients may starve, the rest agree on at most one winner.
			plan, _ := sc.Plan(n, 11)
			for _, id := range o.res.NoQuorum {
				if plan.Electable(int(id)) {
					t.Fatalf("chaos: electable participant %d starved", id)
				}
			}
			continue
		}
		// Siblings share only the servers, not the faults: each must elect
		// a winner with zero crashes and zero starvation.
		if o.res.Winner < 0 || len(o.res.Crashed) > 0 || len(o.res.NoQuorum) > 0 {
			t.Fatalf("%s: broken by a sibling's partition: winner=%d crashed=%v starved=%v",
				o.label, o.res.Winner, o.res.Crashed, o.res.NoQuorum)
		}
	}
}

// TestChaosNoQuorumIsTyped: under total permanent loss every client owes
// the caller a typed outcome — all K participants land in NoQuorum, the
// error is fault.NoQuorumError (not a hang, not a mystery panic), and the
// run still returns cleanly within the grace window's order of magnitude.
func TestChaosNoQuorumIsTyped(t *testing.T) {
	blackout := fault.Scenario{Name: "blackout", LossProb: 1, LossLinks: fault.AllLinks, NoQuorumOK: true}
	for _, tr := range chaosTransports {
		t.Run(string(tr), func(t *testing.T) {
			t.Parallel()
			res, err := live.Elect(live.Config{N: 5, Seed: 2, Scenario: blackout, Transport: tr})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.NoQuorum) != 5 {
				t.Fatalf("NoQuorum=%v, want all 5 participants", res.NoQuorum)
			}
			if res.Winner != -1 || len(res.Decisions) != 0 || len(res.Crashed) != 0 {
				t.Fatalf("blackout run produced winner=%d decisions=%v crashed=%v",
					res.Winner, res.Decisions, res.Crashed)
			}
			for i, id := range res.NoQuorum {
				if id != rt.ProcID(i) {
					t.Fatalf("NoQuorum not in id order: %v", res.NoQuorum)
				}
			}
		})
	}
}
