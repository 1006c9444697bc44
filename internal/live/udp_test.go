package live_test

// UDP-transport conformance: the elections that pass over loopback TCP
// must also elect a unique winner when every communicate call rides
// datagram sockets — where the substrate itself may drop, duplicate or
// reorder frames. The client pool's default retransmit period plus the
// reply router's sender dedup are the reliability layer under test; they
// sit strictly below the quorum semantics, so every safety property is
// the same as TCP's. CI runs this file under the race detector
// (go test -race -run TestUDP ./internal/live/); the chaos family in
// chaos_test.go additionally runs the fault presets over UDP.

import (
	"fmt"
	"testing"
	"time"

	"repro"
	"repro/internal/campaign"
	"repro/internal/electd"
	"repro/internal/fault"
	"repro/internal/live"
	"repro/internal/transport"
)

// TestUDPConformanceElection: unique-winner safety over loopback datagrams
// across the size grid, for both election algorithms.
func TestUDPConformanceElection(t *testing.T) {
	grid := []struct{ n, k int }{
		{1, 0}, {2, 0}, {3, 0}, {5, 0}, {8, 0}, {13, 0}, {8, 3},
	}
	for _, algo := range []live.Algorithm{live.AlgoPoisonPill, live.AlgoTournament} {
		for _, g := range grid {
			if algo == live.AlgoTournament && g.n > 8 {
				continue // tournament matches are costlier per round
			}
			for _, seed := range []int64{1, 2} {
				k := g.k
				if k == 0 {
					k = g.n
				}
				label := fmt.Sprintf("%s n=%d k=%d seed=%d", algo, g.n, k, seed)
				res, err := live.Elect(live.Config{
					N: g.n, K: g.k, Seed: seed, Algorithm: algo, Transport: live.TransportUDP,
				})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if len(res.Decisions) != k {
					t.Fatalf("%s: %d decisions", label, len(res.Decisions))
				}
				checkJudged(t, label, k, res.Decisions, res.Winner)
				if res.Time <= 0 || res.Messages <= 0 || res.Bytes <= 0 {
					t.Fatalf("%s: degenerate metrics time=%d messages=%d bytes=%d",
						label, res.Time, res.Messages, res.Bytes)
				}
			}
		}
	}
}

// TestUDPCrashMinorityPreset: the crash-minority budget over datagram
// sockets. A crashed server here closes its socket mid-run, so requests in
// flight die as real datagram loss — the retransmit layer must carry the
// survivors' calls to the recovering quorum without inventing winners.
func TestUDPCrashMinorityPreset(t *testing.T) {
	sc := fault.CrashMinority()
	sc.CrashWindow = 1500 * time.Microsecond // inside UDP-run wall-clock span
	for _, n := range []int{3, 5, 8, 9} {
		for _, seed := range []int64{1, 2, 3} {
			label := fmt.Sprintf("n=%d seed=%d", n, seed)
			res, err := live.Elect(live.Config{
				N: n, Seed: seed, Scenario: sc, Transport: live.TransportUDP,
			})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if len(res.Crashed) > fault.MaxCrashes(n) {
				t.Fatalf("%s: %d crashed participants exceed the budget %d",
					label, len(res.Crashed), fault.MaxCrashes(n))
			}
			if got := len(res.Decisions) + len(res.Crashed); got != n {
				t.Fatalf("%s: %d decisions + %d crashed != %d participants",
					label, len(res.Decisions), len(res.Crashed), n)
			}
			checkJudged(t, label, n, res.Decisions, res.Winner)
		}
	}
}

// TestUDPFlakyLoss: injected 25% symmetric loss stacked on top of the real
// datagram substrate — the sharpest test of the retransmit/dedup layer,
// since duplicate replies from resent requests cross real sockets and must
// be deduplicated by sender before they can stand in for quorum members.
func TestUDPFlakyLoss(t *testing.T) {
	for _, sc := range []fault.Scenario{fault.Flaky(), fault.FlakyAsym()} {
		for _, seed := range []int64{1, 2, 3} {
			res, err := live.Elect(live.Config{N: 8, Seed: seed, Scenario: sc, Transport: live.TransportUDP})
			if err != nil {
				t.Fatalf("%s seed %d: %v", sc.Name, seed, err)
			}
			if res.Winner < 0 {
				t.Fatalf("%s seed %d: no winner under flaky links", sc.Name, seed)
			}
			if len(res.NoQuorum) > 0 {
				t.Fatalf("%s seed %d: participants %v starved under sub-certain loss",
					sc.Name, seed, res.NoQuorum)
			}
		}
	}
}

// TestUDPSharedClusterCampaign: many elections multiplex onto one shared
// electd server set — one datagram socket per server, elections separated
// by ID — through the campaign engine.
func TestUDPSharedClusterCampaign(t *testing.T) {
	rep, err := campaign.Run(campaign.Config{
		Runs: 24, Workers: 4, N: 8, BaseSeed: 5, Transport: live.TransportUDP,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Elected != rep.Runs {
		t.Fatalf("%d of %d multiplexed elections elected a winner", rep.Elected, rep.Runs)
	}
	if rep.MeanTime <= 0 {
		t.Fatal("time metric lost on the UDP transport")
	}
}

// TestUDPSharedClusterDirect: live.Elect onto a caller-owned shared
// cluster built through the spec constructor — the redesigned API's
// one-stop entry — with distinct election IDs isolating the instances.
func TestUDPSharedClusterDirect(t *testing.T) {
	cluster, err := electd.NewClusterSpec(transport.Spec{Name: transport.SpecUDP}, 5, electd.ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	for e := uint64(1); e <= 4; e++ {
		res, err := live.Elect(live.Config{
			N: 5, Seed: int64(e), Transport: live.TransportUDP,
			Cluster: cluster, ElectionID: e,
		})
		if err != nil {
			t.Fatalf("election %d: %v", e, err)
		}
		if res.Winner < 0 {
			t.Fatalf("election %d: no winner", e)
		}
	}
}

// TestUDPSift: the standalone sifting rounds hold their survivor guarantee,
// judged by live.Sift, over datagrams too.
func TestUDPSift(t *testing.T) {
	for _, algo := range []live.Algorithm{live.AlgoBasicSift, live.AlgoHetSift} {
		res, err := live.Sift(live.Config{N: 8, Seed: 3, Algorithm: algo, Transport: live.TransportUDP})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if len(res.Outcomes) != 8 {
			t.Fatalf("%s: %d outcomes", algo, len(res.Outcomes))
		}
	}
}

// TestUDPFacade: the transport is reachable through the public repro API
// via WithTransport(UDPTransport), and misconfigurations are refused.
func TestUDPFacade(t *testing.T) {
	res, err := repro.Elect(repro.WithN(5), repro.WithSeed(4),
		repro.WithBackend(repro.Live), repro.WithTransport(repro.UDPTransport))
	if err != nil {
		t.Fatalf("WithTransport: %v", err)
	}
	if res.Winner < 0 || res.PayloadBytes <= 0 {
		t.Fatalf("WithTransport: winner=%d payload=%d", res.Winner, res.PayloadBytes)
	}
	if _, err := repro.Elect(repro.WithN(4), repro.WithTransport(repro.UDPTransport)); err == nil {
		t.Error("UDP transport accepted on the sim backend")
	}
	rep, err := repro.Campaign(repro.WithN(6), repro.WithRuns(6), repro.WithWorkers(2),
		repro.WithSeed(9), repro.WithBackend(repro.Live), repro.WithTransport(repro.UDPTransport))
	if err != nil {
		t.Fatalf("UDP campaign: %v", err)
	}
	if rep.Elected != rep.Runs {
		t.Fatalf("UDP campaign: %d of %d elected", rep.Elected, rep.Runs)
	}
}
