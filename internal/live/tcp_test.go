package live_test

// TCP-transport conformance: the same elections that run over the
// in-process channel substrate must elect a unique winner when every
// communicate call crosses loopback TCP sockets to electd quorum servers —
// including under the fault presets, which is the acceptance bar of the
// network subsystem: crash-minority over real connections, race-clean.
// CI runs this file under the race detector with a short timeout
// (go test -race -run TestTCP ./internal/live/).

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

// TestTCPConformanceElection: unique-winner safety over loopback TCP across
// the size grid, for both election algorithms.
func TestTCPConformanceElection(t *testing.T) {
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
					N: g.n, K: g.k, Seed: seed, Algorithm: algo, Transport: live.TransportTCP,
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

// TestTCPCrashMinorityPreset is the subsystem's acceptance test: an
// election over loopback TCP — electd servers plus participant goroutines
// speaking the wire codec over real sockets — under the crash-minority
// fault preset (the full ⌈n/2⌉−1 budget at randomized times, crashing
// server connections and participants alike) still elects a unique winner
// among the survivors, and a winnerless run implies the linearized winner
// itself crashed.
func TestTCPCrashMinorityPreset(t *testing.T) {
	sc := fault.CrashMinority()
	sc.CrashWindow = 1500 * time.Microsecond // inside TCP-run wall-clock span
	for _, n := range []int{3, 5, 8, 9} {
		for _, seed := range []int64{1, 2, 3} {
			label := fmt.Sprintf("n=%d seed=%d", n, seed)
			res, err := live.Elect(live.Config{
				N: n, Seed: seed, Scenario: sc, Transport: live.TransportTCP,
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

// TestTCPLatencyScenario: link-delay injection rides the transport's
// delayed writes; heavy-tailed latency must not break safety.
func TestTCPLatencyScenario(t *testing.T) {
	sc := fault.Scenario{
		Name: "tail-lite",
		Link: fault.Dist{Kind: fault.Pareto, Jitter: 40 * time.Microsecond, Alpha: 1.3, Cap: 2 * time.Millisecond},
	}
	for _, seed := range []int64{1, 2} {
		res, err := live.Elect(live.Config{N: 8, Seed: seed, Scenario: sc, Transport: live.TransportTCP})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Winner < 0 {
			t.Fatalf("seed %d: no winner without crashes", seed)
		}
	}
}

// TestTCPSharedClusterCampaign: many elections multiplex onto one shared
// electd server set by election ID, through the campaign engine.
func TestTCPSharedClusterCampaign(t *testing.T) {
	rep, err := campaign.Run(campaign.Config{
		Runs: 24, Workers: 4, N: 8, BaseSeed: 5, Transport: live.TransportTCP,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Elected != rep.Runs {
		t.Fatalf("%d of %d multiplexed elections elected a winner", rep.Elected, rep.Runs)
	}
	if rep.MeanTime <= 0 {
		t.Fatal("time metric lost on the TCP transport")
	}
}

// TestTCPSharedClusterDirect: live.Elect onto a caller-owned shared
// cluster, with distinct election IDs isolating the instances.
func TestTCPSharedClusterDirect(t *testing.T) {
	cluster, err := electd.NewClusterWith(&transport.TCP{}, 5, electd.ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	for e := uint64(1); e <= 4; e++ {
		res, err := live.Elect(live.Config{
			N: 5, Seed: int64(e), Transport: live.TransportTCP,
			Cluster: cluster, ElectionID: e,
		})
		if err != nil {
			t.Fatalf("election %d: %v", e, err)
		}
		if res.Winner < 0 {
			t.Fatalf("election %d: no winner", e)
		}
	}
	// Scenario + shared cluster must be refused: faults would leak across
	// elections.
	if _, err := live.Elect(live.Config{
		N: 5, Seed: 1, Transport: live.TransportTCP, Cluster: cluster, ElectionID: 9,
		Scenario: fault.CrashOne(),
	}); err == nil {
		t.Fatal("crash scenario accepted on a shared cluster")
	}
}

// TestTCPSift: the standalone sifting rounds hold their survivor guarantee,
// judged by live.Sift, over the network boundary too.
func TestTCPSift(t *testing.T) {
	for _, algo := range []live.Algorithm{live.AlgoBasicSift, live.AlgoHetSift} {
		res, err := live.Sift(live.Config{N: 8, Seed: 3, Algorithm: algo, Transport: live.TransportTCP})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if len(res.Outcomes) != 8 {
			t.Fatalf("%s: %d outcomes", algo, len(res.Outcomes))
		}
	}
}

// TestTCPFacade: the transport is reachable through the public repro API,
// via WithBackend(Live) plus WithTransport, and misconfigurations are
// refused loudly.
func TestTCPFacade(t *testing.T) {
	res, err := repro.Elect(repro.WithN(5), repro.WithSeed(4),
		repro.WithBackend(repro.Live), repro.WithTransport(repro.TCPTransport))
	if err != nil {
		t.Fatalf("WithTransport: %v", err)
	}
	if res.Winner < 0 || res.PayloadBytes <= 0 {
		t.Fatalf("WithTransport: winner=%d payload=%d", res.Winner, res.PayloadBytes)
	}
	if _, err := repro.Elect(repro.WithN(4), repro.WithTransport(repro.TCPTransport)); err == nil {
		t.Error("TCP transport accepted on the sim backend")
	}
	if _, err := repro.Elect(repro.WithN(4), repro.WithBackend(repro.Live),
		repro.WithTransport(repro.Transport("carrier-pigeon"))); err == nil {
		t.Error("unknown transport accepted")
	}
	rep, err := repro.Campaign(repro.WithN(6), repro.WithRuns(6), repro.WithWorkers(2),
		repro.WithSeed(9), repro.WithBackend(repro.Live), repro.WithTransport(repro.TCPTransport))
	if err != nil {
		t.Fatalf("TCP campaign: %v", err)
	}
	if rep.Elected != rep.Runs {
		t.Fatalf("TCP campaign: %d of %d elected", rep.Elected, rep.Runs)
	}
	// Scenario campaigns over TCP run one cluster per election (a shared
	// cluster would leak faults across runs) and must still balance their
	// validity counts.
	screp, err := repro.Campaign(repro.WithN(5), repro.WithRuns(4), repro.WithWorkers(2),
		repro.WithSeed(3), repro.WithBackend(repro.Live), repro.WithTransport(repro.TCPTransport),
		repro.WithScenario("crash-1"))
	if err != nil {
		t.Fatalf("TCP crash campaign: %v", err)
	}
	if screp.Elected+screp.WinnerCrashed != screp.Runs {
		t.Errorf("TCP crash campaign counts don't balance: %+v", screp)
	}
}

// TestChanByteAccounting: the chan substrate reports nonzero wire-codec
// bytes, and sim/live/TCP all report the same order of magnitude for the
// same configuration — the accounting is one format, not three estimates.
func TestChanByteAccounting(t *testing.T) {
	simRes, err := repro.Elect(repro.WithN(8), repro.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	liveRes, err := repro.Elect(repro.WithN(8), repro.WithSeed(5), repro.WithBackend(repro.Live))
	if err != nil {
		t.Fatal(err)
	}
	tcpRes, err := repro.Elect(repro.WithN(8), repro.WithSeed(5),
		repro.WithBackend(repro.Live), repro.WithTransport(repro.TCPTransport))
	if err != nil {
		t.Fatal(err)
	}
	for name, bytes := range map[string]int64{"sim": simRes.PayloadBytes, "live": liveRes.PayloadBytes, "tcp": tcpRes.PayloadBytes} {
		if bytes <= 0 {
			t.Fatalf("%s backend reports no payload bytes", name)
		}
	}
	// Bytes per message must agree across backends to within a small
	// factor: same codec, different run lengths and quorum asymmetries.
	simPer := float64(simRes.PayloadBytes) / float64(simRes.Messages)
	livePer := float64(liveRes.PayloadBytes) / float64(liveRes.Messages)
	tcpPer := float64(tcpRes.PayloadBytes) / float64(tcpRes.Messages)
	for name, per := range map[string]float64{"live": livePer, "tcp": tcpPer} {
		if ratio := per / simPer; ratio < 0.25 || ratio > 4 {
			t.Fatalf("%s bytes/message %.1f diverges from sim %.1f (ratio %.2f)", name, per, simPer, ratio)
		}
	}
}
