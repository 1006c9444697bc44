package electd_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/electd"
	"repro/internal/fault"
	"repro/internal/rt"
	"repro/internal/transport"
)

// TestRestartRestoresQuorumMidElection: the crash-recovery regression for
// Cluster.Restart end to end. A majority of servers fails before the
// election starts, so no client can assemble a quorum — they sit in their
// retransmission loops. Restarting one server (replica flag, listener
// rebind, pool redial) restores a live majority, and the retransmitted
// requests must reach the recovered replica and complete the election: if
// any link of the restart sequence is broken, the clients retransmit into
// the void forever and the test times out.
func TestRestartRestoresQuorumMidElection(t *testing.T) {
	for name, mk := range map[string]func() transport.Network{
		"loopback": func() transport.Network { return transport.NewLoopback() },
		"tcp":      func() transport.Network { return &transport.TCP{} },
	} {
		t.Run(name, func(t *testing.T) {
			const n, k = 5, 3
			cl, err := electd.NewClusterWith(mk(), n, electd.ClusterOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()

			// Fail three of five: the two survivors are one short of the
			// ⌊n/2⌋+1 = 3 quorum, so every communicate call stalls.
			for _, id := range []rt.ProcID{2, 3, 4} {
				cl.Crash(id)
			}

			decisions := make([]core.Decision, k)
			var wg sync.WaitGroup
			for i := 0; i < k; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					p := electd.NewParticipant(rt.ProcID(i), n, int64(i)*1e6+1)
					c := cl.NewComm(p, 7, &fault.Profile{Retransmit: time.Millisecond})
					defer c.Leave()
					s := core.NewState(p, "leaderelect")
					decisions[i] = core.LeaderElectWithState(c, "elect", s)
				}(i)
			}

			// Let the clients pile up retransmissions against the dead
			// majority, then bring one replica back.
			time.Sleep(20 * time.Millisecond)
			if err := cl.Restart(2); err != nil {
				t.Fatalf("restart server 2: %v", err)
			}

			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("election never completed after the restart restored quorum")
			}
			uniqueWinner(t, name, decisions)
		})
	}
}
