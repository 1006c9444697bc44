package electd

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/rt"
	"repro/internal/transport"
)

// cohortNetworks are the stream networks, whose connections hold a
// cohort's requests (transport.HeldConn).
func cohortNetworks() map[string]func() transport.Network {
	return map[string]func() transport.Network{
		"loopback": func() transport.Network { return transport.NewLoopback() },
		"tcp":      func() transport.Network { return &transport.TCP{} },
	}
}

// TestCohortLeaveReleasesHeldWaves: participants woken together queue their
// next waves held, and the one among them that makes no further call
// releases those waves by leaving. Eight participants propagate at once;
// of those the router left holding tickets, all but one collect, and their
// requests stay queued, unwritten, until the last one leaves. Then every
// collect completes, and none has widened: without the Leave each would
// wait out its widen tick.
//
// A hold holds only on a parked write loop (a running one takes the held
// frame with its next drain) and only until the widen tick. A round in
// which a held request found its loop still writing earlier frames, or a
// call widened before the check, misses the premise and is retried, like
// one that left fewer than two holders.
func TestCohortLeaveReleasesHeldWaves(t *testing.T) {
	for name, nw := range cohortNetworks() {
		t.Run(name, func(t *testing.T) {
			cl := newThriftyCluster(t, nw(), thriftyN)
			for attempt := 0; ; attempt++ {
				if attempt == 50 {
					t.Fatal("no round of concurrent calls left two participants holding tickets on parked write loops")
				}
				widened := cl.pool.widened.Load()
				election := cl.NextElectionID()
				const k = 8
				clients := make([]*Client, k)
				for i := range clients {
					clients[i] = cl.NewComm(NewParticipant(rt.ProcID(i), k, int64(i+1)), election, nil)
				}
				start := make(chan struct{})
				var wg sync.WaitGroup
				for _, c := range clients {
					wg.Add(1)
					go func() {
						defer wg.Done()
						<-start
						c.Propagate("r", 1)
					}()
				}
				close(start)
				wg.Wait()
				var holders []*Client
				for _, c := range clients {
					if c.ticket {
						holders = append(holders, c)
					} else {
						c.Leave()
					}
				}
				if len(holders) < 2 {
					for _, c := range holders {
						c.Leave()
					}
					cl.RemoveElection(election)
					continue
				}

				leaver, callers := holders[0], holders[1:]
				co := leaver.co
				running := transport.ReadStats().HeldOnRunning
				done := make(chan struct{}, len(callers))
				for _, c := range callers {
					go func() {
						defer c.Leave()
						c.Collect("r")
						done <- struct{}{}
					}()
				}
				// A caller hands its ticket back once its wave is queued; with
				// only the leaver's left, every caller's wave waits for it.
				for deadline := time.Now().Add(10 * time.Second); co.tickets.Load() != 1; time.Sleep(100 * time.Microsecond) {
					if time.Now().After(deadline) {
						t.Fatalf("%d tickets out, want the leaver's alone", co.tickets.Load())
					}
				}
				early := 0
				select {
				case <-done:
					early = 1
				default:
				}
				// Read after the check: a widen is counted before its call can
				// complete, a running loop when the request is queued.
				unheld := transport.ReadStats().HeldOnRunning - running
				widens := cl.pool.widened.Load() - widened
				if early > 0 && unheld == 0 && widens == 0 {
					t.Fatal("a held collect completed while its cohort still held a ticket, every request held on a parked write loop and no call widened")
				}
				leaver.Leave()
				for range len(callers) - early {
					select {
					case <-done:
					case <-time.After(10 * time.Second):
						t.Fatal("held collects did not complete after the last ticket holder left")
					}
				}
				cl.RemoveElection(election)
				if unheld > 0 || widens > 0 {
					t.Logf("round %d: %d held requests found their write loop running and %d calls widened before the check (a collect completed early: %v); retrying",
						attempt, unheld, widens, early > 0)
					continue
				}
				if got := cl.pool.widened.Load() - widened; got != 0 {
					t.Fatalf("%d calls widened: the leave did not release the cohort's held waves", got)
				}
				break
			}
		})
	}
}

// TestCohortSequentialCallersHoldNothing: the benchmark ladder's client
// pattern — 32 participants of one election call once each in turn, then
// one of them calls 200 times, none ever leaving — finds no other call of
// its election in the table, so the router grants no ticket, nothing is
// held and nothing widens.
func TestCohortSequentialCallersHoldNothing(t *testing.T) {
	const n = 32
	for name, nw := range cohortNetworks() {
		t.Run(name, func(t *testing.T) {
			cl := newThriftyCluster(t, nw(), n)
			widened := cl.pool.widened.Load()
			election := cl.NextElectionID()
			check := func(c *Client) {
				t.Helper()
				if c.ticket || c.co.tickets.Load() != 0 {
					t.Fatalf("a lone caller holds a ticket (%d out)", c.co.tickets.Load())
				}
			}
			clients := make([]*Client, n)
			for i := range clients {
				clients[i] = cl.NewComm(NewParticipant(rt.ProcID(i), n, int64(i+1)), election, nil)
				clients[i].Propagate("ladder", i)
				check(clients[i])
			}
			c := clients[0]
			for i := 0; i < 100; i++ {
				c.Propagate("ladder", i)
				check(c)
				if views := c.Collect("ladder"); len(views) < c.QuorumSize() {
					t.Fatalf("collect returned %d views", len(views))
				}
				check(c)
			}
			if got := cl.pool.widened.Load() - widened; got != 0 {
				t.Fatalf("%d calls widened", got)
			}
		})
	}
}

// TestCohortLargerThanSendQueue: more participants are woken together than
// a connection's send queue holds (k = 300 > sendQueueDepth), so held
// requests fill the queues; the hold that fills one wakes its write loop,
// and every election completes with a unique winner, every cohort gone with
// its last member. At n = 3 every wave goes to all servers, nothing is held
// and no call widens. At n = 7 the waves are thrifty and held; there calls
// may widen with or without cohorts — the first of 300 concurrent waves can
// queue past rt.WidenAfter at servers on a loaded 2-core host — so only the
// completion is checked: a filling hold that left its write loop parked
// blocks the next one for good.
func TestCohortLargerThanSendQueue(t *testing.T) {
	const k = 300
	for name, nw := range cohortNetworks() {
		for _, n := range []int{3, 7} {
			t.Run(fmt.Sprintf("%s/n=%d", name, n), func(t *testing.T) {
				cl := newThriftyCluster(t, nw(), n)
				widened := cl.pool.widened.Load()
				for e := 0; e < 2; e++ {
					id := cl.NextElectionID()
					if _, err := cl.pool.Elect(id, k, int64(e*k+1)); err != nil {
						t.Fatalf("election %d: %v", id, err)
					}
					cl.RemoveElection(id)
				}
				if got := cl.pool.widened.Load() - widened; n == 3 && got != 0 {
					t.Fatalf("%d calls widened", got)
				}
				cl.pool.cohortMu.Lock()
				left := len(cl.pool.cohorts)
				cl.pool.cohortMu.Unlock()
				if left != 0 {
					t.Fatalf("%d cohorts outlived their elections", left)
				}
			})
		}
	}
}
