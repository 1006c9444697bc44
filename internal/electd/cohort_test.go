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
		"tcp":      func() transport.Network { return transport.NewTCP() },
	}
}

// TestCohortLeaveReleasesHeldWaves: participants woken together queue their
// next waves held, and the one among them that makes no further call
// releases those waves by leaving. Eight participants propagate at once;
// of those the router left holding tickets, all but one collect, and their
// requests stay queued, unwritten, until the last one leaves. Then every
// collect completes, and none has widened: without the Leave each would
// wait out its widen tick.
func TestCohortLeaveReleasesHeldWaves(t *testing.T) {
	for name, nw := range cohortNetworks() {
		t.Run(name, func(t *testing.T) {
			cl := newThriftyCluster(t, nw(), thriftyN)
			widened := cl.pool.widened.Load()
			for attempt := 0; ; attempt++ {
				if attempt == 50 {
					t.Fatal("no round of concurrent calls left two participants holding tickets")
				}
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
				select {
				case <-done:
					t.Fatal("a held collect completed while its cohort still held a ticket")
				default:
				}
				leaver.Leave()
				for range callers {
					select {
					case <-done:
					case <-time.After(10 * time.Second):
						t.Fatal("held collects did not complete after the last ticket holder left")
					}
				}
				cl.RemoveElection(election)
				break
			}
			if got := cl.pool.widened.Load() - widened; got != 0 {
				t.Fatalf("%d calls widened: the leave did not release the cohort's held waves", got)
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
