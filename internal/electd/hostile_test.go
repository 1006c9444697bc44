package electd_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/electd"
	"repro/internal/fault"
	"repro/internal/regstore"
	"repro/internal/rt"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestForgedReplySenderNeitherPanicsNorCounts: a reply's sender id is wire
// input. Every server here answers each request twice — first with a
// forged copy claiming a sender outside [0, n), then honestly — while the
// client carries a partition plan, whose reply-loss hook indexes a
// per-server table with the sender it is handed. The forged id must never
// reach that hook (it used to, straight from the pre-decode peek: an
// index-out-of-range panic on the connection's read loop), and a forged
// reply must never stand in for a quorum member (it used to be counted,
// because the dedup guard merely skipped ids it could not index).
func TestForgedReplySenderNeitherPanicsNorCounts(t *testing.T) {
	const n = 3
	networks := map[string]transport.Network{
		"loopback": transport.NewLoopback(),
		"udp":      transport.NewUDP(),
	}
	for name, nw := range networks {
		t.Run(name, func(t *testing.T) {
			addrs := make([]string, n)
			for j := range addrs {
				id := rt.ProcID(j)
				ln, err := nw.Listen(func(c transport.Conn, m *wire.Msg) {
					kind := wire.KindAck
					if m.Kind == wire.KindCollect {
						kind = wire.KindView
					}
					for _, from := range []rt.ProcID{n + 5, id} {
						c.Send(&wire.Msg{Kind: kind, Election: m.Election, Call: m.Call, From: from, Reg: m.Reg}) //nolint:errcheck // loss; the client retransmits
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				defer ln.Close()
				addrs[j] = ln.Addr()
			}
			pool, err := electd.DialPool(nw, addrs)
			if err != nil {
				t.Fatal(err)
			}
			defer pool.Close()

			// A partition that is open from the start but has nobody on its
			// small side: nothing is cut, and every reply consults the plan.
			plan := &fault.Plan{N: n, Partition: &fault.PartitionPlan{Minority: make([]bool, n)}}
			client := pool.NewComm(electd.NewParticipant(0, n, 1), 1, nil)
			client.SetFaults(electd.FaultProfile{
				ReplyDrop:  func(from int) bool { return plan.CutAt(from, 0, 0) },
				Retransmit: 20 * time.Millisecond,
			})
			client.Propagate("r", 1)
			views := client.Collect("r")
			if len(views) != client.QuorumSize() {
				t.Fatalf("collect returned %d views, want a quorum of %d", len(views), client.QuorumSize())
			}
			seen := map[rt.ProcID]bool{}
			for _, v := range views {
				if v.From < 0 || v.From >= n || seen[v.From] {
					t.Fatalf("quorum contains a forged or repeated sender: %+v", views)
				}
				seen[v.From] = true
			}
		})
	}
}

// TestOutOfRangeOwnersNameNoProcessor: a server stores any owner below
// regstore.MaxOwners, and the codec carries ids up to wire.MaxID, so round
// 1's status register can hold cells of owners outside [0, n) whose ℓ lists
// name more of them. Every honest collector reads them; the sifting
// decisions must skip them — they name no processor — rather than index
// their n-sized tables with them (an index-out-of-range panic on every
// participant) or count them into L (which could kill every low-priority
// participant and leave no winner).
func TestOutOfRangeOwnersNameNoProcessor(t *testing.T) {
	const n = 5
	const reg = "elect/sift/1/status"
	for seed := int64(1); seed <= 4; seed++ {
		cl, err := electd.NewCluster(transport.NewLoopback(), n)
		if err != nil {
			t.Fatal(err)
		}
		planted := map[rt.ProcID]core.Status{
			n:                      {Stat: core.Commit},
			regstore.MaxOwners - 1: {Stat: core.HighPri, List: []rt.ProcID{n + 1, regstore.MaxOwners - 1, wire.MaxID}},
		}
		for owner, st := range planted {
			cl.NewComm(electd.NewParticipant(owner, n, seed), 1, nil).Propagate(reg, st)
		}
		uniqueWinner(t, fmt.Sprintf("seed=%d", seed), electOnce(t, cl, 1, n, seed))
		cl.Close()
	}
}
