package electd_test

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/electd"
	"repro/internal/fault"
	"repro/internal/obs"
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
			client := pool.NewComm(electd.NewParticipant(0, n, 1), 1, &fault.Profile{
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

// TestForgedSameRepliesNeverBecomeViews: a same reply stands for a view
// only when it names a view its sender sent tagged, which only a stream's
// views are. Every server here answers each request with forged same
// replies first — to a collect, one naming the tag of the last view the
// real replica sent, one with another tag and one claiming to come from
// server n−1, which never answers anything (the pool cannot dial it on the
// in-process network; on UDP its socket is gone); to a propagate, sames
// with tags 0 and 1 — and then honestly, always with the full view (the
// replica is not told it is on a stream, so its views go untagged, as
// every view over UDP does). So every same the pool takes is a forgery: it
// must take none, and every collect must return a quorum of distinct live
// servers' full views.
func TestForgedSameRepliesNeverBecomeViews(t *testing.T) {
	const n = 5
	networks := map[string]transport.Network{
		"loopback": transport.NewLoopback(),
		"udp":      transport.NewUDP(),
	}
	for name, nw := range networks {
		t.Run(name, func(t *testing.T) {
			addrs := make([]string, n)
			for j := range addrs {
				srv := electd.NewServer(rt.ProcID(j))
				var sent atomic.Uint64 // the tag of the last view srv sent
				ln, err := nw.Listen(func(c transport.Conn, m *wire.Msg) {
					tag := sent.Load()
					forged := []*wire.Msg{
						{Kind: wire.KindSame, Election: m.Election, Call: m.Call, From: srv.ID(), Tag: tag},
						{Kind: wire.KindSame, Election: m.Election, Call: m.Call, From: srv.ID(), Tag: tag + 1<<40},
						{Kind: wire.KindSame, Election: m.Election, Call: m.Call, From: n - 1, Tag: tag},
					}
					if m.Kind == wire.KindPropagate {
						forged = []*wire.Msg{
							{Kind: wire.KindSame, Election: m.Election, Call: m.Call, From: srv.ID()},
							{Kind: wire.KindSame, Election: m.Election, Call: m.Call, From: srv.ID(), Tag: 1},
						}
					}
					for _, f := range forged {
						c.Send(f) //nolint:errcheck // loss; the client retransmits
					}
					srv.Handle(tagSpy{c, &sent}, m)
				})
				if err != nil {
					t.Fatal(err)
				}
				addrs[j] = ln.Addr()
				if j == n-1 {
					ln.Close()
				} else {
					defer ln.Close()
				}
			}
			reg := obs.NewRegistry()
			pool, err := electd.DialPoolOpts(nw, addrs, electd.PoolOptions{Metrics: reg})
			if err != nil {
				t.Fatal(err)
			}
			defer pool.Close()

			client := pool.NewComm(electd.NewParticipant(0, n, 1), 1, &fault.Profile{Retransmit: 20 * time.Millisecond})
			want := []rt.Entry{{Reg: "r", Owner: 0, Seq: 1, Val: 1}}
			client.Propagate("r", 1)
			for range 3 { // the second and third draw sames naming the views the first got
				views := client.Collect("r")
				if len(views) != client.QuorumSize() {
					t.Fatalf("collect returned %d views, want a quorum of %d", len(views), client.QuorumSize())
				}
				seen := map[rt.ProcID]bool{}
				for _, v := range views {
					if v.From < 0 || v.From >= n-1 || seen[v.From] || !reflect.DeepEqual(v.Entries, want) {
						t.Fatalf("quorum holds a forged, repeated or wrong view: %+v", views)
					}
					seen[v.From] = true
				}
			}
			snap := reg.Snapshot()
			if got := snap.Total("electd_pool_views_same_total"); got != 0 {
				t.Fatalf("the pool took %d forged same replies as views", got)
			}
		})
	}
}

// tagSpy is a replica's side of one connection, hiding whether it is a
// stream, that records the tag of every view the replica sends on it.
type tagSpy struct {
	transport.Conn
	tag *atomic.Uint64
}

func (c tagSpy) SendEncoded(frame []byte) error {
	if body, _, err := wire.SplitFrame(frame); err == nil {
		if _, tag, _, ok := wire.PeekView(body); ok {
			c.tag.Store(tag)
		}
	}
	return c.Conn.SendEncoded(frame)
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
