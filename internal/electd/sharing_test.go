package electd_test

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/electd"
	"repro/internal/renaming"
	"repro/internal/rt"
	"repro/internal/transport"
	"repro/internal/wire"
)

// listAudit wraps a Network and watches every decoded message on its way
// to the servers and to the pool: the first time a status list's backing
// array is seen its contents are copied aside, and every later sighting —
// and a sweep after every election — must find the array unchanged. Every
// read loop decodes through one process-wide cache that interns values, so
// the same array reaches many views, many participants and the servers'
// propagates; anything that wrote through one (an in-place sort, an append
// into spare capacity) would be caught here by value, and under -race by
// the detector, since the audit reads on the read loops while participants
// run.
//
// Whole views are shared the same way: the cache's view memo hands one
// entry array to every view whose bytes repeat, on any connection. Every
// non-empty view reaching the pool is such an array (the memo owns what it
// decodes), so the audit keeps each one's encoding — a checksum over
// owners, sequence numbers and values, in order — and holds it to that.
// Arrays on the way to a server are not tracked: the server owns those,
// and recycles them into the next decode.
type listAudit struct {
	transport.Network
	mu     sync.Mutex
	lists  map[*rt.ProcID][]rt.ProcID
	views  map[*rt.Entry]viewSum
	shared int      // sightings of a list or view array already on record
	reused int      // of those, view arrays
	broken []string // arrays found changed, reported by the test goroutine
}

// viewSum is what a shared entry array looked like when first seen.
type viewSum struct {
	reg string
	n   int
	enc []byte
}

func newListAudit(nw transport.Network) *listAudit {
	return &listAudit{Network: nw, lists: map[*rt.ProcID][]rt.ProcID{}, views: map[*rt.Entry]viewSum{}}
}

func (a *listAudit) Listen(h transport.Handler) (transport.Listener, error) {
	return a.Network.Listen(func(c transport.Conn, m *wire.Msg) { a.check(m, false); h(c, m) })
}

func (a *listAudit) Dial(addr string, h transport.Handler) (transport.Conn, error) {
	return a.Network.Dial(addr, func(c transport.Conn, m *wire.Msg) { a.check(m, true); h(c, m) })
}

// sum encodes an entry array as a view of reg; entries the codec refuses
// (a foreign register name written into one, say) sum to the error text.
func sum(reg string, entries []rt.Entry) []byte {
	enc, err := wire.Append(nil, &wire.Msg{Kind: wire.KindView, Reg: reg, Entries: entries})
	if err != nil {
		return []byte(err.Error())
	}
	return enc
}

func (a *listAudit) check(m *wire.Msg, toPool bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if toPool && m.Kind == wire.KindView && len(m.Entries) > 0 {
		if want, seen := a.views[&m.Entries[0]]; !seen {
			a.views[&m.Entries[0]] = viewSum{m.Reg, len(m.Entries), sum(m.Reg, m.Entries)}
		} else {
			a.shared++
			a.reused++
			if got := sum(m.Reg, m.Entries); len(m.Entries) != want.n || !bytes.Equal(got, want.enc) {
				a.broken = append(a.broken, fmt.Sprintf("view of %s first seen as %x, later %x", m.Reg, want.enc, got))
			}
		}
	}
	for _, e := range m.Entries {
		st, ok := e.Val.(core.Status)
		if !ok || len(st.List) == 0 {
			continue
		}
		if want, seen := a.lists[&st.List[0]]; !seen {
			a.lists[&st.List[0]] = slices.Clone(st.List)
		} else {
			a.shared++
			if !slices.Equal(st.List[:len(want)], want) {
				a.broken = append(a.broken, fmt.Sprintf("first seen as %v, later %v", want, st.List))
			}
		}
	}
}

// sweep holds every array on record to its first sighting, from the test
// goroutine, between elections.
func (a *listAudit) sweep(t *testing.T, label string) {
	t.Helper()
	a.mu.Lock()
	defer a.mu.Unlock()
	for first, want := range a.lists {
		if got := unsafe.Slice(first, len(want)); !slices.Equal(got, want) {
			t.Errorf("%s: shared status list mutated: %v, was %v", label, got, want)
		}
	}
	for first, want := range a.views {
		if got := sum(want.reg, unsafe.Slice(first, want.n)); !bytes.Equal(got, want.enc) {
			t.Errorf("%s: shared view of %s mutated: %x, was %x", label, want.reg, got, want.enc)
		}
	}
	for _, b := range a.broken {
		t.Errorf("%s: shared array mutated during the run: %s", label, b)
	}
	a.broken = nil
}

// runAll runs one k-participant protocol instance on the cluster, every
// participant on its own goroutine with its own comm.
func runAll(cl *electd.Cluster, election uint64, k int, seed int64, run func(c rt.Comm)) {
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := cl.NewComm(electd.NewParticipant(rt.ProcID(i), cl.N(), seed+int64(i)*1e6), election, nil)
			defer c.Leave()
			run(c)
		}(i)
	}
	wg.Wait()
}

// TestSharedStatusListsAreNeverWritten runs a protocol grid over both
// stream substrates with the audit in place — the paper's election, the
// tournament baseline and renaming, everything that consumes views:
// interned values and memoized view arrays really are shared between
// views and participants, and no consumer ever writes through one, sorts
// one in place or appends into one. The arrays are swept after every run.
func TestSharedStatusListsAreNeverWritten(t *testing.T) {
	networks := map[string]func() transport.Network{
		"loopback": func() transport.Network { return transport.NewLoopback() },
		"tcp":      func() transport.Network { return &transport.TCP{} },
	}
	for name, mk := range networks {
		for _, n := range []int{4, 8} {
			audit := newListAudit(mk())
			cl, err := electd.NewClusterWith(audit, n, electd.ClusterOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for seed := int64(1); seed <= 3; seed++ {
				label := fmt.Sprintf("%s n=%d seed=%d", name, n, seed)
				uniqueWinner(t, label, electOnce(t, cl, cl.NextElectionID(), n, seed))
				audit.sweep(t, label)
			}
			label := fmt.Sprintf("%s n=%d", name, n)
			wins := make([]core.Decision, n)
			runAll(cl, cl.NextElectionID(), n, 7, func(c rt.Comm) {
				wins[c.Proc().ID()] = baseline.Tournament(c, "tournament")
			})
			uniqueWinner(t, label+" tournament", wins)
			audit.sweep(t, label+" tournament")
			names := make([]int, n)
			runAll(cl, cl.NextElectionID(), n, 11, func(c rt.Comm) {
				names[c.Proc().ID()] = renaming.GetName(c, &renaming.State{})
			})
			sorted := slices.Sorted(slices.Values(names))
			if sorted[0] < 1 || sorted[n-1] > n || len(slices.Compact(sorted)) != n {
				t.Errorf("%s renaming: names %v are not distinct in [1, %d]", label, names, n)
			}
			audit.sweep(t, label+" renaming")
			cl.Close()
			audit.sweep(t, label+" after close")

			audit.mu.Lock()
			if audit.shared == audit.reused {
				t.Errorf("%s: no status list was ever seen twice — nothing was shared, so nothing was checked", label)
			}
			if audit.reused == 0 {
				t.Errorf("%s: no view array was ever seen twice — the view memo shared nothing, so nothing was checked", label)
			}
			audit.mu.Unlock()
		}
	}
}
