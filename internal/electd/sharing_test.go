package electd_test

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/electd"
	"repro/internal/rt"
	"repro/internal/transport"
	"repro/internal/wire"
)

// listAudit wraps a Network and watches every decoded message on its way
// to the servers and to the pool: the first time a status list's backing
// array is seen its contents are copied aside, and every later sighting —
// and a final sweep — must find the array unchanged. The read loops'
// decoders intern values, so the same array reaches many views and many
// participants; anything that wrote through one (an in-place sort, an
// append into spare capacity) would be caught here by value, and under
// -race by the detector, since the audit reads on the read loops while
// participants run.
type listAudit struct {
	transport.Network
	mu     sync.Mutex
	lists  map[*rt.ProcID][]rt.ProcID
	shared int      // sightings of an array already on record
	broken []string // arrays found changed, reported by the test goroutine
}

func (a *listAudit) Listen(h transport.Handler) (transport.Listener, error) {
	return a.Network.Listen(func(c transport.Conn, m *wire.Msg) { a.check(m); h(c, m) })
}

func (a *listAudit) Dial(addr string, h transport.Handler) (transport.Conn, error) {
	return a.Network.Dial(addr, func(c transport.Conn, m *wire.Msg) { a.check(m); h(c, m) })
}

func (a *listAudit) check(m *wire.Msg) {
	a.mu.Lock()
	defer a.mu.Unlock()
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

// TestSharedStatusListsAreNeverWritten runs an election grid over both
// stream substrates with the audit in place: interned values really are
// shared between views, and no consumer in core ever writes through one.
func TestSharedStatusListsAreNeverWritten(t *testing.T) {
	networks := map[string]func() transport.Network{
		"loopback": func() transport.Network { return transport.NewLoopback() },
		"tcp":      func() transport.Network { return transport.NewTCP() },
	}
	for name, mk := range networks {
		for _, n := range []int{4, 8} {
			audit := &listAudit{Network: mk(), lists: map[*rt.ProcID][]rt.ProcID{}}
			cl, err := electd.NewCluster(audit, n)
			if err != nil {
				t.Fatal(err)
			}
			for seed := int64(1); seed <= 3; seed++ {
				label := fmt.Sprintf("%s n=%d seed=%d", name, n, seed)
				uniqueWinner(t, label, electOnce(t, cl, uint64(seed), n, seed))
			}
			cl.Close()

			audit.mu.Lock()
			for first, want := range audit.lists {
				if got := unsafe.Slice(first, len(want)); !slices.Equal(got, want) {
					t.Errorf("%s n=%d: shared status list mutated after the run: %v, was %v", name, n, got, want)
				}
			}
			for _, b := range audit.broken {
				t.Errorf("%s n=%d: shared status list mutated during the run: %s", name, n, b)
			}
			if audit.shared == 0 {
				t.Errorf("%s n=%d: no status list was ever seen twice — nothing was shared, so nothing was checked", name, n)
			}
			audit.mu.Unlock()
		}
	}
}
