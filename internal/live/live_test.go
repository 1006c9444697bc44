package live

import (
	"encoding/binary"
	"sync"
	"testing"

	"repro/internal/rt"
	"repro/internal/wire"
)

// TestQuorumIntersection: Propagate followed by a Collect on another
// processor must observe the write — the two majorities intersect.
func TestQuorumIntersection(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8} {
		sys := NewSystem(n, 1)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			NewComm(sys.Proc(0), nil).Propagate("reg", "hello")
		}()
		wg.Wait()

		// The writer reached a quorum; any later quorum collect intersects
		// it, so at least one view must carry the cell.
		var views []rt.View
		wg.Add(1)
		go func() {
			defer wg.Done()
			views = NewComm(sys.Proc(rt.ProcID(n-1)), nil).Collect("reg")
		}()
		wg.Wait()
		sys.Shutdown()

		if len(views) != n/2+1 {
			t.Fatalf("n=%d: collect returned %d views, want quorum %d", n, len(views), n/2+1)
		}
		found := false
		for _, v := range views {
			if val, ok := v.Get(0); ok && val == "hello" {
				found = true
			}
		}
		if !found {
			t.Fatalf("n=%d: completed propagate invisible to a later collect", n)
		}
	}
}

// TestWriterVersioning: a processor's later write must shadow its earlier
// one in every view that carries the cell.
func TestWriterVersioning(t *testing.T) {
	const n = 4
	sys := NewSystem(n, 1)
	var wg sync.WaitGroup
	var views []rt.View
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := NewComm(sys.Proc(0), nil)
		c.Propagate("reg", 1)
		c.Propagate("reg", 2)
		views = NewComm(sys.Proc(0), nil).Collect("reg")
	}()
	wg.Wait()
	sys.Shutdown()
	for _, v := range views {
		if val, ok := v.Get(0); ok && val != 2 {
			t.Fatalf("view from %d shows stale value %v after overwrite", v.From, val)
		}
	}
}

// TestConcurrentPropagateCollect hammers one register array from every
// processor at once; under -race this doubles as the memory-safety check
// for the store and snapshot paths.
func TestConcurrentPropagateCollect(t *testing.T) {
	const n = 8
	sys := NewSystem(n, 7)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id rt.ProcID) {
			defer wg.Done()
			c := NewComm(sys.Proc(id), nil)
			for round := 0; round < 20; round++ {
				c.Propagate("shared", round)
				views := c.Collect("shared")
				if len(views) < n/2+1 {
					t.Errorf("proc %d: %d views, want ≥ %d", id, len(views), n/2+1)
					return
				}
			}
		}(rt.ProcID(i))
	}
	wg.Wait()
	sys.Shutdown()
}

// TestSiftSurvivors: Claim 3.1 (at least one survivor) must hold on the
// live backend for both sift variants, at several sizes.
func TestSiftSurvivors(t *testing.T) {
	for _, algo := range []Algorithm{AlgoBasicSift, AlgoHetSift} {
		for _, n := range []int{1, 2, 7, 16} {
			res, err := Sift(Config{N: n, Seed: int64(n), Algorithm: algo})
			if err != nil {
				t.Fatalf("%s n=%d: %v", algo, n, err)
			}
			survivors := 0
			for _, o := range res.Outcomes {
				if o.String() == "SURVIVE" {
					survivors++
				}
			}
			if survivors < 1 {
				t.Fatalf("%s n=%d: no survivors", algo, n)
			}
		}
	}
}

// TestElectValidation: config errors are reported, not panicked.
func TestElectValidation(t *testing.T) {
	if _, err := Elect(Config{N: 0}); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := Elect(Config{N: 4, K: 5}); err == nil {
		t.Error("k>n accepted")
	}
	if _, err := Elect(Config{N: 1 << 13, K: 2}); err == nil {
		t.Error("n beyond the register store's owner bound accepted")
	}
	if _, err := Elect(Config{N: 4, Algorithm: AlgoBasicSift}); err == nil {
		t.Error("sift algorithm accepted by Elect")
	}
	if _, err := Sift(Config{N: 4, Algorithm: AlgoTournament}); err == nil {
		t.Error("election algorithm accepted by Sift")
	}
}

// TestMessagesAccounted: a two-processor election exchanges a plausible
// number of messages and reports a positive time metric.
func TestMessagesAccounted(t *testing.T) {
	res, err := Elect(Config{N: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages <= 0 {
		t.Error("no messages accounted for a 2-processor election")
	}
	if res.Time <= 0 {
		t.Error("zero communicate calls in an election")
	}
	if res.Elapsed <= 0 {
		t.Error("zero elapsed wall-clock time")
	}
}

// TestChanBytesMatchWireFrames: the chan substrate books the frame bodies
// wire.Append would write — for one Collect, its request to each peer and
// every view a server sent back, the tag uvarint of each included.
func TestChanBytesMatchWireFrames(t *testing.T) {
	const n = 5 // below the thrifty threshold: a call asks all n−1 peers
	sys := NewSystem(n, 1)
	defer sys.Shutdown()
	NewComm(sys.Proc(1), nil).Propagate("r", "payload") // so the views carry an entry
	sys.quiesce()
	bytes0, msgs0 := sys.Bytes(), sys.Messages()

	NewComm(sys.Proc(0), nil).Collect("r")
	sys.quiesce() // the stragglers' replies are booked too
	body := func(m *wire.Msg) int64 {
		frame, err := wire.Append(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		_, prefix := binary.Uvarint(frame)
		return int64(len(frame) - prefix)
	}
	var want int64
	for j := rt.ProcID(1); j < n; j++ {
		want += body(&wire.Msg{Kind: wire.KindCollect, Call: 1, From: 0, Reg: "r"})
		snap, _ := sys.Proc(j).regs.Snapshot("r")
		want += body(&wire.Msg{Kind: wire.KindView, Call: 1, From: j, Reg: "r", Entries: snap.Entries})
	}
	if got := sys.Messages() - msgs0; got != 2*(n-1) {
		t.Fatalf("the collect sent %d messages, want a request and a view per peer (%d)", got, 2*(n-1))
	}
	if got := sys.Bytes() - bytes0; got != want {
		t.Fatalf("the collect booked %d bytes, wire frames %d", got, want)
	}
}
