package electd

import (
	"encoding/binary"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/rt"
	"repro/internal/transport"
	"repro/internal/wire"
)

// discardConn is a transport.Conn stub that recycles reply frames, for
// driving Server.Handle from internal tests.
type discardConn struct{}

func (discardConn) Send(*wire.Msg) error { return nil }
func (discardConn) SendEncoded(frame []byte) error {
	wire.PutBuf(frame)
	return nil
}
func (discardConn) Close() error { return nil }

var _ transport.Conn = discardConn{}

// propagateFrame builds one single-entry propagate request.
func propagateFrame(election uint64, reg string, owner rt.ProcID, seq uint64, val rt.Value) *wire.Msg {
	return &wire.Msg{
		Kind: wire.KindPropagate, Election: election, Call: seq, From: owner, Reg: reg,
		Entries: []rt.Entry{{Reg: reg, Owner: owner, Seq: seq, Val: val}},
	}
}

// sameShardElections returns count distinct election IDs that all hash to
// one shard, so a churn test concentrates every operation on a single
// stripe instead of spreading across sixteen.
func sameShardElections(count int) []uint64 {
	want := electionShard(1)
	ids := make([]uint64, 0, count)
	for id := uint64(1); len(ids) < count; id++ {
		if electionShard(id) == want {
			ids = append(ids, id)
		}
	}
	return ids
}

// TestSteadyStateHotPathTakesNoLock is the acceptance check of the
// lock-free pass, stated as a counted fact rather than a claim: once an
// election instance exists, concurrent propagates and collects — the
// steady state — acquire the shard mutex exactly zero times. LockedOps
// counts every request-path acquisition (instance admission only), so a
// zero delta across the hammering window is the assertion.
func TestSteadyStateHotPathTakesNoLock(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	srv := NewServer(0)
	conn := discardConn{}

	const elections = 8
	for e := uint64(1); e <= elections; e++ {
		srv.Handle(conn, propagateFrame(e, "r", 1, 1, 0))
	}
	created := srv.LockedOps()
	if created != elections {
		t.Fatalf("LockedOps after creating %d instances = %d, want %d", elections, created, elections)
	}

	const workers = 8
	const opsPerWorker = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			owner := rt.ProcID(w + 2)
			for i := 0; i < opsPerWorker; i++ {
				e := uint64(1 + (w+i)%elections)
				if i%3 == 0 {
					srv.Handle(conn, &wire.Msg{Kind: wire.KindCollect, Election: e, Call: uint64(i), From: owner, Reg: "r"})
				} else {
					srv.Handle(conn, propagateFrame(e, "r", owner, uint64(i+2), i))
				}
			}
		}(w)
	}
	wg.Wait()

	if got := srv.LockedOps(); got != created {
		t.Fatalf("steady-state hot path acquired the shard mutex %d time(s); want 0 (LockedOps %d → %d)", got-created, created, got)
	}
	if got := srv.Served(); got < int64(elections+workers*opsPerWorker) {
		t.Fatalf("Served() = %d, want ≥ %d", got, elections+workers*opsPerWorker)
	}
}

// TestOneShardChurnCollectPropagateEvictRestart aims every operation the
// server supports at a single shard at once: steady-state propagates and
// collects, instance creation, explicit removal, TTL/LRU sweeping, and
// crash/restart — the lifecycle half mutating the published map under the
// shard mutex while the hot path reads it lock-free. Run under -race this
// is the memory-model check for the RCU map; the invariant checked here
// is merely that nothing deadlocks, panics, or loses the shard's served
// accounting.
func TestOneShardChurnCollectPropagateEvictRestart(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	srv := NewServerOpts(0, ServerOptions{
		TTL:             2 * time.Millisecond,
		SweepInterval:   time.Millisecond,
		MaxLivePerShard: 8,
	})
	defer srv.Close()
	conn := discardConn{}
	// Four rings' worth of IDs: an explicitly removed one is refused until
	// retiredRing further removals age it out, so with the evictor cycling
	// through this many, every ID keeps coming back — re-creation and
	// refusal both stay in the mix.
	ids := sameShardElections(4 * retiredRing)

	// exercised is what the run must have seen to count: instances re-created
	// past the ID set, removals of either kind, and refused late propagates.
	exercised := func() bool {
		return srv.Started() > int64(len(ids)) && srv.Evicted()+srv.removed.Load() > 0 && srv.LatePropagates() > 0
	}
	// Run for 150 ms, then — on a host too busy to have got that far — until
	// the churn has been exercised, within reason.
	stop := make(chan struct{})
	go func() {
		defer close(stop)
		time.Sleep(150 * time.Millisecond)
		for limit := time.Now().Add(5 * time.Second); !exercised() && time.Now().Before(limit); {
			time.Sleep(10 * time.Millisecond)
		}
	}()
	var wg sync.WaitGroup

	// Steady-state + creation traffic: propagates recreate whatever the
	// sweeper tore down, and what the evictor goroutine did once the ID
	// has aged out of the shard's retired ring.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			owner := rt.ProcID(w + 1)
			for seq := uint64(1); ; seq++ {
				select {
				case <-stop:
					return
				default:
				}
				e := ids[int(seq)%len(ids)]
				srv.Handle(conn, propagateFrame(e, "r", owner, seq, w))
				srv.Handle(conn, &wire.Msg{Kind: wire.KindCollect, Election: e, Call: seq, From: owner, Reg: "r"})
			}
		}(w)
	}
	// Eviction churn: explicit removal racing the sweeper.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			srv.RemoveElection(ids[i%len(ids)])
		}
	}()
	// Restart churn: the crash flag flips while requests are in flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			srv.Crash()
			srv.Restart()
		}
	}()
	wg.Wait()

	srv.Restart()
	served := srv.Served()
	srv.Handle(conn, &wire.Msg{Kind: wire.KindCollect, Election: ids[0], Call: 1, From: 1, Reg: "r"})
	if got := srv.Served(); got != served+1 {
		t.Fatalf("served accounting drifted: %d → %d after one request", served, got)
	}
	if !exercised() {
		t.Fatalf("churn test exercised too little: started=%d (of %d ids) evicted=%d removed=%d late=%d",
			srv.Started(), len(ids), srv.Evicted(), srv.removed.Load(), srv.LatePropagates())
	}
}

// kindConn records the kind of the last reply frame the server sent.
type kindConn struct{ last wire.Kind }

func (c *kindConn) Send(*wire.Msg) error { return nil }
func (c *kindConn) SendEncoded(frame []byte) error {
	_, n := binary.Uvarint(frame)
	c.last = wire.Kind(frame[n])
	wire.PutBuf(frame)
	return nil
}
func (c *kindConn) Close() error { return nil }

// TestRemovedElectionIsNotReadmitted: RemoveElection retires the ID. A
// propagate arriving afterwards — what a finished election's straggling
// broadcasts are — is answered busy, creates no state, and is counted as
// late, not as shed; that holds for an ID this replica never hosted (a slow
// replica's first propagate can come after the removal); collects of a
// removed election still read the empty view; and the ring is bounded, so
// after retiredRing further removals on the shard the ID is admitted again.
func TestRemovedElectionIsNotReadmitted(t *testing.T) {
	srv := NewServer(0)
	conn := &kindConn{}
	ids := sameShardElections(retiredRing + 1)
	gone, never, fillers := ids[0], ids[1], ids[2:]

	srv.Handle(conn, propagateFrame(gone, "r", 1, 1, 0))
	if conn.last != wire.KindAck || srv.Elections() != 1 {
		t.Fatalf("first propagate: reply %v, %d instances", conn.last, srv.Elections())
	}
	srv.RemoveElection(gone)
	srv.RemoveElection(never)
	locked := srv.LockedOps()
	for i, e := range []uint64{gone, never, gone} {
		srv.Handle(conn, propagateFrame(e, "r", 1, uint64(i+2), 0))
		if conn.last != wire.KindBusy {
			t.Fatalf("propagate %d for removed election %d answered %v, want busy", i, e, conn.last)
		}
	}
	if got := srv.Elections(); got != 0 {
		t.Fatalf("%d instances re-admitted after RemoveElection", got)
	}
	if late, shed, started := srv.LatePropagates(), srv.Shed(), srv.Started(); late != 3 || shed != 0 || started != 1 {
		t.Fatalf("late=%d shed=%d started=%d, want 3, 0, 1", late, shed, started)
	}
	if got := srv.LockedOps() - locked; got != 3 {
		t.Fatalf("refusals took the shard lock %d times, want once each (admit's slow path)", got)
	}
	srv.Handle(conn, &wire.Msg{Kind: wire.KindCollect, Election: gone, Call: 9, From: 1, Reg: "r"})
	if conn.last != wire.KindView || srv.Elections() != 0 {
		t.Fatalf("collect of a removed election: reply %v, %d instances", conn.last, srv.Elections())
	}

	// The ring forgets, oldest first: retiredRing-2 more removals fill it
	// around the two IDs above, and the next one overwrites gone's slot.
	for _, e := range fillers[:retiredRing-2] {
		srv.RemoveElection(e)
	}
	srv.Handle(conn, propagateFrame(gone, "r", 1, 10, 0))
	if conn.last != wire.KindBusy {
		t.Fatalf("election %d re-admitted while still among the last %d removed", gone, retiredRing)
	}
	srv.RemoveElection(fillers[retiredRing-2])
	srv.Handle(conn, propagateFrame(gone, "r", 1, 11, 0))
	if conn.last != wire.KindAck || srv.Elections() != 1 {
		t.Fatalf("after %d further removals: reply %v, %d instances — the retired ring is not bounded", retiredRing, conn.last, srv.Elections())
	}
}

// TestAdmissionControlExactUnderRace: MaxLivePerShard is enforced with an
// exact count even when many creators race for the last slots — the one
// job the remaining request-path lock exists to do.
func TestAdmissionControlExactUnderRace(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const bound = 4
	srv := NewServerOpts(0, ServerOptions{MaxLivePerShard: bound})
	defer srv.Close()
	conn := discardConn{}
	ids := sameShardElections(32)

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(owner rt.ProcID) {
			defer wg.Done()
			for _, e := range ids {
				srv.Handle(conn, propagateFrame(e, "r", owner, 1, 0))
			}
		}(rt.ProcID(w + 1))
	}
	wg.Wait()

	if got := srv.Elections(); got != bound {
		t.Fatalf("shard holds %d instances, want exactly the bound %d", got, bound)
	}
	if srv.Shed() == 0 {
		t.Fatal("no propagate was shed despite 32 elections racing for 4 slots")
	}
}
