package electd_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/electd"
	"repro/internal/rt"
	"repro/internal/transport"
	"repro/internal/wire"
)

// nullConn is a transport.Conn stub for driving Server.Handle directly;
// it counts the replies the server hands it.
type nullConn struct {
	sends atomic.Int64
}

func (c *nullConn) Send(m *wire.Msg) error { c.sends.Add(1); return nil }
func (c *nullConn) SendEncoded(frame []byte) error {
	c.sends.Add(1)
	wire.PutBuf(frame)
	return nil
}
func (c *nullConn) Close() error { return nil }

// propagateMsg builds one single-entry propagate request for an election.
func propagateMsg(election uint64, reg string, owner rt.ProcID, seq uint64, val rt.Value) *wire.Msg {
	return &wire.Msg{
		Kind: wire.KindPropagate, Election: election, Call: seq, From: owner, Reg: reg,
		Entries: []rt.Entry{{Reg: reg, Owner: owner, Seq: seq, Val: val}},
	}
}

// TestRemoveElectionIsShardLocal: state lands in per-election shards,
// RemoveElection evicts exactly the target instance, and the served
// counter — summed across shards — sees every answered request.
func TestRemoveElectionIsShardLocal(t *testing.T) {
	srv := electd.NewServer(0)
	conn := &nullConn{}
	const elections = 100
	for e := uint64(1); e <= elections; e++ {
		srv.Handle(conn, propagateMsg(e, "r", 1, 1, int(e)))
	}
	if got := srv.Elections(); got != elections {
		t.Fatalf("Elections() = %d, want %d", got, elections)
	}
	if got := srv.Served(); got != elections {
		t.Fatalf("Served() = %d, want %d", got, elections)
	}
	srv.RemoveElection(7)
	if got := srv.Elections(); got != elections-1 {
		t.Fatalf("Elections() after removal = %d, want %d", got, elections-1)
	}
	// Removing an absent instance is a no-op, not a panic.
	srv.RemoveElection(7)
	srv.RemoveElection(elections + 50)
	if got := srv.Elections(); got != elections-1 {
		t.Fatalf("Elections() after no-op removals = %d, want %d", got, elections-1)
	}
	// The removed instance's registers are gone: a collect answers the
	// empty view; the others still answer theirs.
	srv.Handle(conn, &wire.Msg{Kind: wire.KindCollect, Election: 7, Call: 200, From: 1, Reg: "r"})
	srv.Handle(conn, &wire.Msg{Kind: wire.KindCollect, Election: 8, Call: 201, From: 1, Reg: "r"})
	if got := srv.Served(); got != elections+2 {
		t.Fatalf("Served() after collects = %d, want %d", got, elections+2)
	}
}

// TestCrashRestartServerLevel: a crashed replica drops requests without
// replying; Restart revives it with its pre-crash register state intact.
func TestCrashRestartServerLevel(t *testing.T) {
	srv := electd.NewServer(0)
	conn := &nullConn{}
	srv.Handle(conn, propagateMsg(1, "r", 2, 1, "pre-crash"))
	if got := conn.sends.Load(); got != 1 {
		t.Fatalf("replies before crash = %d, want 1", got)
	}
	srv.Crash()
	if !srv.Crashed() {
		t.Fatal("Crashed() false after Crash")
	}
	srv.Handle(conn, propagateMsg(1, "r", 2, 2, "lost"))
	srv.Handle(conn, &wire.Msg{Kind: wire.KindCollect, Election: 1, Call: 9, From: 2, Reg: "r"})
	if got := conn.sends.Load(); got != 1 {
		t.Fatalf("a crashed server replied (%d sends)", got)
	}
	srv.Restart()
	if srv.Crashed() {
		t.Fatal("Crashed() true after Restart")
	}
	srv.Handle(conn, &wire.Msg{Kind: wire.KindCollect, Election: 1, Call: 10, From: 2, Reg: "r"})
	if got := conn.sends.Load(); got != 2 {
		t.Fatalf("restarted server did not reply (%d sends)", got)
	}
	if got := srv.Served(); got != 2 {
		t.Fatalf("Served() = %d, want 2 (crashed-window requests are lost)", got)
	}
}

// TestTeardownChurnUnderConcurrency is the teardown safety net for the
// sharded maps: many multiplexed elections run concurrently while finished
// instances are removed from the servers and a minority replica crashes
// and restarts in a loop. Every election must still decide a unique winner
// — a lost or cross-wired reply would surface as a hung run (no quorum), a
// double win, or an undecided participant. Run it under -race: the shard
// locks, the churned maps and the crash flag are exactly the state the
// sharding refactor split up.
func TestTeardownChurnUnderConcurrency(t *testing.T) {
	const (
		n         = 5
		k         = 3
		elections = 32
	)
	cl, err := electd.NewClusterWith(transport.NewLoopback(), n, electd.ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	finished := make(chan uint64, elections)
	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(2)
	// Teardown churn: evict each instance's state as soon as its run ends,
	// while elections on other shards are still in full flight.
	go func() {
		defer churn.Done()
		for e := range finished {
			cl.RemoveElection(e)
		}
	}()
	// Crash/restart churn on one replica — within the ⌈n/2⌉−1 budget, so
	// quorum liveness holds throughout. Server-level only: the loopback
	// connections stay up, the replica just drops requests while down.
	go func() {
		defer churn.Done()
		victim := cl.Server(rt.ProcID(n - 1))
		for {
			select {
			case <-stop:
				return
			default:
			}
			victim.Crash()
			time.Sleep(200 * time.Microsecond)
			victim.Restart()
			time.Sleep(200 * time.Microsecond)
		}
	}()

	var wg sync.WaitGroup
	results := make([][]core.Decision, elections)
	for e := 0; e < elections; e++ {
		wg.Add(1)
		go func(e int) {
			defer wg.Done()
			id := cl.NextElectionID()
			results[e] = electOnce(t, cl, id, k, int64(e)*977+1)
			finished <- id
		}(e)
	}
	wg.Wait()
	close(finished)
	close(stop)
	churn.Wait()

	for e, decisions := range results {
		uniqueWinner(t, fmt.Sprintf("churned election %d", e), decisions)
	}
	// The churned servers must have answered throughout.
	var served int64
	for i := 0; i < n; i++ {
		served += cl.Server(rt.ProcID(i)).Served()
	}
	if served == 0 {
		t.Fatal("no server answered anything")
	}
}
