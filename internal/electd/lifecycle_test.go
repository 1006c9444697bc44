package electd_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/electd"
	"repro/internal/obs"
	"repro/internal/rt"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestTTLEvictionReclaimsIdleInstances: instances nobody touches for the
// TTL disappear on their own, and the eviction counter says so — the
// standalone-daemon garbage collection RemoveElection callers don't need.
func TestTTLEvictionReclaimsIdleInstances(t *testing.T) {
	cl, err := electd.NewClusterWith(transport.NewLoopback(), 3, electd.ClusterOptions{
		Server: electd.ServerOptions{TTL: 30 * time.Millisecond, SweepInterval: 5 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for e := 0; e < 8; e++ {
		uniqueWinner(t, fmt.Sprintf("election %d", e), electOnce(t, cl, cl.NextElectionID(), 3, int64(e+1)))
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		live := 0
		for i := 0; i < cl.N(); i++ {
			live += cl.Server(rt.ProcID(i)).Elections()
		}
		if live == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d instances still live long past their TTL", live)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i := 0; i < cl.N(); i++ {
		if ev := cl.Server(rt.ProcID(i)).Evicted(); ev == 0 {
			t.Fatalf("server %d reclaimed state without counting it", i)
		}
	}
}

// TestAdmissionBoundShedsWithBusyReply: a server at its per-shard bound
// answers instance-creating propagates with an explicit busy reply — never
// silence — while existing instances keep being served. 17 distinct IDs
// over 16 shards guarantee a collision by pigeonhole.
func TestAdmissionBoundShedsWithBusyReply(t *testing.T) {
	srv := electd.NewServerOpts(0, electd.ServerOptions{MaxLivePerShard: 1})
	defer srv.Close()
	nw := transport.NewLoopback()
	ln, err := nw.Listen(srv.Handle)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	got := make(chan *wire.Msg, 64)
	conn, err := nw.Dial(ln.Addr(), func(_ transport.Conn, m *wire.Msg) { got <- m })
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	acks, busies := 0, 0
	for e := uint64(1); e <= 17; e++ {
		conn.Send(&wire.Msg{ //nolint:errcheck
			Kind: wire.KindPropagate, Election: e, Call: e, From: 1, Reg: "r",
			Entries: []rt.Entry{{Reg: "r", Owner: 1, Seq: 1, Val: 7}},
		})
		select {
		case m := <-got:
			switch m.Kind {
			case wire.KindAck:
				acks++
			case wire.KindBusy:
				busies++
				if m.Call != e {
					t.Fatalf("busy reply for call %d, want %d", m.Call, e)
				}
			default:
				t.Fatalf("unexpected reply kind %v", m.Kind)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("no reply to propagate %d — sheds must be explicit, not silent", e)
		}
	}
	if busies == 0 {
		t.Fatalf("17 instances over 16 shards at bound 1 shed nothing (%d acks)", acks)
	}
	if acks == 0 {
		t.Fatal("every propagate shed; the bound should admit one instance per shard")
	}
	if srv.Shed() != int64(busies) {
		t.Fatalf("shed counter %d != %d busy replies observed", srv.Shed(), busies)
	}
	// An admitted instance stays servable at the bound.
	conn.Send(&wire.Msg{ //nolint:errcheck
		Kind: wire.KindPropagate, Election: 1, Call: 100, From: 1, Reg: "r",
		Entries: []rt.Entry{{Reg: "r", Owner: 1, Seq: 2, Val: 8}},
	})
	select {
	case m := <-got:
		if m.Kind != wire.KindAck {
			t.Fatalf("existing instance refused at the bound: %v", m.Kind)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no reply for an existing instance")
	}
}

// TestBusyErrorSurfacesToClient: a shed propagate unwinds the participant
// through the pool as a typed, retryable *BusyError via CatchBusy — the
// client-side half of admission control.
func TestBusyErrorSurfacesToClient(t *testing.T) {
	cl, err := electd.NewClusterWith(transport.NewLoopback(), 1, electd.ClusterOptions{
		Server: electd.ServerOptions{MaxLivePerShard: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var firstBusy error
	for e := 0; e < 17; e++ {
		id := cl.NextElectionID()
		c := cl.NewComm(electd.NewParticipant(0, 1, int64(e+1)), id, nil)
		if err := electd.CatchBusy(func() { c.Propagate("r", rt.Value(e)) }); err != nil {
			firstBusy = err
			break
		}
	}
	if firstBusy == nil {
		t.Fatal("17 instances over 16 shards at bound 1 never surfaced a BusyError")
	}
	var be *electd.BusyError
	if !errors.As(firstBusy, &be) {
		t.Fatalf("shed surfaced as %T (%v), want *BusyError", firstBusy, firstBusy)
	}
	if !be.Temporary() {
		t.Fatal("BusyError must be retryable (Temporary)")
	}
}

// TestDrainStopsAdmittingFinishesInFlight: drain mode refuses new
// elections with busy replies, keeps serving in-flight ones, and Drain
// reclaims everything once they go idle.
func TestDrainStopsAdmittingFinishesInFlight(t *testing.T) {
	cl, err := electd.NewClusterWith(transport.NewLoopback(), 1, electd.ClusterOptions{
		Server: electd.ServerOptions{DrainIdle: 20 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	inflight := cl.NewComm(electd.NewParticipant(0, 2, 1), cl.NextElectionID(), nil)
	inflight.Propagate("r", 1) // instance exists before the drain begins

	cl.BeginDrain()
	if !cl.Server(0).Draining() {
		t.Fatal("BeginDrain did not mark the server draining")
	}
	// In-flight work keeps going...
	if err := electd.CatchBusy(func() { inflight.Propagate("r", 2) }); err != nil {
		t.Fatalf("draining server refused an in-flight election: %v", err)
	}
	// ...new elections do not start.
	fresh := cl.NewComm(electd.NewParticipant(1, 2, 2), cl.NextElectionID(), nil)
	err = electd.CatchBusy(func() { fresh.Propagate("r", 1) })
	var be *electd.BusyError
	if !errors.As(err, &be) {
		t.Fatalf("draining server admitted a new election (err=%v)", err)
	}

	if err := cl.Drain(5 * time.Second); err != nil {
		t.Fatalf("drain of an idle cluster failed: %v", err)
	}
	if live := cl.Server(0).Elections(); live != 0 {
		t.Fatalf("%d instances survived a completed drain", live)
	}
}

// TestDrainDeadlineReportsStragglers: a drain that cannot quiesce in time
// returns an error naming the live instances instead of hanging — the
// signal cmd/electd turns into a non-zero exit.
func TestDrainDeadlineReportsStragglers(t *testing.T) {
	srv := electd.NewServerOpts(0, electd.ServerOptions{DrainIdle: time.Hour})
	defer srv.Close()
	nw := transport.NewLoopback()
	ln, err := nw.Listen(srv.Handle)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	conn, err := nw.Dial(ln.Addr(), func(_ transport.Conn, m *wire.Msg) {})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Send(&wire.Msg{ //nolint:errcheck
		Kind: wire.KindPropagate, Election: 1, Call: 1, From: 1, Reg: "r",
		Entries: []rt.Entry{{Reg: "r", Owner: 1, Seq: 1, Val: 7}},
	})
	deadline := time.Now().Add(5 * time.Second)
	for srv.Elections() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("propagate never landed")
		}
		time.Sleep(time.Millisecond)
	}
	if err := srv.Drain(50 * time.Millisecond); err == nil {
		t.Fatal("drain reported success with an instance that can never go idle")
	}
}

// TestRestartRacesRemovalAndSweeper: Server.Restart churning against
// explicit RemoveElection and the background sweeper on the same shards,
// with multiplexed elections running throughout — the shard-lifecycle
// torture test. Run under -race this pins the locking contract; the TTL is
// generous so the sweeper exercises the locks without evicting live
// elections mid-flight.
func TestRestartRacesRemovalAndSweeper(t *testing.T) {
	const n, k = 3, 3
	cl, err := electd.NewClusterWith(transport.NewLoopback(), n, electd.ClusterOptions{
		Server: electd.ServerOptions{TTL: 60 * time.Second, SweepInterval: time.Millisecond, MaxLivePerShard: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	stop := make(chan struct{})
	var churn sync.WaitGroup
	// Replica 0 flaps: crashed replicas drop requests (the quorum rides on
	// the other two), restarted ones serve whatever state they kept.
	churn.Add(1)
	go func() {
		defer churn.Done()
		srv := cl.Server(0)
		for {
			select {
			case <-stop:
				return
			default:
				srv.Crash()
				time.Sleep(200 * time.Microsecond)
				srv.Restart()
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()

	var wg sync.WaitGroup
	results := make([][]core.Decision, 24)
	for e := range results {
		wg.Add(1)
		go func(e int) {
			defer wg.Done()
			id := cl.NextElectionID()
			results[e] = electOnce(t, cl, id, k, int64(e+1))
			cl.RemoveElection(id) // removal races the sweeper and the flapping
		}(e)
	}
	wg.Wait()
	close(stop)
	churn.Wait()
	cl.Server(0).Restart()
	for e, decisions := range results {
		uniqueWinner(t, fmt.Sprintf("flapping election %d", e), decisions)
	}
}

// TestByteAccountingInvariantUnderMetrics: the paper's payload-byte and
// message accounting must not move when observability and eviction are
// switched on — metrics are read-side, and transport counters are a
// different ledger. n=1 makes every reply quorum-counted (no straggler
// races), so the comparison is exact equality.
func TestByteAccountingInvariantUnderMetrics(t *testing.T) {
	workload := func(opts electd.ClusterOptions) (calls int, msgs, bytes int64) {
		cl, err := electd.NewClusterWith(transport.NewLoopback(), 1, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		c := cl.NewComm(electd.NewParticipant(0, 4, 42), cl.NextElectionID(), nil)
		for i := 0; i < 10; i++ {
			c.Propagate(fmt.Sprintf("r%d", i%3), rt.Value(i))
			c.Collect(fmt.Sprintf("r%d", i%3))
		}
		return c.Calls(), c.Messages(), c.Bytes()
	}

	calls0, msgs0, bytes0 := workload(electd.ClusterOptions{})
	reg := obs.NewRegistry()
	calls1, msgs1, bytes1 := workload(electd.ClusterOptions{
		Pool: electd.PoolOptions{Metrics: reg},
		Server: electd.ServerOptions{
			TTL: 200 * time.Millisecond, SweepInterval: 20 * time.Millisecond, Metrics: reg,
		},
	})
	if calls0 != calls1 || msgs0 != msgs1 || bytes0 != bytes1 {
		t.Fatalf("accounting moved under metrics+eviction: calls %d→%d, msgs %d→%d, bytes %d→%d",
			calls0, calls1, msgs0, msgs1, bytes0, bytes1)
	}
	if bytes0 == 0 {
		t.Fatal("byte accounting went silent")
	}
	// And the observability side saw the instrumented run.
	snap := reg.Snapshot()
	if snap.Total("electd_requests_served_total") == 0 {
		t.Fatal("metrics registered but counted nothing")
	}
}

// TestClusterMetricsEndToEnd: a metrics-enabled cluster's registry agrees
// with the servers' own counters after a real election, and the registry
// snapshot carries the latency histogram the pool feeds.
func TestClusterMetricsEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	cl, err := electd.NewClusterWith(transport.NewLoopback(), 3, electd.ClusterOptions{
		Pool:   electd.PoolOptions{Metrics: reg},
		Server: electd.ServerOptions{Metrics: reg},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	uniqueWinner(t, "metrics election", electOnce(t, cl, cl.NextElectionID(), 3, 9))

	// The election's last broadcasts are still landing on the slowest
	// replica — a quorum of 2 lets the election finish before the third
	// replica has seen its first propagate — so wait until every replica
	// has started its instance, and take the snapshot between two reads of
	// the servers' own counters that agree. Nothing is removed before this
	// point, so the third propagate always lands.
	total := func() (served int64) {
		for i := 0; i < cl.N(); i++ {
			served += cl.Server(rt.ProcID(i)).Served()
		}
		return served
	}
	var (
		served   int64
		snap     obs.Snapshot
		deadline = time.Now().Add(10 * time.Second)
	)
	for {
		served = total()
		snap = reg.Snapshot()
		started := snap.Total("electd_elections_started_total")
		if started > 3 {
			t.Fatalf("started total %d, want 3 (one instance per replica)", started)
		}
		if started == 3 && total() == served {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("started total %d after 10s, want 3 (one instance per replica); served %d", started, served)
		}
		time.Sleep(time.Millisecond)
	}
	if got := snap.Total("electd_requests_served_total"); got != served {
		t.Fatalf("metrics served %d != servers' %d", got, served)
	}
	h, ok := snap.Histogram("electd_quorum_roundtrip_usec")
	if !ok || h.Count == 0 {
		t.Fatal("quorum round-trip histogram recorded nothing")
	}
	// The pool counts a request when it hands it to a connection, the
	// server when it has answered: the last one or two may still be in
	// flight, never the other way round.
	if got := snap.Total("electd_pool_requests_total"); got < served || served == 0 {
		t.Fatalf("pool sent %d requests, servers served %d", got, served)
	}
}
