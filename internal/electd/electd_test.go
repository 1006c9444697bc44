package electd_test

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
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

// electOnce runs one k-participant leader election on the cluster under the
// given election ID and returns the decisions.
func electOnce(t *testing.T, cl *electd.Cluster, election uint64, k int, seed int64) []core.Decision {
	t.Helper()
	decisions := make([]core.Decision, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := electd.NewParticipant(rt.ProcID(i), cl.N(), seed+int64(i)*1e6)
			c := cl.NewComm(p, election, nil)
			defer c.Leave()
			s := core.NewState(p, "leaderelect")
			decisions[i] = core.LeaderElectWithState(c, "elect", s)
		}(i)
	}
	wg.Wait()
	return decisions
}

// uniqueWinner asserts the safety contract on one election's decisions.
func uniqueWinner(t *testing.T, label string, decisions []core.Decision) rt.ProcID {
	t.Helper()
	winner := rt.ProcID(-1)
	for i, d := range decisions {
		switch d {
		case core.Win:
			if winner >= 0 {
				t.Fatalf("%s: processors %d and %d both won", label, winner, i)
			}
			winner = rt.ProcID(i)
		case core.Lose:
		default:
			t.Fatalf("%s: participant %d undecided (%v)", label, i, d)
		}
	}
	if winner < 0 {
		t.Fatalf("%s: no winner", label)
	}
	return winner
}

// TestElectionOverLoopback: the full PoisonPill election through servers,
// pool and codec on the in-process network, across sizes and seeds.
func TestElectionOverLoopback(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 16} {
		for seed := int64(1); seed <= 3; seed++ {
			cl, err := electd.NewCluster(transport.NewLoopback(), n)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("n=%d seed=%d", n, seed)
			uniqueWinner(t, label, electOnce(t, cl, 1, n, seed))
			cl.Close()
		}
	}
}

// TestPoolElectRejectsParticipantCount: k outside [1, regstore.MaxOwners]
// is an error before any participant starts — a participant id beyond the
// register store's owners would have its cells dropped by every replica —
// so no server sees a request.
func TestPoolElectRejectsParticipantCount(t *testing.T) {
	const n = 3
	cl, err := electd.NewCluster(transport.NewLoopback(), n)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for _, k := range []int{0, regstore.MaxOwners + 1} {
		if _, err := cl.Pool().Elect(cl.NextElectionID(), k, 1); err == nil {
			t.Errorf("k=%d accepted", k)
		}
	}
	for i := range n {
		if got := cl.Server(rt.ProcID(i)).Served(); got != 0 {
			t.Errorf("server %d served %d requests of rejected elections", i, got)
		}
	}
}

// TestMultiplexedElections: many elections share one server set
// concurrently, each with its own ID; every instance elects a unique
// winner and the servers host disjoint per-instance state.
func TestMultiplexedElections(t *testing.T) {
	const n, k, elections = 5, 4, 24
	cl, err := electd.NewCluster(transport.NewLoopback(), n)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var wg sync.WaitGroup
	results := make([][]core.Decision, elections)
	for e := 0; e < elections; e++ {
		wg.Add(1)
		go func(e int) {
			defer wg.Done()
			results[e] = electOnce(t, cl, cl.NextElectionID(), k, int64(e+1))
		}(e)
	}
	wg.Wait()
	for e, decisions := range results {
		uniqueWinner(t, fmt.Sprintf("election %d", e), decisions)
	}
	for i := 0; i < n; i++ {
		if got := cl.Server(rt.ProcID(i)).Elections(); got == 0 {
			t.Fatalf("server %d hosted no election state", i)
		}
	}
	// Finished instances must be evictable: retention is caller-driven
	// (the campaign engine drops each election as its run completes).
	for e := uint64(1); e <= elections; e++ {
		cl.RemoveElection(e)
	}
	for i := 0; i < n; i++ {
		if got := cl.Server(rt.ProcID(i)).Elections(); got != 0 {
			t.Fatalf("server %d still hosts %d elections after RemoveElection", i, got)
		}
	}
}

// TestStragglersDoNotReadmitRemovedElections: a broadcast outlives its
// quorum, so when an election finishes and is removed, requests to the
// slowest server are still on their way. Here every request to the last
// server rides a 2 ms delay: each election completes on the other two and
// is removed at once, and its tail of propagates lands afterwards. Those
// must not re-create the instance — on a server without a TTL it would
// live forever, one leaked instance per straggler-hit election — and must
// be counted as late, not as admission sheds.
func TestStragglersDoNotReadmitRemovedElections(t *testing.T) {
	const n, k, elections = 3, 3, 20
	cl, err := electd.NewCluster(transport.NewLoopback(), n)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	slow := cl.Server(n - 1)
	slowLast := &fault.Profile{Delay: func(server int) time.Duration {
		if server == n-1 {
			return 2 * time.Millisecond
		}
		return 0
	}}
	sent := int64(0) // requests addressed to each server: one per communicate call
	for e := 0; e < elections; e++ {
		id := cl.NextElectionID()
		clients := make([]*electd.Client, k)
		decisions := make([]core.Decision, k)
		var wg sync.WaitGroup
		for i := range clients {
			p := electd.NewParticipant(rt.ProcID(i), n, int64(e*k+i+1))
			clients[i] = cl.NewComm(p, id, slowLast)
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer clients[i].Leave()
				decisions[i] = core.LeaderElectWithState(clients[i], "elect", core.NewState(p, "leaderelect"))
			}(i)
		}
		wg.Wait()
		cl.RemoveElection(id) // every participant has returned; the slow server's tail has not landed
		uniqueWinner(t, fmt.Sprintf("election %d", e), decisions)
		for _, c := range clients {
			sent += int64(c.Calls())
		}
	}
	for deadline := time.Now().Add(10 * time.Second); slow.Served() < sent; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("slow server answered %d of the %d requests sent to it", slow.Served(), sent)
		}
	}
	for j := 0; j < n; j++ {
		if got := cl.Server(rt.ProcID(j)).Elections(); got != 0 {
			t.Errorf("server %d hosts %d instances after all %d elections were removed", j, got, elections)
		}
	}
	if slow.LatePropagates() == 0 {
		t.Error("no propagate reached the slow server after its election was removed — the test exercised nothing")
	}
	if got := slow.Shed(); got != 0 {
		t.Errorf("%d late propagates were counted as admission sheds", got)
	}
}

// TestClientServerSplitOverTCP: participants in a "separate process" shape —
// their own DialPool over real TCP sockets, servers behind listeners — with
// more participants than servers (clients are not replicas).
func TestClientServerSplitOverTCP(t *testing.T) {
	const n, k = 3, 7
	nw := transport.NewTCP()
	cl, err := electd.NewCluster(nw, n)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// A second, independent client pool, as a separate participant process
	// would build — the cluster's own pool is not used.
	pool, err := electd.DialPool(nw, cl.Addrs())
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	decisions := make([]core.Decision, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := electd.NewParticipant(rt.ProcID(i), k, int64(i+1))
			c := pool.NewComm(p, 42, nil)
			defer c.Leave()
			s := core.NewState(p, "leaderelect")
			decisions[i] = core.LeaderElectWithState(c, "elect", s)
		}(i)
	}
	wg.Wait()
	uniqueWinner(t, "tcp split", decisions)
}

// TestQuorumSurvivesServerCrashes: with ⌈n/2⌉−1 servers crashed, elections
// still complete with a unique winner — participants only ever wait for the
// majority that stays up.
func TestQuorumSurvivesServerCrashes(t *testing.T) {
	for _, n := range []int{3, 5, 9} {
		cl, err := electd.NewCluster(transport.NewLoopback(), n)
		if err != nil {
			t.Fatal(err)
		}
		crashes := (n - 1) / 2
		for i := 0; i < crashes; i++ {
			cl.Crash(rt.ProcID(i))
		}
		label := fmt.Sprintf("n=%d crashed=%d", n, crashes)
		uniqueWinner(t, label, electOnce(t, cl, 1, n, 7))
		cl.Close()
	}
}

// TestDialToleratesDeadMinority: a client pool must come up with up to
// ⌈n/2⌉−1 servers unreachable at dial time (the same fault as a later
// crash) and still elect; one server short of a majority must fail loudly.
func TestDialToleratesDeadMinority(t *testing.T) {
	const n = 5
	nw := transport.NewLoopback()
	cl, err := electd.NewCluster(nw, n)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	addrs := cl.Addrs()
	addrs[1] = "loop:9991" // never listened
	addrs[3] = "loop:9993"
	pool, err := electd.DialPool(nw, addrs)
	if err != nil {
		t.Fatalf("dial with a dead minority: %v", err)
	}
	defer pool.Close()
	decisions := make([]core.Decision, 3)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := electd.NewParticipant(rt.ProcID(i), 3, int64(i+1))
			c := pool.NewComm(p, 8, nil)
			defer c.Leave()
			decisions[i] = core.LeaderElectWithState(c, "elect", core.NewState(p, "leaderelect"))
		}(i)
	}
	wg.Wait()
	uniqueWinner(t, "dead minority", decisions)

	addrs[0] = "loop:9990" // three dead: majority impossible
	if _, err := electd.DialPool(nw, addrs); err == nil {
		t.Fatal("pool came up without a reachable majority")
	}
}

// countingNetwork wraps a Network and counts the connections it hands out
// and the Closes they receive — the instrumentation for pinning connection
// lifecycle contracts.
type countingNetwork struct {
	transport.Network
	dialed atomic.Int64
	closed atomic.Int64
}

func (n *countingNetwork) Dial(addr string, h transport.Handler) (transport.Conn, error) {
	c, err := n.Network.Dial(addr, h)
	if err != nil {
		return nil, err
	}
	n.dialed.Add(1)
	return &countingConn{Conn: c, net: n}, nil
}

type countingConn struct {
	transport.Conn
	net  *countingNetwork
	once sync.Once
}

func (c *countingConn) Close() error {
	c.once.Do(func() { c.net.closed.Add(1) })
	return c.Conn.Close()
}

// TestDialFailureClosesDialedConns: when DialPool gives up because a
// majority is unreachable, the minority of connections it did establish
// must be closed, not leaked — a client retrying startup in a loop would
// otherwise accumulate sockets.
func TestDialFailureClosesDialedConns(t *testing.T) {
	const n = 5
	lo := transport.NewLoopback()
	cl, err := electd.NewCluster(lo, n)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	addrs := cl.Addrs()
	addrs[1] = "loop:9991" // three dead: majority impossible
	addrs[2] = "loop:9992"
	addrs[3] = "loop:9993"
	nw := &countingNetwork{Network: lo}
	if _, err := electd.DialPool(nw, addrs); err == nil {
		t.Fatal("pool came up without a reachable majority")
	}
	if d := nw.dialed.Load(); d != 2 {
		t.Fatalf("dialed %d connections, want 2", d)
	}
	if c := nw.closed.Load(); c != 2 {
		t.Fatalf("startup failure closed %d of 2 dialed connections — the rest leaked", c)
	}
}

// failAfterNetwork counts dials through countingNetwork but fails every
// dial after the first ok successes — the instrument for a startup where
// only a minority of the servers can be reached.
type failAfterNetwork struct {
	countingNetwork
	ok       int64
	attempts atomic.Int64
}

func (n *failAfterNetwork) Dial(addr string, h transport.Handler) (transport.Conn, error) {
	if n.attempts.Add(1) > n.ok {
		return nil, fmt.Errorf("induced dial failure to %s", addr)
	}
	return n.countingNetwork.Dial(addr, h)
}

// TestDialFailureClosesConns: the startup-failure contract through
// DialPool. The connection of every server that did answer must be closed
// before the no-majority error is reported, so a retry loop never
// accumulates sockets.
func TestDialFailureClosesConns(t *testing.T) {
	const n = 5
	lo := transport.NewLoopback()
	cl, err := electd.NewCluster(lo, n)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Servers 0–1 connect, servers 2–4 never do: majority impossible, and
	// both established connections must come back closed.
	nw := &failAfterNetwork{countingNetwork: countingNetwork{Network: lo}, ok: 2}
	if _, err := electd.DialPool(nw, cl.Addrs()); err == nil {
		t.Fatal("pool came up with three of five servers undialable")
	}
	if d := nw.dialed.Load(); d != 2 {
		t.Fatalf("dialed %d connections, want 2", d)
	}
	if c := nw.closed.Load(); c != 2 {
		t.Fatalf("startup failure closed %d of 2 dialed connections — the rest leaked", c)
	}
}

// TestDialFailureClosesUDPSockets: the same contract on the real datagram
// transport. A UDP dial to a dead port succeeds (connectionless), so the
// unreachable majority here is unresolvable addresses — the failure mode
// UDP startup actually has — and the bound sockets of the resolvable
// minority must be closed, not leaked.
func TestDialFailureClosesUDPSockets(t *testing.T) {
	const n = 5
	udp := transport.NewUDP()
	cl, err := electd.NewCluster(udp, n)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	addrs := cl.Addrs()
	addrs[1] = "%%%unresolvable"
	addrs[2] = "%%%unresolvable"
	addrs[3] = "%%%unresolvable"
	nw := &countingNetwork{Network: udp}
	if _, err := electd.DialPool(nw, addrs); err == nil {
		t.Fatal("pool came up without a resolvable majority")
	}
	if d := nw.dialed.Load(); d != 2 {
		t.Fatalf("dialed %d sockets, want 2", d)
	}
	if c := nw.closed.Load(); c != 2 {
		t.Fatalf("startup failure closed %d of 2 bound sockets — the rest leaked", c)
	}
}

// TestCoalescedElectionsBatchFrames: concurrent elections multiplexed over
// one pool must elect correctly AND share frames on the wire — the pool
// hands every request to its connection on its own, and the transport write
// loops, the one batching layer, wrap whatever queued while the last write
// was in flight into batch frames: fewer frames than messages. Byte
// accounting counts payload, not transport framing, and must not go silent.
func TestCoalescedElectionsBatchFrames(t *testing.T) {
	const n, k, elections = 5, 4, 8
	cl, err := electd.NewClusterSpec(transport.Spec{}, n, electd.ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	before := transport.ReadStats()
	var wg sync.WaitGroup
	results := make([][]core.Decision, elections)
	clients := make([][]*electd.Client, elections)
	for e := 0; e < elections; e++ {
		wg.Add(1)
		go func(e int) {
			defer wg.Done()
			decisions := make([]core.Decision, k)
			cls := make([]*electd.Client, k)
			var inner sync.WaitGroup
			for i := 0; i < k; i++ {
				inner.Add(1)
				go func(i int) {
					defer inner.Done()
					p := electd.NewParticipant(rt.ProcID(i), k, int64(e*100+i+1))
					c := cl.NewComm(p, uint64(e+1), nil)
					defer c.Leave()
					cls[i] = c
					s := core.NewState(p, "leaderelect")
					decisions[i] = core.LeaderElectWithState(c, "elect", s)
				}(i)
			}
			inner.Wait()
			results[e], clients[e] = decisions, cls
		}(e)
	}
	wg.Wait()
	var bytes int64
	for e, decisions := range results {
		uniqueWinner(t, fmt.Sprintf("election %d", e), decisions)
		for _, c := range clients[e] {
			bytes += c.Bytes()
		}
	}
	after := transport.ReadStats()
	framesOut := after.FramesOut - before.FramesOut
	batchesOut := after.BatchesOut - before.BatchesOut
	requests, frames := cl.Pool().CoalesceStats()
	if requests == 0 || frames != requests {
		t.Fatalf("pool handed %d requests to its connections in %d frames, want one frame each", requests, frames)
	}
	msgs := framesOut - batchesOut + after.MsgsCoalesced - before.MsgsCoalesced
	if batchesOut == 0 || framesOut >= msgs {
		t.Fatalf("%d elections in flight put %d messages on the wire in %d frames (%d batches): the write loops batched nothing",
			elections, msgs, framesOut, batchesOut)
	}
	if msgs < requests {
		t.Fatalf("the transport counted %d messages out, fewer than the pool's %d requests", msgs, requests)
	}
	t.Logf("write loops put %d messages into %d frames (%.2fx)", msgs, framesOut, float64(msgs)/float64(framesOut))
	if bytes == 0 {
		t.Fatal("byte accounting went silent")
	}
}

// TestReadYourWrites: a client's completed Propagate is visible to every
// subsequent Collect by anyone — the regular-register property through the
// client/server split (quorum intersection).
func TestReadYourWrites(t *testing.T) {
	const n = 5
	cl, err := electd.NewCluster(transport.NewLoopback(), n)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	writer := cl.NewComm(electd.NewParticipant(0, n, 1), 1, nil)
	reader := cl.NewComm(electd.NewParticipant(1, n, 2), 1, nil)
	writer.Propagate("r", 41)
	writer.Propagate("r", 42)
	found := false
	for _, v := range reader.Collect("r") {
		if val, ok := v.Get(0); ok {
			if val != 42 {
				t.Fatalf("stale value %v (writer versioning broken)", val)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("completed propagate invisible to a subsequent collect")
	}
	if writer.Calls() != 2 || reader.Calls() != 1 {
		t.Fatalf("communicate-call counts: writer %d (want 2), reader %d (want 1)", writer.Calls(), reader.Calls())
	}
	if writer.Messages() == 0 || writer.Bytes() == 0 {
		t.Fatal("traffic counters stayed zero")
	}
}

// TestInjectedDelayStillElects: per-link delay samplers (the scenario
// engine's hook) slow elections down without breaking them.
func TestInjectedDelayStillElects(t *testing.T) {
	const n = 4
	cl, err := electd.NewCluster(transport.NewLoopback(), n)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	decisions := make([]core.Decision, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := electd.NewParticipant(rt.ProcID(i), n, int64(i+1))
			evensSlow := &fault.Profile{Delay: func(to int) time.Duration {
				if to%2 == 0 {
					return 200 * time.Microsecond
				}
				return 0
			}}
			c := cl.NewComm(p, 1, evensSlow)
			defer c.Leave()
			s := core.NewState(p, "leaderelect")
			decisions[i] = core.LeaderElectWithState(c, "elect", s)
		}(i)
	}
	wg.Wait()
	uniqueWinner(t, "delayed", decisions)
}

// TestServerIgnoresNoise: replies and unknown kinds arriving at a server
// must not corrupt state or crash it.
func TestServerIgnoresNoise(t *testing.T) {
	srv := electd.NewServer(0)
	nw := transport.NewLoopback()
	ln, err := nw.Listen(srv.Handle)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	got := make(chan *wire.Msg, 4)
	conn, err := nw.Dial(ln.Addr(), func(_ transport.Conn, m *wire.Msg) { got <- m })
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	conn.Send(&wire.Msg{Kind: wire.KindAck, Call: 1, From: 3})                            //nolint:errcheck
	conn.Send(&wire.Msg{Kind: wire.KindView, Call: 2, From: 3})                           //nolint:errcheck
	conn.Send(&wire.Msg{Kind: wire.KindCollect, Election: 1, Call: 3, From: 3, Reg: "r"}) //nolint:errcheck
	select {
	case m := <-got:
		if m.Kind != wire.KindView || m.Call != 3 {
			t.Fatalf("expected the collect's view, got %+v", m)
		}
		if len(m.Entries) != 0 {
			t.Fatalf("noise messages materialised state: %+v", m.Entries)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server stopped answering after noise")
	}

	// A view's entries may be the process-wide view memo's, which others
	// read: the server drops such a message whole and never clears the array.
	want := rt.Entry{Reg: "r", Owner: 1, Seq: 1, Val: 5}
	held := []rt.Entry{want}
	m := wire.GetMsg()
	m.Kind, m.Call, m.From, m.Reg, m.Entries = wire.KindView, 4, 3, "r", held
	srv.Handle(nil, m)
	if held[0] != want {
		t.Fatalf("a view handled by the server had its entries cleared: %+v", held[0])
	}
}

// tapNetwork decodes every frame the first connection dialed on it — a
// cluster pool's link to server 0 — is handed, and passes it to tap.
type tapNetwork struct {
	transport.Network
	tap    func(m *wire.Msg)
	tapped bool
}

func (nw *tapNetwork) Dial(addr string, h transport.Handler) (transport.Conn, error) {
	c, err := nw.Network.Dial(addr, h)
	if err != nil || nw.tapped {
		return c, err
	}
	nw.tapped = true
	return &tapConn{Conn: c, tap: nw.tap}, nil
}

// tapConn is a tapped connection. It forwards the pre-decode filter and
// the stream name, so the pool sees the connection it wraps.
type tapConn struct {
	transport.Conn
	tap func(m *wire.Msg)
}

func (c *tapConn) SendEncoded(frame []byte) error {
	if body, _, err := wire.SplitFrame(frame); err == nil {
		if m, err := wire.Decode(body); err == nil {
			c.tap(m)
		}
	}
	return c.Conn.SendEncoded(frame)
}

func (c *tapConn) SetFilter(f transport.FrameFilter) { c.Conn.(transport.FilteredConn).SetFilter(f) }
func (c *tapConn) StreamID() uint64                  { return transport.StreamID(c.Conn) }

// TestDelayedFramesLandBeforeClose: a profile that delays every request to
// server 0 hands that connection its own copy of the frame the call
// encoded, once the delay is over — so two back-to-back propagates (the
// client reuses its request message, payload and frame buffer between
// them) reach server 0's connection as two frames, each carrying its own
// (seq, value), and Cluster.Close returns only after both have been handed
// over. (Close then severs the connection abruptly, as it severs any other:
// delivery past that point is the transport's, not the pool's.)
func TestDelayedFramesLandBeforeClose(t *testing.T) {
	const n, delay = 3, 5 * time.Millisecond
	var mu sync.Mutex
	var landed []string
	nw := &tapNetwork{Network: transport.NewLoopback(), tap: func(m *wire.Msg) {
		mu.Lock()
		defer mu.Unlock()
		for _, e := range m.Entries {
			landed = append(landed, fmt.Sprintf("seq %d = %v", e.Seq, e.Val))
		}
	}}
	cl, err := electd.NewCluster(nw, n)
	if err != nil {
		t.Fatal(err)
	}
	c := cl.NewComm(electd.NewParticipant(0, n, 1), cl.NextElectionID(), &fault.Profile{
		Delay: func(server int) time.Duration {
			if server == 0 {
				return delay
			}
			return 0
		},
	})
	start := time.Now()
	c.Propagate("r", 11) // a quorum of 2 without server 0
	c.Propagate("r", 22)
	mu.Lock()
	early := len(landed)
	mu.Unlock()
	if early != 0 && time.Since(start) < delay {
		t.Fatalf("%d frames reached server 0 before their delay was over", early)
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	slices.Sort(landed) // two timers of one delay may fire in either order
	if want := []string{"seq 1 = 11", "seq 2 = 22"}; !slices.Equal(landed, want) {
		t.Fatalf("server 0's connection had been handed %q when Close returned, want %q", landed, want)
	}
}
