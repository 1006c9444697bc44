package electd

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rt"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Conditional collects: a server whose current snapshot it already sent in
// full on the collect's stream answers with a same reply naming its tag,
// which the router turns back into the view held under that tag. The tests
// below hold that to being the same view, end to end, and hold datagrams
// to carrying no conditional collect at all.

// replyKey names one reply: the call it answers and the server that sent it.
type replyKey struct {
	election, call uint64
	from           rt.ProcID
}

// sameAudit wraps a Network and records, at every server, the full view
// behind each collect reply it sends: a view's own entries, and for a same
// reply the entries of the view that server sent earlier under the echoed
// tag. A server only ever answers same to a tag it issued, so a same whose
// tag the audit has not seen in a view from that server is an error.
type sameAudit struct {
	transport.Network
	mu     sync.Mutex
	byTag  map[[2]uint64][]rt.Entry  // (server, tag) → the view sent under it
	behind map[replyKey][][]rt.Entry // a call's replies from one server: one, or one per resend answered
	sames  int
	errs   []string
}

func newSameAudit(nw transport.Network) *sameAudit {
	return &sameAudit{Network: nw, byTag: map[[2]uint64][]rt.Entry{}, behind: map[replyKey][][]rt.Entry{}}
}

func (a *sameAudit) Listen(h transport.Handler) (transport.Listener, error) {
	return a.Network.Listen(func(c transport.Conn, m *wire.Msg) { h(auditConn{c, a}, m) })
}

// auditConn is a server's side of one connection, seen by the audit.
type auditConn struct {
	transport.Conn
	a *sameAudit
}

// StreamID forwards the connection's stream identity, so the servers
// behind the audit answer as they would on the bare network.
func (c auditConn) StreamID() uint64 { return transport.StreamID(c.Conn) }

func (c auditConn) SendEncoded(frame []byte) error {
	c.a.record(frame)
	return c.Conn.SendEncoded(frame)
}

func (a *sameAudit) record(frame []byte) {
	body, _, err := wire.SplitFrame(frame)
	if err != nil {
		panic(err)
	}
	m, err := wire.Decode(body)
	if err != nil {
		panic(err)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	key := replyKey{m.Election, m.Call, m.From}
	switch m.Kind {
	case wire.KindView:
		if m.Tag != 0 {
			a.byTag[[2]uint64{uint64(m.From), m.Tag}] = m.Entries
		}
		a.behind[key] = append(a.behind[key], m.Entries)
	case wire.KindSame:
		entries, ok := a.byTag[[2]uint64{uint64(m.From), m.Tag}]
		if !ok {
			a.errs = append(a.errs, fmt.Sprintf("server %d answered same to tag %d, which it never sent a view under", m.From, m.Tag))
		}
		a.behind[key] = append(a.behind[key], entries)
		a.sames++
	}
}

// check holds the views one collect materialized to the views the servers
// sent.
func (a *sameAudit) check(election, call uint64, views []rt.View) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, v := range views {
		sent := a.behind[replyKey{election, call, v.From}]
		if !slices.ContainsFunc(sent, func(want []rt.Entry) bool { return sameEntries(want, v.Entries) }) {
			a.errs = append(a.errs, fmt.Sprintf("call %d: the client holds %+v from server %d, which sent %+v", call, v.Entries, v.From, sent))
		}
	}
}

// sameEntries compares two views entry for entry.
func sameEntries(a, b []rt.Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// auditedComm is a Client whose every collect the audit checks.
type auditedComm struct {
	*Client
	a *sameAudit
}

func (c auditedComm) Collect(reg string) []rt.View {
	views := c.Client.Collect(reg)
	c.a.check(c.election, c.req.Call, views)
	return views
}

// TestSameViewIsTheHeldView: over seeded n=16 elections, the view a client
// materializes from every collect reply — a full view or a same reply —
// equals, entry for entry, the full view behind that reply at the server
// that sent it: on the in-process stream, where the servers answer same
// for what they sent earlier on the connection, and over UDP, where no
// server answers same and no same ever becomes a view.
func TestSameViewIsTheHeldView(t *testing.T) {
	for name, nw := range map[string]transport.Network{"loopback": transport.NewLoopback(), "udp": transport.NewUDP()} {
		t.Run(name, func(t *testing.T) { sameViewIsTheHeldView(t, nw) })
	}
}

func sameViewIsTheHeldView(t *testing.T, nw transport.Network) {
	const n = 16
	audit := newSameAudit(nw)
	cl, err := NewClusterWith(audit, n, ClusterOptions{Pool: PoolOptions{Retransmit: DefaultDatagramRetransmit}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close() //nolint:errcheck // teardown
	for seed := int64(1); seed <= 4; seed++ {
		election := cl.NextElectionID()
		decisions := make([]core.Decision, n)
		var wg sync.WaitGroup
		for i := range n {
			wg.Add(1)
			go func() {
				defer wg.Done()
				p := NewParticipant(rt.ProcID(i), n, seed*1000+int64(i))
				c := auditedComm{cl.NewComm(p, election, nil), audit}
				decisions[i] = core.LeaderElectWithState(c, "elect", core.NewState(p, "leaderelect"))
			}()
		}
		wg.Wait()
		if winners := countWins(decisions); winners != 1 {
			t.Fatalf("seed %d: %d winners", seed, winners)
		}
		cl.RemoveElection(election)
	}
	audit.mu.Lock()
	defer audit.mu.Unlock()
	for _, e := range audit.errs {
		t.Error(e)
	}
	sames := cl.Pool().sames.Load()
	if transport.StreamID(cl.pool.links[0].Load().conn) == 0 {
		if audit.sames != 0 || sames != 0 || len(audit.byTag) != 0 {
			t.Fatalf("over datagrams servers sent %d same replies and %d tagged views, and the pool took %d sames",
				audit.sames, len(audit.byTag), sames)
		}
		return
	}
	if audit.sames == 0 || sames == 0 {
		t.Fatalf("servers sent %d same replies and the pool took %d: the audit saw no conditional collect", audit.sames, sames)
	}
	t.Logf("%d same replies sent, %d materialized", audit.sames, sames)
}

// countWins counts the winners among an election's decisions.
func countWins(decisions []core.Decision) int {
	winners := 0
	for _, d := range decisions {
		if d == core.Win {
			winners++
		}
	}
	return winners
}

// replyConn captures the reply frames Server.Handle sends.
type replyConn struct {
	discardConn
	frames [][]byte
}

func (c *replyConn) SendEncoded(frame []byte) error {
	c.frames = append(c.frames, append([]byte(nil), frame...))
	wire.PutBuf(frame)
	return nil
}

// last decodes the most recent reply.
func (c *replyConn) last(t *testing.T) *wire.Msg {
	t.Helper()
	body, _, err := wire.SplitFrame(c.frames[len(c.frames)-1])
	if err != nil {
		t.Fatal(err)
	}
	m, err := wire.Decode(body)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// onStream makes a server take a test connection for a stream.
type onStream struct{ transport.Conn }

func (onStream) StreamID() uint64 { return 1 << 62 }

// TestEvictedInstanceNeverAnswersOldTag: an instance the TTL sweep evicts
// and a late propagate re-creates starts its array versions over — the
// same single write lands it at the same version, with byte-identical
// contents — but never its tags, so the view the re-created instance sends
// on the stream is never one the pool could take for a view of the earlier
// incarnation.
func TestEvictedInstanceNeverAnswersOldTag(t *testing.T) {
	const election, reg = 1, "elect/sift/1/status"
	srv := NewServer(0)
	defer srv.Close() //nolint:errcheck // always nil
	var conn replyConn
	stream := onStream{&conn}
	collect := func() *wire.Msg {
		m := wire.GetMsg()
		m.Kind, m.Election, m.Call, m.From, m.Reg = wire.KindCollect, election, 9, 3, reg
		srv.Handle(stream, m)
		return conn.last(t)
	}
	val := core.Status{Stat: core.LowPri, List: []rt.ProcID{3}}
	srv.Handle(stream, propagateFrame(election, reg, 3, 1, val))
	first := collect()
	if first.Kind != wire.KindView || first.Tag == 0 || len(first.Entries) != 1 {
		t.Fatalf("first collect answered %v, tag %d, %d entries", first.Kind, first.Tag, len(first.Entries))
	}
	if again := collect(); again.Kind != wire.KindSame || again.Tag != first.Tag {
		t.Fatalf("collect of the snapshot sent on the stream answered %v, tag %d", again.Kind, again.Tag)
	}
	time.Sleep(time.Millisecond)
	if evicted := srv.sweepOnce(time.Nanosecond); evicted != 1 || srv.Elections() != 0 {
		t.Fatalf("TTL sweep evicted %d, %d instances live", evicted, srv.Elections())
	}
	srv.Handle(&conn, propagateFrame(election, reg, 3, 1, val)) // late: re-creates the instance
	if srv.Elections() != 1 {
		t.Fatal("the late propagate did not re-create the instance")
	}
	sames := srv.SameCollects()
	reborn := collect()
	if reborn.Kind != wire.KindView || reborn.Tag == first.Tag || srv.SameCollects() != sames {
		t.Fatalf("re-created instance answered the earlier incarnation's tag %d with %v, tag %d", first.Tag, reborn.Kind, reborn.Tag)
	}
	if !reflect.DeepEqual(reborn.Entries, first.Entries) {
		t.Fatalf("re-created instance holds %+v, want %+v", reborn.Entries, first.Entries)
	}
	if again := collect(); again.Kind != wire.KindSame || again.Tag != reborn.Tag {
		t.Fatalf("collect of the re-created instance's snapshot answered %v, tag %d", again.Kind, again.Tag)
	}
}

// routeSame hands the pool one same reply, as a read loop would.
func routeSame(pl *Pool, call uint64, from rt.ProcID, tag uint64) *wire.Msg {
	m := wire.GetMsg()
	m.Kind, m.Call, m.From, m.Tag = wire.KindSame, call, from, tag
	pl.handle(nil, m)
	return m
}

// TestSameMustMatchTheAdvert: the router turns a same reply to a collect
// into a view only when its sender's link holds a view of the call's
// register under its tag. A same with any other tag, from a server whose
// link holds nothing under it, or naming a view of another register, is
// noise: dropped, not counted as the server's answer, never a view — and
// the router re-asks that server for the full view. A same with tag 0 is
// noise and asks for nothing; so is a same answering a propagate.
func TestSameMustMatchTheAdvert(t *testing.T) {
	pl := silentPool(t, harvestN)
	c := pl.NewComm(NewParticipant(0, harvestN, 1), 1, nil)
	linked := []rt.Entry{{Reg: "r", Owner: 3, Seq: 2, Val: 8}}
	pl.links[3].Load().known.put(1, "r", 9, linked)
	pl.links[2].Load().known.put(1, "other", 7, linked)

	p, call := park(pl, c) // a collect of r
	p.collect, p.reg = true, "r"
	for _, forged := range []struct {
		from  rt.ProcID
		tag   uint64
		reask bool
	}{{1, 9, true}, {1, 0, false}, {2, 7, true}, {2, 9, true}, {2, 0, false}, {3, 7, true}, {3, 0, false}} {
		reasked := pl.reasked.Load()
		m := routeSame(pl, call, forged.from, forged.tag)
		if !recycled(m) || p.seen[forged.from] || len(p.replies) != 0 {
			t.Fatalf("same from %d with tag %d was taken (seen %v, %d replies)", forged.from, forged.tag, p.seen[forged.from], len(p.replies))
		}
		if got := pl.reasked.Load() - reasked; got != int64(btoi(forged.reask)) {
			t.Fatalf("same from %d with tag %d: %d re-asks", forged.from, forged.tag, got)
		}
	}
	m := routeSame(pl, call, 3, 9)
	if len(p.replies) != 1 || p.replies[0] != m || m.Kind != wire.KindView || &m.Entries[0] != &linked[0] || !p.seen[3] {
		t.Fatalf("the same naming the link's view did not become it: %+v", p.replies)
	}
	if pl.sames.Load() != 1 {
		t.Fatalf("pool counted %d same views, want 1", pl.sames.Load())
	}

	prop, call2 := park(pl, c) // a propagate
	reasked := pl.reasked.Load()
	for _, tag := range []uint64{0, 7, 9} {
		for _, from := range []rt.ProcID{2, 3} {
			if m := routeSame(pl, call2, from, tag); !recycled(m) || prop.seen[from] || len(prop.replies) != 0 || pl.reasked.Load() != reasked {
				t.Fatalf("same from %d with tag %d answering a propagate was taken or re-asked", from, tag)
			}
		}
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// dupNetwork makes every server answer every request twice, back to back —
// what a retransmitting client draws when a server answers both the
// request and its resend — and counts, per (call, server), the replies the
// pool's handler receives: each one a decode.
type dupNetwork struct {
	transport.Network
	mu      sync.Mutex
	decoded map[replyKey]int
	dups    int
}

func (d *dupNetwork) Listen(h transport.Handler) (transport.Listener, error) {
	return d.Network.Listen(func(c transport.Conn, m *wire.Msg) { h(dupConn{c}, m) })
}

func (d *dupNetwork) Dial(addr string, h transport.Handler) (transport.Conn, error) {
	return d.Network.Dial(addr, func(c transport.Conn, m *wire.Msg) {
		d.mu.Lock()
		key := replyKey{m.Election, m.Call, m.From}
		if d.decoded[key]++; d.decoded[key] > 1 {
			d.dups++
		}
		d.mu.Unlock()
		h(c, m)
	})
}

type dupConn struct{ transport.Conn }

func (c dupConn) SendEncoded(frame []byte) error {
	c.Conn.SendEncoded(append(wire.GetBuf(), frame...)) //nolint:errcheck // loss
	return c.Conn.SendEncoded(frame)
}

// TestDuplicateRepliesAreNeverDecoded: the pre-decode filter drops a reply
// from a server that already answered the call, so a retransmitting
// client never decodes a duplicate — not only once the call is complete.
func TestDuplicateRepliesAreNeverDecoded(t *testing.T) {
	const n = 5
	nw := &dupNetwork{Network: transport.NewLoopback(), decoded: map[replyKey]int{}}
	cl, err := NewClusterWith(nw, n, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close() //nolint:errcheck // teardown
	c := cl.NewComm(NewParticipant(0, n, 1), 1, nil)
	c.SetFaults(FaultProfile{Retransmit: 5 * time.Millisecond})
	for i := range 50 {
		c.Propagate("r", i)
		c.Collect("r")
	}
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if len(nw.decoded) == 0 || nw.dups != 0 {
		t.Fatalf("the pool decoded %d duplicate replies (of %d distinct)", nw.dups, len(nw.decoded))
	}
}

// TestKnownViewTablesUnderRace: the links' known-view tables under
// concurrent elections on the in-process stream — read loops filling them
// and resolving same replies from them, RemoveElection clearing them and a
// forget of elections still running, which only costs those full views.
// Run under -race; every election must still elect one winner, and some
// collects must have been answered same.
func TestKnownViewTablesUnderRace(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	t.Run("loopback", knownViewTablesUnderRace)
}

func knownViewTablesUnderRace(t *testing.T) {
	const n, workers, perWorker = 8, 4, 6
	cl, err := NewClusterWith(transport.NewLoopback(), n, ClusterOptions{Pool: PoolOptions{Retransmit: DefaultDatagramRetransmit}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close() //nolint:errcheck // teardown
	stop := make(chan struct{})
	var latest atomic.Uint64
	var forgetter sync.WaitGroup
	forgetter.Add(1)
	go func() {
		defer forgetter.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			cl.pool.forget(latest.Load())
			time.Sleep(200 * time.Microsecond)
		}
	}()
	var wg sync.WaitGroup
	var invalid atomic.Int64
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for e := range perWorker {
				election := cl.NextElectionID()
				latest.Store(election)
				decisions := make([]core.Decision, n)
				var inner sync.WaitGroup
				for i := range n {
					inner.Add(1)
					go func() {
						defer inner.Done()
						p := NewParticipant(rt.ProcID(i), n, int64(w*1000+e*100+i))
						decisions[i] = core.LeaderElectWithState(cl.NewComm(p, election, nil), "elect", core.NewState(p, "leaderelect"))
					}()
				}
				inner.Wait()
				if countWins(decisions) != 1 {
					invalid.Add(1)
				}
				cl.RemoveElection(election)
			}
		}()
	}
	wg.Wait()
	close(stop)
	forgetter.Wait()
	// A straggler's view is learned even after its election was removed;
	// forgetting every election must still leave the tables empty.
	for id := range latest.Load() + 1 {
		cl.pool.forget(id)
	}
	if invalid.Load() != 0 {
		t.Fatalf("%d elections without a unique winner", invalid.Load())
	}
	if cl.Pool().sames.Load() == 0 {
		t.Fatal("no collect was answered same: the tables were never read")
	}
	for j := range n {
		k := &cl.pool.links[j].Load().known
		k.mu.Lock()
		for _, v := range k.slot {
			if v.tag != 0 {
				k.mu.Unlock()
				t.Fatalf("link %d still holds a view of forgotten election %d", j, v.election)
			}
		}
		k.mu.Unlock()
	}
}

// TestUnresolvedSameIsReasked: on a stream the servers answer same for a
// snapshot they sent in full earlier, taking it that the pool holds it.
// When the pool has let it go, the same is noise, and the router re-asks
// those servers for the full view — here on a cluster small enough that
// every call asks all n at once and arms no tick, so nothing else would
// ever re-ask them.
func TestUnresolvedSameIsReasked(t *testing.T) {
	const n, reg = 5, "r"
	cl, err := NewCluster(transport.NewLoopback(), n)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close() //nolint:errcheck // teardown
	c := cl.NewComm(NewParticipant(0, n, 1), 1, nil)
	if !c.sched.Wide() {
		t.Fatalf("n=%d client starts thrifty; the test needs a call with no tick", n)
	}
	c.Propagate(reg, 5)
	want := c.Collect(reg)[0].Entries
	for i := range 20 {
		cl.pool.forget(1)
		done := make(chan []rt.View, 1)
		go func() { done <- c.Collect(reg) }()
		select {
		case views := <-done:
			if len(views) != c.QuorumSize() {
				t.Fatalf("collect %d returned %d views", i, len(views))
			}
			for _, v := range views {
				if !reflect.DeepEqual(v.Entries, want) {
					t.Fatalf("collect %d: server %d's view is %+v, want %+v", i, v.From, v.Entries, want)
				}
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("collect %d never completed: an unresolved same was not re-asked", i)
		}
	}
	if cl.Pool().reasked.Load() == 0 {
		t.Fatal("no collect re-asked: the servers never answered same for a view the pool let go of")
	}
}

// TestKnownViewsKeepTheHotRegister: a link's table replaces its least
// recently used view, so a register a running election keeps reading — by
// key, or by the tag a same reply names — survives a stream of one-off
// registers many times the table's size, which stays within its slots.
func TestKnownViewsKeepTheHotRegister(t *testing.T) {
	var k knownViews
	const election = 7
	hot := "elect/sift/1/status"
	k.put(election, hot, 1, nil)
	for i := range 10 * knownSlots {
		k.put(election, fmt.Sprintf("one-off/%d", i), uint64(i+2), nil)
		if i%2 == 0 {
			if !k.has(election, []byte(hot), 1) {
				t.Fatalf("after %d one-off registers the hot one is gone", i+1)
			}
		} else if v, ok := k.named(1); !ok || v.reg != hot {
			t.Fatalf("after %d one-off registers tag 1 names %+v", i+1, v)
		}
	}
	if k.has(election, []byte("one-off/0"), 2) {
		t.Fatal("the first one-off register outlived 10 tables' worth of newer ones")
	}
	k.forget(election)
	if k.has(election, []byte(hot), 1) {
		t.Fatal("forget left the hot register")
	}
}

// strayNetwork counts, on the pool's side of a network, the views the
// pre-decode filter passed although the router was already done with
// them — their call retired or complete, or their sender already answered
// it — and so were decoded for nothing. It checks the call before the
// filter does: a call only ever moves from pending to done, so a view it
// counts was done for the filter too.
type strayNetwork struct {
	transport.Network
	pool            atomic.Pointer[Pool]
	offered, strays atomic.Int64
}

func (s *strayNetwork) Dial(addr string, h transport.Handler) (transport.Conn, error) {
	conn, err := s.Network.Dial(addr, h)
	if err != nil {
		return nil, err
	}
	return strayConn{conn, s}, nil
}

type strayConn struct {
	transport.Conn
	s *strayNetwork
}

func (c strayConn) SetFilter(f transport.FrameFilter) {
	c.Conn.(transport.FilteredConn).SetFilter(func(body []byte) bool {
		done := c.s.done(body)
		keep := f(body)
		if done {
			c.s.offered.Add(1)
			if keep {
				c.s.strays.Add(1)
			}
		}
		return keep
	})
}

// done reports whether body is a view the router is already done with.
func (s *strayNetwork) done(body []byte) bool {
	k, call, from, ok := wire.PeekReplyFrom(body)
	pl := s.pool.Load()
	if !ok || k != wire.KindView || pl == nil || from < 0 || int(from) >= pl.n {
		return false
	}
	sh := pl.callShardOf(call)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	p := sh.calls[call]
	return p == nil || p.complete(pl.n/2+1) || p.seen[from]
}

// TestDatagramViewsAreNeverHeld: over UDP no collect is conditional. In
// seeded n=16 elections with retransmission armed and every server
// answering every request twice, each view a server sends is untagged, so
// no link learns one, no server answers same and the pool takes none; and
// a view the router will drop — a straggler past the quorum, or a repeat
// from a server that already answered — is never decoded, there being
// nothing to learn from it.
func TestDatagramViewsAreNeverHeld(t *testing.T) {
	const n = 16
	audit := newSameAudit(transport.NewUDP())
	dup := &dupNetwork{Network: audit, decoded: map[replyKey]int{}}
	nw := &strayNetwork{Network: dup}
	reg := obs.NewRegistry()
	cl, err := NewClusterWith(nw, n, ClusterOptions{Pool: PoolOptions{Retransmit: DefaultDatagramRetransmit, Metrics: reg}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close() //nolint:errcheck // teardown
	nw.pool.Store(cl.pool)
	for seed := int64(1); seed <= 4; seed++ {
		election := cl.NextElectionID()
		decisions := make([]core.Decision, n)
		var wg sync.WaitGroup
		for i := range n {
			wg.Add(1)
			go func() {
				defer wg.Done()
				p := NewParticipant(rt.ProcID(i), n, seed*1000+int64(i))
				decisions[i] = core.LeaderElectWithState(cl.NewComm(p, election, nil), "elect", core.NewState(p, "leaderelect"))
			}()
		}
		wg.Wait()
		if winners := countWins(decisions); winners != 1 {
			t.Fatalf("seed %d: %d winners", seed, winners)
		}
		for j := range n {
			k := &cl.pool.links[j].Load().known
			k.mu.Lock()
			learned := slices.ContainsFunc(k.slot[:], func(v knownView) bool { return v.tag != 0 })
			k.mu.Unlock()
			if learned {
				t.Fatalf("seed %d: link %d learned a view", seed, j)
			}
		}
		cl.RemoveElection(election)
	}
	audit.mu.Lock()
	defer audit.mu.Unlock()
	if len(audit.behind) == 0 || len(audit.byTag) != 0 || audit.sames != 0 {
		t.Fatalf("servers sent %d collect replies: %d tagged views and %d same replies", len(audit.behind), len(audit.byTag), audit.sames)
	}
	for j := range n {
		if got := cl.Server(rt.ProcID(j)).SameCollects(); got != 0 {
			t.Fatalf("server %d answered %d collects same", j, got)
		}
	}
	snap := reg.Snapshot()
	if got := snap.Total("electd_pool_views_same_total"); got != 0 {
		t.Fatalf("the pool took %d same replies as views", got)
	}
	dup.mu.Lock()
	defer dup.mu.Unlock()
	if nw.offered.Load() == 0 || nw.strays.Load() != 0 || dup.dups != 0 {
		t.Fatalf("of %d views the router was done with, %d were decoded; %d duplicate replies were decoded",
			nw.offered.Load(), nw.strays.Load(), dup.dups)
	}
	t.Logf("%d views dropped undecoded, %d distinct replies decoded", nw.offered.Load(), len(dup.decoded))
}
