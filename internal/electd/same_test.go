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
	"repro/internal/rt"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Conditional collects: a collect advertises the tag of the view the pool
// holds from each server, and a server whose current snapshot has that tag
// answers with a same reply, which the router turns back into the held
// view. The tests below hold that to being the same view, end to end.

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
// for what they sent earlier on the connection, and over UDP, where only
// the tag a collect advertises can draw one.
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
		winners := 0
		for _, d := range decisions {
			if d == core.Win {
				winners++
			}
		}
		if winners != 1 {
			t.Fatalf("seed %d: %d winners", seed, winners)
		}
		cl.RemoveElection(election)
	}
	audit.mu.Lock()
	defer audit.mu.Unlock()
	for _, e := range audit.errs {
		t.Error(e)
	}
	if audit.sames == 0 || cl.Pool().sames.Load() == 0 {
		t.Fatalf("servers sent %d same replies and the pool took %d: the audit saw no conditional collect", audit.sames, cl.Pool().sames.Load())
	}
	t.Logf("%d same replies sent, %d materialized", audit.sames, cl.Pool().sames.Load())
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

// TestEvictedInstanceNeverAnswersOldTag: an instance the TTL sweep evicts
// and a late propagate re-creates starts its array versions over — the
// same single write lands it at the same version, with byte-identical
// contents — but never its tags, so a collect advertising a tag of the
// earlier incarnation gets the full view.
func TestEvictedInstanceNeverAnswersOldTag(t *testing.T) {
	const election, reg = 1, "elect/sift/1/status"
	srv := NewServer(0)
	defer srv.Close() //nolint:errcheck // always nil
	var conn replyConn
	val := core.Status{Stat: core.LowPri, List: []rt.ProcID{3}}
	collect := func(tag uint64) *wire.Msg {
		m := wire.GetMsg()
		m.Kind, m.Election, m.Call, m.From, m.Tag, m.Reg = wire.KindCollect, election, 9, 3, tag, reg
		srv.Handle(&conn, m)
		return conn.last(t)
	}
	srv.Handle(&conn, propagateFrame(election, reg, 3, 1, val))
	first := collect(0)
	if first.Kind != wire.KindView || first.Tag == 0 || len(first.Entries) != 1 {
		t.Fatalf("first collect answered %v, tag %d, %d entries", first.Kind, first.Tag, len(first.Entries))
	}
	if again := collect(first.Tag); again.Kind != wire.KindSame || again.Tag != first.Tag {
		t.Fatalf("collect advertising the current tag answered %v, tag %d", again.Kind, again.Tag)
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
	reborn := collect(first.Tag)
	if reborn.Kind != wire.KindView || reborn.Tag == first.Tag || srv.SameCollects() != sames {
		t.Fatalf("re-created instance answered the earlier incarnation's tag %d with %v, tag %d", first.Tag, reborn.Kind, reborn.Tag)
	}
	if !reflect.DeepEqual(reborn.Entries, first.Entries) {
		t.Fatalf("re-created instance holds %+v, want %+v", reborn.Entries, first.Entries)
	}
	if again := collect(reborn.Tag); again.Kind != wire.KindSame {
		t.Fatalf("collect advertising the re-created instance's tag answered %v", again.Kind)
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
// into a view only when its tag is one the pool holds entries for — the
// one the call advertised to its sender, or the one its sender's link holds
// for the register. A same with any other tag, or from a server the pool
// holds nothing of, is noise: dropped, not counted as the server's answer,
// never a view — and the router re-asks that server for the full view. A
// same answering a propagate is noise too, and asks for nothing.
func TestSameMustMatchTheAdvert(t *testing.T) {
	pl := silentPool(t, harvestN)
	c := pl.NewComm(NewParticipant(0, harvestN, 1), 1, nil)
	held := []rt.Entry{{Reg: "r", Owner: 2, Seq: 1, Val: 7}}
	linked := []rt.Entry{{Reg: "r", Owner: 3, Seq: 2, Val: 8}}
	pl.links[3].Load().known.put(1, "r", advert{tag: 9, entries: linked})

	p, call := park(pl, c) // a collect of r that advertised tag 7 to server 1
	p.collect, p.reg = true, "r"
	p.adv[1] = advert{tag: 7, entries: held}
	for _, forged := range []struct {
		from  rt.ProcID
		tag   uint64
		reask bool
	}{{1, 8, true}, {1, 9, true}, {1, 0, false}, {2, 7, true}, {2, 0, false}, {3, 7, true}} {
		reasked := pl.reasked.Load()
		m := routeSame(pl, call, forged.from, forged.tag)
		if !recycled(m) || p.seen[forged.from] || len(p.replies) != 0 {
			t.Fatalf("same from %d with tag %d was taken (seen %v, %d replies)", forged.from, forged.tag, p.seen[forged.from], len(p.replies))
		}
		if got := pl.reasked.Load() - reasked; got != int64(btoi(forged.reask)) {
			t.Fatalf("same from %d with tag %d: %d re-asks", forged.from, forged.tag, got)
		}
	}
	m := routeSame(pl, call, 1, 7)
	if len(p.replies) != 1 || p.replies[0] != m || m.Kind != wire.KindView || &m.Entries[0] != &held[0] || !p.seen[1] {
		t.Fatalf("the advertised same did not become the held view: %+v", p.replies)
	}
	m = routeSame(pl, call, 3, 9)
	if len(p.replies) != 2 || p.replies[1] != m || &m.Entries[0] != &linked[0] || !p.seen[3] {
		t.Fatalf("the same naming the link's view did not become it: %+v", p.replies)
	}
	if pl.sames.Load() != 2 {
		t.Fatalf("pool counted %d same views, want 2", pl.sames.Load())
	}

	prop, call2 := park(pl, c) // a propagate: nothing advertised
	reasked := pl.reasked.Load()
	for _, tag := range []uint64{0, 7, 9} {
		for _, from := range []rt.ProcID{1, 3} {
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
// concurrent elections — read loops filling them and resolving same
// replies from them, participants reading them for the tags they advertise
// (over UDP; a stream advertises none), RemoveElection clearing them and a
// forget of elections still running, which only costs those full views.
// Run under -race; every election must still elect one winner, and some
// collects must have been answered same.
func TestKnownViewTablesUnderRace(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for name, nw := range map[string]transport.Network{"loopback": transport.NewLoopback(), "udp": transport.NewUDP()} {
		t.Run(name, func(t *testing.T) { knownViewTablesUnderRace(t, nw) })
	}
}

func knownViewTablesUnderRace(t *testing.T, nw transport.Network) {
	const n, workers, perWorker = 8, 4, 6
	cl, err := NewClusterWith(nw, n, ClusterOptions{Pool: PoolOptions{Retransmit: DefaultDatagramRetransmit}})
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
				winners := 0
				for _, d := range decisions {
					if d == core.Win {
						winners++
					}
				}
				if winners != 1 {
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
	k.put(election, hot, advert{tag: 1})
	for i := range 10 * knownSlots {
		k.put(election, fmt.Sprintf("one-off/%d", i), advert{tag: uint64(i + 2)})
		if i%2 == 0 {
			if got := k.lookup(election, hot); got.tag != 1 {
				t.Fatalf("after %d one-off registers the hot one reads tag %d", i+1, got.tag)
			}
		} else if v, ok := k.named(1); !ok || v.reg != hot {
			t.Fatalf("after %d one-off registers tag 1 names %+v", i+1, v)
		}
	}
	if got := k.lookup(election, "one-off/0"); got.tag != 0 {
		t.Fatal("the first one-off register outlived 10 tables' worth of newer ones")
	}
	k.forget(election)
	if got := k.lookup(election, hot); got.tag != 0 {
		t.Fatalf("forget left tag %d", got.tag)
	}
}
