package electd

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/rt"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// callShards is the number of lock stripes the pool's pending-call table
// splits into — a power of two so routing a reply is one mask. Call IDs
// come from a single counter, so consecutive calls (the concurrent ones,
// under load) land on consecutive stripes and two elections in flight at
// once practically never serialize on a call-table lock.
const callShards = 16

// firstWaveStart maps an election ID to the server its calls' first waves
// start at, with the same Fibonacci hash as electionShard. The set
// is picked per election, not per participant: one election's wave then
// rides quorum+slack connections (fewer writes, reads and reader wake-ups,
// which is where the socket path's cost sits) while concurrent elections
// still spread over all n servers. Rotating by participant ID was measured
// and gains nothing — every connection stays hot, only messages drop.
func firstWaveStart(election uint64, n int) int {
	return int(((election * 0x9E3779B97F4A7C15) >> 32) % uint64(n))
}

// callShard is one stripe of the pending-call table, padded so stripes'
// locks sit on distinct cache lines.
type callShard struct {
	mu    sync.Mutex
	calls map[uint64]*pending

	_ [48]byte // pad the 16 mutex+map bytes to a full 64-byte cache line
}

// Pool is a client process's connection pool over the n election servers:
// one pooled transport connection per server, shared by every participant
// and election instance in the process, with a call table routing replies
// back to the communicate call that is waiting for them.
//
// The pool is the routing point of the quorum hot path, and the router is
// where a call's quorum is assembled: the connections' read loops append
// each reply to the call's pending slot and wake the waiting participant
// once, when the quorum is complete (see handle). The pending-call table is
// striped by call ID so concurrent elections scale with cores instead of
// convoying on one mutex. Each request frame is encoded once, not once per
// server, and handed to each asked connection's send queue as a pooled
// copy; batching is the transport write loops' job, the one batching layer.
// Pending-call slots are recycled, so a steady-state election allocates
// only its payload entries.
type Pool struct {
	n int
	// links holds one slot per server, each an atomically swappable
	// connection: sends load the slot lock-free, and Redial swaps in a
	// fresh one when a crashed server recovers — the transport half of
	// crash-recovery. A nil slot is an undialed server.
	links []atomic.Pointer[serverLink]

	// Redial context, fixed at dial time.
	nw    transport.Network
	addrs []string

	// defaultRetransmit arms every NewComm client with a baseline resend
	// period (PoolOptions.Retransmit) — the reliability layer under lossy
	// transports. Zero on reliable transports.
	defaultRetransmit time.Duration

	shards [callShards]callShard
	next   atomic.Uint64
	pend   sync.Pool // recycled pending slots

	// gone remembers, 1 + ID, the last goneRing elections forget cleared,
	// so that the views their stragglers deliver afterwards are neither
	// learned nor decoded: the links' tables would pin them until evicted.
	gone  [goneRing]atomic.Uint64
	nGone atomic.Uint64

	// inflight tracks delayed (fault-injected) sends still riding timers,
	// so Close can wait for stragglers instead of racing them.
	inflight sync.WaitGroup

	// Observability. The counters are bumped where the event happens (once
	// per wave for requests, the other three off the steady-state path) and
	// read at scrape time; the histogram is installed by registerMetrics
	// when PoolOptions.Metrics is set and nil on a bare pool. It is nil-safe,
	// but rpc still checks before observing to keep the bare hot path free
	// of even the no-op call.
	requests atomic.Int64 // requests handed to connections
	sames    atomic.Int64 // collect replies that came as a same and became the held view
	reasked  atomic.Int64 // re-asks for full views after a same the pool could not resolve
	busy     atomic.Int64 // quorum calls aborted by a busy reply
	widened  atomic.Int64 // calls whose first wave fell short and went to all n
	resent   atomic.Int64 // retransmit ticks of calls already sent to all n
	rpcHist  *obs.Histogram

	// trace, when non-nil, is the election flight recorder: rpc records
	// encode/send/quorum-wait spans and straggler/retransmit events into
	// it. Nil on an untraced pool — every recording site is guarded, so
	// the untraced hot path is unchanged.
	trace *trace.Recorder
}

// PoolOptions tunes a Pool at dial time. Every field's zero value is the
// default — no default retransmit, unobserved, untraced — so PoolOptions{}
// is always valid; NewPool fills the zero fields from a transport.Spec.
type PoolOptions struct {
	// Retransmit arms every client of this pool with a default quorum-wait
	// resend period, as if a fault plan demanded it: rpc rebroadcasts on
	// that tick and the router dedups the duplicate replies by sender.
	// This is the reliability layer of lossy transports — NewPool defaults
	// it to fault.DefaultRetransmitTick on UDP — kept strictly below the
	// quorum semantics. 0 means no default; a fault plan's SetFaults can
	// still arm its own period (it never disarms this one).
	Retransmit time.Duration

	// Metrics, when non-nil, registers the pool's client-side instruments
	// (pending-call depth, requests sent, quorum round-trip latency, busy
	// sheds, widened calls and retransmits) on the registry.
	Metrics *obs.Registry

	// Trace, when non-nil, records per-call client-phase spans (encode,
	// send, quorum-wait) and straggler/retransmit events into the
	// flight recorder. Nil leaves the hot path untraced and unchanged.
	Trace *trace.Recorder
}

// serverLink boxes one server's transport connection, because the atomic
// slot needs a pointer, with the views the pool holds from that server.
// The connection is immutable once published in a Pool slot; Redial
// replaces the box, table and all.
type serverLink struct {
	conn  transport.Conn
	known knownViews
}

// pending is one outstanding communicate call awaiting quorum replies. The
// router fills it and the waiting rpc harvests it, both under the call's
// shard mutex; sig is the one wake-up between them. A call is complete once
// its quorum is in or a busy reply beat it: the router signals exactly
// then, exactly once, and from then on every reply to the call is a
// straggler.
type pending struct {
	sig     chan struct{} // one slot: the router's single wake-up of the waiting rpc
	cli     *Client
	replies []*wire.Msg // distinct senders' answers, at most a quorum
	busy    bool        // a busy reply arrived before the quorum
	seen    []bool      // [server]; dedups retransmission-induced duplicate replies

	// A collect's conditional half (see Pool.handle).
	collect bool   // the call is a collect (of reg)
	reg     string // the register collected
}

// complete reports whether the router has signalled (or is about to).
func (p *pending) complete(need int) bool { return p.busy || len(p.replies) >= need }

// callShardOf routes a call ID to its stripe. Plain masking is the right
// hash here: IDs are consecutive, so concurrent calls occupy distinct
// stripes by construction.
func (pl *Pool) callShardOf(call uint64) *callShard {
	return &pl.shards[call&(callShards-1)]
}

// DialPool connects to every server address over the given network. The
// address slice is indexed by server id; its
// length is the quorum system size n. Unreachable servers are tolerated up
// to the model's fault budget ⌈n/2⌉−1 — a dead replica at dial time is the
// same fault as one that crashes later, and quorum calls route around it;
// only when a majority cannot be reached does DialPool fail, closing every
// connection it had already established.
func DialPool(nw transport.Network, addrs []string) (*Pool, error) {
	return DialPoolOpts(nw, addrs, PoolOptions{})
}

// mergeSpec fills options whose fields are still zero from a transport
// spec: the flight recorder threads through, and an unreliable substrate
// arms the default retransmit period — the client-side reliability layer
// that sits strictly below the quorum semantics (dedup lives in the reply
// router; see pending.seen).
func mergeSpec(spec transport.Spec, opts PoolOptions) PoolOptions {
	if opts.Trace == nil {
		opts.Trace = spec.Trace
	}
	if opts.Retransmit == 0 && !spec.Reliable() {
		opts.Retransmit = DefaultDatagramRetransmit
	}
	return opts
}

// DefaultDatagramRetransmit is the resend period mergeSpec arms on
// unreliable substrates. It is deliberately above fault.DefaultRetransmitTick
// (which is tuned for the simulator's artificial loss rates): on a real
// datagram socket the common case is zero loss, so the first resend should
// fire past the p99 of a loaded quorum round-trip, not in the middle of it —
// resending a call that is merely slow floods every server with duplicates.
const DefaultDatagramRetransmit = 5 * time.Millisecond

// NewPool dials a client pool under the given transport spec — the one
// entry point that keeps tracing and reliability consistent between the
// transport and the pool on top of it.
// DialPool/DialPoolOpts remain for callers that build a Network themselves.
func NewPool(spec transport.Spec, addrs []string, opts PoolOptions) (*Pool, error) {
	nw, err := spec.Network()
	if err != nil {
		return nil, err
	}
	return DialPoolOpts(nw, addrs, mergeSpec(spec, opts))
}

// DialPoolOpts is DialPool with explicit options.
func DialPoolOpts(nw transport.Network, addrs []string, opts PoolOptions) (*Pool, error) {
	pl := &Pool{
		n:                 len(addrs),
		links:             make([]atomic.Pointer[serverLink], len(addrs)),
		nw:                nw,
		addrs:             append([]string(nil), addrs...),
		defaultRetransmit: opts.Retransmit,
		trace:             opts.Trace,
	}
	for i := range pl.shards {
		pl.shards[i].calls = make(map[uint64]*pending)
	}
	pl.pend.New = func() any {
		return &pending{sig: make(chan struct{}, 1), replies: make([]*wire.Msg, 0, pl.n/2+1), seen: make([]bool, pl.n)}
	}
	var down []string
	for i, addr := range addrs {
		conn, err := pl.nw.Dial(addr, pl.handle)
		if err != nil {
			down = append(down, fmt.Sprintf("server %d at %s: %v", i, addr, err))
			continue
		}
		pl.links[i].Store(pl.newLink(conn))
	}
	if len(down) > (len(addrs)-1)/2 {
		// Startup failure must not leak the minority that did answer:
		// every already-dialed connection is closed before reporting.
		pl.closeConns()
		return nil, fmt.Errorf("electd: %d of %d servers unreachable — a majority quorum is impossible (%s)",
			len(down), len(addrs), strings.Join(down, "; "))
	}
	if opts.Metrics != nil {
		pl.registerMetrics(opts.Metrics)
	}
	return pl, nil
}

// N returns the quorum system size.
func (pl *Pool) N() int { return pl.n }

// newLink dials nothing: it boxes an established connection with the
// straggler/fault reply filter armed. Shared by dial time and Redial.
func (pl *Pool) newLink(conn transport.Conn) *serverLink {
	if fc, ok := conn.(transport.FilteredConn); ok {
		// Drop straggler replies — answers to calls that already
		// reached quorum — before they are decoded. A thrifty first
		// wave leaves only its two spares' replies to drop (2 of 19 at
		// n=32); what the filter still buys is the other half of every
		// reply to a client that has widened, the repeat answers a
		// retransmitting one draws, and a view's decode (entries,
		// statuses, allocations) being the dearest thing a read loop
		// does. Under a fault plan the same filter also samples
		// reply-direction link loss (see keepReply).
		fc.SetFilter(pl.keepReply)
	}
	return &serverLink{conn: conn}
}

// Redial reconnects the pool to server j — the client half of
// crash-recovery, called after the server's listener Recovered. The old
// connection (severed by the crash anyway) is closed and its link slot
// atomically replaced, so in-flight broadcasts resolve either connection,
// never a torn one; retransmitting calls pick up the fresh connection on
// their next tick.
func (pl *Pool) Redial(j int) error {
	if j < 0 || j >= pl.n {
		return fmt.Errorf("electd: redial server %d of a %d-server pool", j, pl.n)
	}
	conn, err := pl.nw.Dial(pl.addrs[j], pl.handle)
	if err != nil {
		return fmt.Errorf("electd: redial server %d at %s: %w", j, pl.addrs[j], err)
	}
	if old := pl.links[j].Swap(pl.newLink(conn)); old != nil {
		old.conn.Close()
	}
	return nil
}

// CoalesceStats is what is left of the pool's own batching layer: the pool
// hands every request to its connection as one frame, so both values are
// the requests sent (electd_pool_requests_total). The benchmark of record
// reads the ratio as electd.msgs_per_frame; the transport's Stats say what
// the write loops then batched.
func (pl *Pool) CoalesceStats() (msgs, frames int64) {
	n := pl.requests.Load()
	return n, n
}

// forget clears election's rows from every link's known-view table: the
// election is over, and nothing will collect its registers again.
func (pl *Pool) forget(election uint64) {
	pl.gone[(pl.nGone.Add(1)-1)%goneRing].Store(election + 1)
	for j := range pl.links {
		if link := pl.links[j].Load(); link != nil {
			link.known.forget(election)
		}
	}
}

// goneRing is how many forgotten elections a pool remembers: stragglers
// arrive within milliseconds of their election's end, and a pool removes a
// few hundred elections a second at most.
const goneRing = 16

// forgotten reports whether election is among the last goneRing that
// forget cleared.
func (pl *Pool) forgotten(election uint64) bool {
	for i := range pl.gone {
		if pl.gone[i].Load() == election+1 {
			return true
		}
	}
	return false
}

// isReply reports whether k is a reply kind the router assembles quorums
// from.
func isReply(k wire.Kind) bool {
	return k == wire.KindAck || k == wire.KindView || k == wire.KindSame || k == wire.KindBusy
}

// keepReply is the pool's pre-decode filter (transport.FrameFilter): a
// reply is a straggler — nobody will ever read it — once its call is no
// longer pending or is already complete, and stragglers are dropped before
// their decode; so is a duplicate, a reply from a server that already
// answered the call (a retransmitting client draws one per resend the
// server answers twice). With streaming dispatch the routed
// count is current up to the previous reply of the same inbound batch, so
// the decodes past the quorum (entries, statuses, their allocations) simply
// never happen: the two spares of a thrifty wave, and almost half of all
// replies once a client has widened to all n. Anything that is not a
// well-formed reply header passes through to the full decoder, which is
// the arbiter of validity. The filter is advisory and racy by design: a
// call completing between this check and the router's is dropped there
// instead, and the reverse race cannot happen (calls are registered before
// any request is sent).
// When the waiting client carries a fault plan, the filter is also the
// reply-direction loss seam: the reply's sender id is peeked from the
// header and the client's replyDrop hook — concurrency-safe, it runs on
// every connection's read loop — decides whether this reply died on the
// (server → client) link. Dropping here, before decode, is exactly where
// a lost reply would have vanished on a real wire. The hook only ever sees
// a server id in [0, n): it indexes per-server fault tables with it, and
// the peeked id is unvalidated wire input — a reply claiming any other
// sender passes through to the router, which drops it.
//
// A tagged view the router would drop is still decoded when it is new to
// its server's link — the router learns every tagged view, because the
// server takes it that the pool holds it from then on (see handle) — and
// dropped undecoded when the link already holds it, as a retransmission's
// duplicates and a thrifty wave's spares mostly are. A datagram view is
// untagged, so there is nothing to learn from it: it is dropped undecoded.
func (pl *Pool) keepReply(body []byte) bool {
	k, call, from, ok := wire.PeekReplyFrom(body)
	if !ok || !isReply(k) {
		return true
	}
	inRange := from >= 0 && int(from) < pl.n
	sh := pl.callShardOf(call)
	sh.mu.Lock()
	p := sh.calls[call]
	keep := p != nil && !p.complete(pl.n/2+1) && !(inRange && p.seen[from])
	var drop func(int) bool
	if keep {
		drop = p.cli.replyDrop
	}
	var el uint64
	if pl.trace != nil && p != nil {
		el = p.cli.election // read under the shard lock; gone calls trace as election 0
	}
	sh.mu.Unlock()
	if keep && drop != nil && inRange && drop(int(from)) {
		return false
	}
	if !keep && k == wire.KindView && inRange && !pl.holds(from, body) {
		return true // decoded to be learned, then dropped by the router
	}
	if !keep && pl.trace != nil {
		pl.trace.Event(el, 0, trace.PStraggler, int64(from))
	}
	return keep
}

// holds reports whether server j's link already holds the view body
// carries, or the view carries no tag to hold it by, or its election is
// over.
func (pl *Pool) holds(j rt.ProcID, body []byte) bool {
	election, tag, reg, ok := wire.PeekView(body)
	if !ok || tag == 0 || pl.forgotten(election) {
		return true
	}
	link := pl.links[j].Load()
	return link == nil || link.known.has(election, reg, tag)
}

// handle is the pool's reply router and the place a quorum is assembled:
// it runs on each connection's read loop, appends the reply to its call's
// pending slot under the call's shard lock, and wakes the waiting rpc at
// most once per call — when the reply that completes the quorum lands, or a
// busy reply before it. One mutex-guarded append per reply, one wake-up per
// call, and it never blocks: exactly one signal is sent per use of a slot,
// into a one-slot channel the rpc empties before the slot is recycled.
// Replies to complete or departed calls are dropped — those are the
// stragglers beyond the quorum, the same abandoned-buffer asymmetry the
// in-process backend has — and so is a busy reply after the quorum: the
// quorum property already holds. So are duplicates (retransmitted requests
// draw repeat answers from servers that already answered; dedup by sender
// so a repeat can never stand in for a distinct quorum member) and replies
// whose sender id is not one of the n servers: a quorum counts distinct
// servers, and an id outside [0, n) names none. A dropped reply dies here,
// entries unseen, so the arena keeps them.
//
// The router is also where a conditional collect resolves. Every full view
// with a tag — a stream's — is remembered in its server's link table
// (knownViews), before anything else, whether or not its call still wants
// it, for same replies to name. A same reply to a collect becomes a view
// when its sender's link holds a view of the call's register under its
// tag. A tag names one snapshot encoding of one server process, so those
// entries are that server's current snapshot, byte for byte; the view keeps
// the size the same was decoded with, so the byte accounting reports what
// crossed the wire. A same to a collect the pool cannot resolve — the link
// has since dropped the view, or never got it (a fault plan's loss) — is
// noise, and the router re-asks that server with wire.TagFull (Pool.reask).
// Any other same reply — tag 0, or answering a propagate — is noise. Noise
// never counts as the server's answer.
func (pl *Pool) handle(_ transport.Conn, m *wire.Msg) {
	if !isReply(m.Kind) || m.From < 0 || int(m.From) >= pl.n {
		discard(m) // protocol noise; nobody saw its entries
		return
	}
	from := m.From
	link := pl.links[from].Load()
	var named knownView // what the link holds under a same reply's tag
	if link != nil && m.Tag != 0 {
		switch {
		case m.Kind == wire.KindView && !pl.forgotten(m.Election):
			// Before the wake-up, so the caller's next collect finds it.
			link.known.put(m.Election, m.Reg, m.Tag, m.Entries)
		case m.Kind == wire.KindSame:
			named, _ = link.known.named(m.Tag) // outside the stripe lock
		}
	}
	need := pl.n/2 + 1
	sh := pl.callShardOf(m.Call)
	sh.mu.Lock()
	p := sh.calls[m.Call]
	if p == nil || p.complete(need) || p.seen[from] {
		sh.mu.Unlock()
		discard(m)
		return
	}
	if m.Kind == wire.KindSame {
		entries, ok := p.resolve(m, named)
		if !ok {
			c, reg, reask := p.cli, p.reg, p.collect && m.Tag != 0 && link != nil
			sh.mu.Unlock()
			if reask {
				pl.reask(link, c, m.Call, reg)
			}
			discard(m)
			return
		}
		m.Kind, m.Entries = wire.KindView, entries
		pl.sames.Add(1)
	}
	p.seen[from] = true
	busy := m.Kind == wire.KindBusy
	if busy {
		p.busy = true
	} else {
		p.replies = append(p.replies, m) // m is the slot's now: hands off after the unlock
	}
	done := p.complete(need)
	sh.mu.Unlock()
	if busy {
		discard(m)
	}
	if done {
		// After the unlock, so the woken rpc does not run into the lock it
		// needs next. The slot cannot be recycled under this send: rpc
		// recycles it only after receiving the token.
		p.sig <- struct{}{}
	}
}

// reask asks server link a collect's question again — call, participant
// and register as before — with wire.TagFull, so that it answers with the
// full view: the router could not resolve the same reply it sent. It runs
// on the read loop, like a server's replies, and books the request to the
// participant the way rpc does.
func (pl *Pool) reask(link *serverLink, c *Client, call uint64, reg string) {
	req := wire.Msg{Kind: wire.KindCollect, Election: c.election, Call: call, From: c.p.ID(), Tag: wire.TagFull, Reg: reg}
	frame, err := wire.Append(wire.GetBuf(), &req)
	if err != nil || link.conn.SendEncoded(frame) != nil {
		return // loss, like any request on a dead link
	}
	c.msgs.Add(1)
	c.bytes.Add(int64(req.WireSize()))
	pl.requests.Add(1)
	pl.reasked.Add(1)
}

// resolve finds the entries a same reply m to this call stands for: those
// its sender's link holds under m's tag (named), when they are a view of
// the call's register. The caller holds the call's shard lock.
func (p *pending) resolve(m *wire.Msg, named knownView) ([]rt.Entry, bool) {
	ok := p.collect && m.Tag != 0 && named.tag == m.Tag && named.election == p.cli.election && named.reg == p.reg
	return named.entries, ok
}

// discard recycles a reply nobody reads. A view's entry array may be the
// process-wide view memo's (wire.DecodeShared) — every non-empty view up
// to 4 KiB is — so a view goes back with PutMsg, which drops the array. Any
// other reply carries no entries and keeps the empty arena it was decoded
// with: RecycleMsg hands that to the next decode, which in an in-process
// cluster is often a server's propagate.
func discard(m *wire.Msg) {
	if m.Kind == wire.KindView {
		wire.PutMsg(m)
	} else {
		wire.RecycleMsg(m)
	}
}

// closeConns severs every established server connection.
func (pl *Pool) closeConns() {
	for j := range pl.links {
		if link := pl.links[j].Load(); link != nil {
			link.conn.Close()
		}
	}
}

// Close severs every server connection. Outstanding communicate calls fail
// to make progress after Close; callers shut participants down first.
func (pl *Pool) Close() error {
	pl.inflight.Wait()
	pl.closeConns()
	return nil
}

// NewComm returns participant p's communicate handle for one election
// instance. delay (optional) injects per-server send latency — it is
// sampled on the participant's algorithm goroutine, so a plan-driven
// sampler may use a goroutine-owned PRNG. The handle must only be used
// from p's algorithm goroutine.
func (pl *Pool) NewComm(p rt.Procer, election uint64, delay func(server int) time.Duration) *Client {
	q := pl.n/2 + 1
	return &Client{
		pool: pl, p: p, election: election, delay: delay,
		seqs: make(map[string]uint64),
		// A call harvests exactly a quorum, so the scratch never grows.
		replies: make([]*wire.Msg, 0, q),
		views:   make([]rt.View, 0, q),
		// No caller is a server here (self −1). The pool's baseline resend
		// period (set on lossy transports) rides along; SetFaults may arm a
		// plan's on top, never disarm this. The jitter seed mixes both IDs
		// so equal configurations tick at different phases; the ^1 guards
		// the all-zero state xorshift cannot leave.
		sched: rt.NewSchedule(pl.n, firstWaveStart(election, pl.n), -1, pl.defaultRetransmit,
			(uint64(p.ID())+1)*0x9E3779B97F4A7C15^election^1),
	}
}

// Client is one participant's rt.Comm in one election instance: every
// communicate call blocks until ⌊n/2⌋+1 of the n servers answered it — so
// any two calls, by any participants, intersect in at least one server, the
// property every proof in the paper stands on. Which servers are *asked* is
// below that, and is rt.Schedule's business: a call first asks a quorum plus
// two spare live servers, starting at a per-election offset, and asks all
// the others only if a tick passes without a quorum (see rpc).
type Client struct {
	pool     *Pool
	p        rt.Procer
	election uint64
	delay    func(int) time.Duration
	seqs     map[string]uint64 // per-register write versions of the own cell
	calls    int
	round    int32 // current protocol round, for span attribution (SetRound)

	// sched picks the servers each call asks and times its ticks — the
	// schedule the in-process substrate runs too; what is electd's own is
	// where the ring starts (firstWaveStart) and which links a wave passes
	// over (rpc's send).
	sched rt.Schedule

	// Single-goroutine scratch, reused across communicate calls: the
	// request message (safe because every send path has finished with it
	// before rpc returns — except delayed sends, which get fresh messages),
	// its one-entry payload, the harvested quorum replies, and the views
	// Collect hands back (valid until the participant's next communicate
	// call, per the rt.Comm contract).
	req     wire.Msg
	entry   [1]rt.Entry
	replies []*wire.Msg
	views   []rt.View

	// Fault-plan hooks, installed by SetFaults before the participant
	// starts; all nil/zero on a bare client, leaving the hot path alone.
	drop      func(server int) bool // request-direction loss; algorithm goroutine
	replyDrop func(server int) bool // reply-direction loss; any read loop (must be concurrency-safe)
	noq       <-chan struct{}       // closed when this client is provably starved of quorums
	noqProc   int                   // participant id reported in the NoQuorumError

	msgs  atomic.Int64 // requests sent + replies harvested
	bytes atomic.Int64
}

// FaultProfile arms one client with a fault plan's link behavior; every
// field is optional. Drop decides request-direction loss per server and
// runs on the participant's algorithm goroutine (a goroutine-owned PRNG is
// fine); ReplyDrop decides reply-direction loss and runs concurrently on
// the connections' read loops, so it must be safe for concurrent calls.
// Retransmit > 0 makes quorum waits rebroadcast on that period — required
// for liveness under partitions, flaky links, and crash-recovery, since
// the algorithms themselves never resend — and makes the first of those
// ticks the one that widens a thrifty first wave. NoQuorum, when it fires,
// aborts the client's current and future quorum waits by unwinding the
// participant's goroutine with a *fault.NoQuorumError panic — the typed
// no-quorum outcome for clients the plan has provably cut off; recover it
// like a crash at the election runner.
type FaultProfile struct {
	Drop       func(server int) bool
	ReplyDrop  func(server int) bool
	Retransmit time.Duration
	NoQuorum   <-chan struct{}
	Proc       int
}

// SetFaults installs the profile. Call before the participant's goroutine
// starts; the hooks are read without synchronization afterwards. A zero
// Retransmit leaves the pool's default period armed (the lossy-transport
// reliability layer) rather than disarming resends.
func (c *Client) SetFaults(fp FaultProfile) {
	c.drop, c.replyDrop = fp.Drop, fp.ReplyDrop
	if fp.Retransmit > 0 {
		c.sched.SetRetransmit(fp.Retransmit)
	}
	c.noq, c.noqProc = fp.NoQuorum, fp.Proc
}

// SetRound records the protocol round in progress, so subsequent spans
// carry it. Tracing metadata only — never read by the quorum protocol.
// Must be called from the participant's algorithm goroutine (the round
// hook in core fires there).
func (c *Client) SetRound(r int) { c.round = int32(r) }

// Proc implements rt.Comm.
func (c *Client) Proc() rt.Procer { return c.p }

// QuorumSize implements rt.Comm: ⌊n/2⌋+1 of the n servers.
func (c *Client) QuorumSize() int { return c.pool.n/2 + 1 }

// Calls reports the number of communicate calls made — the paper's time
// metric. Read it after the participant's goroutine has returned.
func (c *Client) Calls() int { return c.calls }

// Messages reports the requests this participant sent plus the replies its
// calls harvested — up to a quorum each; the stragglers past it die in the
// router uncounted, like the ones the pre-decode filter drops. Bytes is the
// same in encoded bytes.
func (c *Client) Messages() int64 { return c.msgs.Load() }

// Bytes reports the participant's total wire traffic in bytes.
func (c *Client) Bytes() int64 { return c.bytes.Load() }

// msg returns the request message for one communicate call: the client's
// reusable scratch normally, a fresh message when delayed sends may retain
// it beyond this call.
func (c *Client) msg() *wire.Msg {
	if c.delay != nil {
		return &wire.Msg{}
	}
	c.req = wire.Msg{}
	return &c.req
}

// Propagate implements rt.Comm: bump the own cell of reg and push it to a
// quorum of servers. One communicate call.
func (c *Client) Propagate(reg string, val rt.Value) {
	c.seqs[reg]++
	m := c.msg()
	m.Kind, m.Election, m.From, m.Reg = wire.KindPropagate, c.election, c.p.ID(), reg
	if c.delay != nil {
		m.Entries = []rt.Entry{{Reg: reg, Owner: c.p.ID(), Seq: c.seqs[reg], Val: val}}
	} else {
		c.entry[0] = rt.Entry{Reg: reg, Owner: c.p.ID(), Seq: c.seqs[reg], Val: val}
		m.Entries = c.entry[:]
	}
	c.rpc(m, false)
}

// Collect implements rt.Comm: gather the register-array views of a quorum
// of servers. One communicate call. The returned slice is scratch reused
// by the client: it is valid until this participant's next communicate
// call (its entries are shared immutables and stay valid).
func (c *Client) Collect(reg string) []rt.View {
	m := c.msg()
	m.Kind, m.Election, m.From, m.Reg = wire.KindCollect, c.election, c.p.ID(), reg
	replies := c.rpc(m, true)
	c.views = c.views[:0]
	for _, r := range replies {
		c.views = append(c.views, rt.View{From: r.From, Entries: r.Entries})
		wire.PutMsg(r) // the view keeps the entries; the wrapper recycles
	}
	return c.views
}

// rpc sends m to the servers and blocks until a quorum has answered,
// returning the replies when keep is set (collects) and discarding them
// otherwise (propagate acks carry no payload).
//
// Whom it asks and when it asks again is the shared schedule's (rt.Schedule:
// a quorum plus two spares first, everyone unanswered after a tick, wide from
// then on). electd's part is send: the ring starts at the election's offset,
// and a wave passes over links that are undialed or known dead — so a crashed
// server costs nothing once its connection has closed. On lossy transports
// and under fault plans the tick is the retransmit tick, which keeps firing;
// on a reliable transport it is rt.WidenAfter, once. Sends to crashed or
// unreachable servers are message loss; the quorum wait rides on the ⌊n/2⌋+1
// live majority the model guarantees, all of which a widened call has asked.
//
// The wait is for one signal: the router assembles the quorum on the call's
// pending slot and wakes this goroutine once, when it is complete (see
// Pool.handle); rpc then retires the call and takes the replies under the
// same stripe lock.
//
// A busy reply arriving within the quorum wait aborts the call: the write
// is not known to be on a quorum, and rt.Comm has no error path, so after
// restoring the pool's state rpc unwinds the participant's goroutine with
// a *BusyError panic — recover it with CatchBusy around the election run.
// A busy reply arriving after a genuine quorum is a straggler: the quorum
// property already holds, and the filter or router drops it like any other.
func (c *Client) rpc(m *wire.Msg, keep bool) []*wire.Msg {
	pl := c.pool
	rec := pl.trace
	var t0 time.Time
	if pl.rpcHist != nil {
		t0 = time.Now()
	}
	call := pl.next.Add(1)
	m.Call = call
	p := pl.pend.Get().(*pending)
	p.cli, p.collect, p.reg = c, keep, m.Reg
	sh := pl.callShardOf(call)
	sh.mu.Lock()
	sh.calls[call] = p
	sh.mu.Unlock()

	// Bit-complexity accounting counts frame bodies, like the sim kernel's
	// PayloadBytes; the length prefix — and a batch frame's header — is
	// transport framing, not payload.
	size := int64(m.WireSize())
	var frame []byte // encoded once, lazily; every send reuses the bytes
	// send puts the request on server j's link and reports whether it went
	// onto the wire — a request the fault plan then drops did, and died
	// there; one to an undialed or severed link did not.
	send := func(j int) bool {
		link := pl.links[j].Load()
		if link == nil {
			return false // server was unreachable at dial time: nothing to send
		}
		if c.drop != nil && c.drop(j) {
			return true
		}
		if c.delay != nil {
			if d := c.delay(j); d > 0 {
				transport.SendDelayed(link.conn, m, d, &pl.inflight)
				return true
			}
		}
		if frame == nil {
			var encT0 int64
			if rec != nil {
				encT0 = trace.Now()
			}
			var err error
			if frame, err = wire.Append(wire.GetBuf(), m); err != nil {
				// Unencodable payloads cannot reach any server: loss on
				// every link.
				wire.PutBuf(frame)
				frame = nil
				return false
			}
			if rec != nil {
				rec.Record(c.election, c.round, trace.PEncode, encT0, trace.Now()-encT0, int64(len(frame)))
			}
		}
		// The connection takes ownership of what it is sent, so each gets
		// its own pooled copy. A refusal is the connection's ErrClosed: the
		// link is severed, and the wave passes over it.
		return link.conn.SendEncoded(append(wire.GetBuf(), frame...)) == nil
	}
	// book accounts one wave's requests.
	book := func(sent int) {
		c.msgs.Add(int64(sent))
		c.bytes.Add(int64(sent) * size)
		pl.requests.Add(int64(sent))
	}

	need := c.QuorumSize()
	var sendT0, waitT0 int64
	if rec != nil {
		sendT0 = trace.Now()
	}
	sent := c.sched.Begin(send)
	book(sent)
	if rec != nil {
		waitT0 = trace.Now()
		rec.Record(c.election, c.round, trace.PSend, sendT0, waitT0-sendT0, int64(sent))
	}

	// One wait loop for every configuration: the router's signal, the tick (a
	// nil channel when nothing arms it: a reliable transport's call that
	// already went to all n) and the no-quorum abort (nil without a fault
	// plan).
	starved := false
	var skip []bool
wait:
	for {
		select {
		case <-p.sig:
			break wait
		case <-c.sched.C():
			// The router owns the answered set; the tick gets a copy.
			if skip == nil {
				skip = make([]bool, len(p.seen))
			}
			sh.mu.Lock()
			copy(skip, p.seen)
			sh.mu.Unlock()
			sent, resend := c.sched.Tick(skip, send)
			book(sent)
			if resend == 0 {
				pl.widened.Add(1)
			} else {
				pl.resent.Add(1)
			}
			if rec != nil {
				rec.Event(c.election, c.round, trace.PRetransmit, int64(resend)) // 0 = the widen
			}
		case <-c.noq:
			// The plan proved this client can never reach a quorum
			// again, and the grace period is over: abort with the typed
			// no-quorum outcome instead of waiting forever.
			starved = true
			break wait
		}
	}
	c.sched.End()
	if frame != nil {
		wire.PutBuf(frame)
	}
	// Retire the call and harvest what the router assembled, under the one
	// lock: once the call is deleted no router touches the slot.
	sh.mu.Lock()
	delete(sh.calls, call)
	c.replies = append(c.replies[:0], p.replies...)
	shed := p.busy
	clear(p.replies)
	p.replies, p.busy, p.cli = p.replies[:0], false, nil
	clear(p.seen)
	p.collect, p.reg = false, ""
	sh.mu.Unlock()
	if starved && (shed || len(c.replies) >= need) {
		<-p.sig // the call completed as the abort fired: its signal is in flight
	}
	pl.pend.Put(p)
	if rec != nil {
		rec.Record(c.election, c.round, trace.PQuorumWait, waitT0, trace.Now()-waitT0, int64(len(c.replies)))
	}
	var got int64
	for _, r := range c.replies {
		got += int64(r.WireSize())
	}
	c.msgs.Add(int64(len(c.replies)))
	c.bytes.Add(got)
	c.calls++
	if starved || shed {
		for _, r := range c.replies {
			discard(r)
		}
		if starved {
			panic(&fault.NoQuorumError{Proc: c.noqProc})
		}
		pl.busy.Add(1)
		panic(&BusyError{Election: c.election})
	}
	if pl.rpcHist != nil {
		pl.rpcHist.Observe(time.Since(t0).Microseconds())
	}
	if !keep {
		// Propagate acks carry no entries the caller ever sees; discard
		// keeps their entry arenas for the decodes that follow.
		for _, r := range c.replies {
			discard(r)
		}
		return nil
	}
	return c.replies
}
