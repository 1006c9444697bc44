package live

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/rt"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Comm is the live backend's communicate handle; it implements rt.Comm for
// one processor. Each call sends a request to peers' server mailboxes and
// blocks until a majority quorum (the caller included) has answered — the
// [ABND95] primitive the paper builds on. Which peers a call asks sits below
// that (see communicate). Methods must be called from the processor's
// algorithm goroutine.
type Comm struct {
	p     *Proc
	fp    *fault.Profile // the participant's fault hooks; nil = fault-free
	round int32          // current protocol round, for span attribution (SetRound)
	sched rt.Schedule    // whom each call asks, and when it asks again

	// mu guards tally, which counts each call's replies: the servers deliver
	// to it (deliver), requests carrying the handle's address.
	mu    sync.Mutex
	tally rt.Tally[reply]
	// ord is the ordinal of the handle's last call. It is never reset: a
	// processor's handle outlives its runs (Proc.comm), and a tally reopened
	// for a new run must still refuse the last run's stragglers.
	ord uint64

	// Single-goroutine arena, reused across communicate calls: the views
	// Collect hands back. Collect's return value is valid until the
	// processor's next communicate call, per the rt.Comm contract — the
	// entries inside stay valid, they are shared immutable snapshots.
	views []rt.View
}

// deliver is a server handing the handle its reply to call, which the
// tally counts or refuses. The delivery that completes the call wakes the
// caller after the unlock, so that it does not run into the lock.
func (c *Comm) deliver(call uint64, r reply) {
	c.mu.Lock()
	done := c.tally.Judge(call, int(r.from)) == rt.Counts && c.tally.Add(int(r.from), r)
	c.mu.Unlock()
	if done {
		c.tally.Wake()
	}
}

// NewComm builds the communicate handle for an algorithm running on p, with
// the participant's fault hooks fp (nil = fault-free). Its ring walks start
// at p's right-hand neighbour and never ask p itself; under a profile that
// retransmits its calls tick on the profile's period. A run does not build
// one per participant: it checks out the processor's own handle
// (Proc.checkout), reset to exactly this.
func NewComm(p *Proc, fp *fault.Profile) *Comm {
	c := new(Comm)
	c.reset(p, fp)
	return c
}

// reset makes c what NewComm(p, fp) builds, keeping what a run's calls
// would otherwise make again: the tally's arrays and token channel, the
// views arena and the schedule's tick timer. It also keeps the ordinal
// counter, which must never go back. The handle must be quiescent: no call
// in progress and no server still delivering to it.
func (c *Comm) reset(p *Proc, fp *fault.Profile) {
	n := p.sys.n
	c.p, c.fp, c.round = p, fp, 0
	c.sched.Reset(n, int(p.id)+1, int(p.id), 0, &p.sys.rtt, 0, (uint64(p.id)+1)*SeedStride)
	c.tally.Reset(n, n/2) // quorum−1: the caller's own store is the first member
	if c.views == nil {
		// A collect returns the caller's own view and n/2 replies.
		c.views = make([]rt.View, 0, n/2+1)
	}
	c.views = c.views[:0]
	if fp != nil && fp.Retransmit > 0 {
		c.sched.SetRetransmit(fp.Retransmit)
	}
}

// release drops what the handle's last run left in it — the snapshots in
// its views arena and tally, and its fault hooks — keeping the arrays, so a
// parked system pins none of it. Quiescent handles only.
func (c *Comm) release() {
	clear(c.views[:cap(c.views)])
	c.views = c.views[:0]
	c.tally.Release()
	c.fp = nil
}

// Proc implements rt.Comm.
func (c *Comm) Proc() rt.Procer { return c.p }

// SetRound records the protocol round in progress, so subsequent spans
// carry it. Tracing metadata only — never read by the quorum protocol.
// Must be called from the processor's algorithm goroutine.
func (c *Comm) SetRound(r int) { c.round = int32(r) }

// QuorumSize implements rt.Comm: ⌊n/2⌋+1.
func (c *Comm) QuorumSize() int { return c.p.sys.n/2 + 1 }

// Propagate implements rt.Comm: bump the caller's own cell of reg to val,
// then push the new cell to a quorum. One communicate call.
func (c *Comm) Propagate(reg string, val rt.Value) {
	// The one-entry payload is allocated per call on purpose, and it is the
	// *only* allocation of the whole merge path: requests travel to the
	// server goroutines by reference, a straggler server may read the
	// entries long after this call returned, and the own cell (plus any peer
	// cell this entry wins) adopts a pointer into this very slice — so the
	// backing array must never be reused across calls.
	payload := []rt.Entry{{Reg: reg, Owner: c.p.id, Val: val}}
	c.p.regs.Write(&payload[0])
	c.communicate(request{kind: propagateReq, reg: reg, entries: payload})
}

// Collect implements rt.Comm: gather the register-array views of a quorum,
// the caller's own store included, and return them. One communicate call.
// The returned slice is scratch reused by this handle: it is valid until
// the processor's next communicate call or the end of the run, whichever
// comes first (the handle outlives the run, see Proc.checkout). The views'
// entries live until the end of the run: each is a snapshot carved from
// its store's slab, which outlives the run like the handle and is rewound
// by System.Reset.
func (c *Comm) Collect(reg string) []rt.View {
	p := c.p
	own, _ := p.regs.Snapshot(reg)
	c.views = append(c.views[:0], rt.View{From: p.id, Entries: own.Entries})
	for _, r := range c.communicate(request{kind: collectReq, reg: reg}) {
		c.views = append(c.views, r.view)
	}
	return c.views
}

// communicate sends req to peers' server mailboxes and waits for quorum−1
// distinct replies (the caller's local effect is the quorum's first member).
// Whom it asks is the shared call schedule's (rt.Schedule): exactly the
// quorum−1 it needs first, walking the ring from its right-hand neighbour
// so the callers of one election spread their waves over all n mailboxes,
// and every peer that has not answered once a tick passes without a quorum.
// The tick is the system's RTT estimate (rt.RTT, fed by every call that
// completed without widening), and a widen costs one call to everyone after
// it, the probe, whose quorum later waves keep to. Nothing here consults a
// peer's crash flag: like a datagram sender, a chan caller is never told a
// peer is dead, it pays one tick and a probe finding out.
//
// The wait is for one token: the servers deliver to the handle's tally
// (rt.Tally), whose completing delivery wakes this goroutine once. Replies
// past the quorum die at the server, unread — that asymmetry is what gives
// live runs their stale-view, adversary-like interleavings. The returned
// reply slice is the tally's, valid until the next communicate call.
//
// The fault profile, when there is one, acts on the call here and nowhere
// else: a request may be lost as it is sent, or carry an injected delay
// (the delivery then rides a helper goroutine, so one slow link never stalls
// the rest of the wave); a reply may be lost as it is delivered (the tally
// draws ReplyDrop); and the schedule keeps ticking on the profile's resend
// period (selective, backed off, jittered). A call that ticks so long
// without hearing anything new that the schedule gives up on it
// (rt.Schedule.Wait) unwinds with a typed fault.NoQuorumError; the run's
// verdict then checks that abort against the plan.
func (c *Comm) communicate(req request) []reply {
	p := c.p
	p.maybeCrash()
	p.commCalls++
	c.ord++
	req.call, req.num = c.ord, uint32(p.commCalls)
	if c.QuorumSize() == 1 {
		// Single-processor system: the local effect already is a quorum.
		// Still yield once so solo runs keep a scheduling point per call,
		// as the sim backend does.
		runtime.Gosched()
		return nil
	}
	// Byte accounting uses the request's internal/wire equivalent, so the
	// channel backend reports the same bit complexity the codec would put
	// on a socket (and the sim kernel's PayloadBytes measures).
	wk := wire.KindCollect
	if req.kind == propagateReq {
		wk = wire.KindPropagate
	}
	reqSize := int64((&wire.Msg{Kind: wk, Call: uint64(req.num), From: p.id, Reg: req.reg, Entries: req.entries}).WireSize())
	var drop, lose func(int) bool
	var delay func(int) time.Duration
	if fp := c.fp; fp != nil {
		drop, delay, lose = fp.Drop, fp.Delay, fp.ReplyDrop
	}
	// Before any request is out: a reply never finds its call unopened.
	c.mu.Lock()
	c.tally.Open(&c.mu, req.call, lose)
	c.mu.Unlock()
	req.to = c
	rec := p.sys.rec
	// send hands the request to peer j's mailbox. It never refuses: a
	// message the profile drops was sent, and died on the wire.
	send := func(j int) bool {
		if drop != nil && drop(j) {
			return true
		}
		inbox := p.sys.procs[j].inbox
		// Booked as outstanding before the hand-off (delayed or not), so
		// quiescence waits never miss a request that is still in flight.
		p.sys.reqs.Add(1)
		if delay != nil {
			if d := delay(j); d > 0 {
				// Delayed delivery. The inflight group lets Shutdown wait
				// for stragglers before closing the mailboxes.
				p.sys.inflight.Add(1)
				late := req // only a delayed request outlives the call on the heap
				go func() {
					defer p.sys.inflight.Done()
					time.Sleep(d)
					inbox <- late
				}()
				return true
			}
		}
		inbox <- req
		return true
	}
	book := func(sent int) {
		p.sys.messages.Add(int64(sent))
		p.sys.bytes.Add(int64(sent) * reqSize)
	}
	var sendT0, waitT0 int64
	if rec != nil {
		sendT0 = trace.Now()
	}
	sent := c.sched.Begin(send)
	book(sent)
	if rec != nil {
		waitT0 = trace.Now()
		rec.Record(p.sys.traceID, c.round, trace.PSend, sendT0, waitT0-sendT0, int64(sent))
	}

	ticked := func(sent, resend int) {
		book(sent)
		if rec != nil {
			rec.Event(p.sys.traceID, c.round, trace.PRetransmit, int64(resend)) // 0 = the widen
		}
	}
	if !c.sched.Wait(&c.tally, send, ticked) {
		panic(&fault.NoQuorumError{Proc: int(p.id)})
	}
	// From here no server touches the replies or the answered set.
	c.sched.Done(&c.tally)
	if rec != nil {
		rec.Record(p.sys.traceID, c.round, trace.PQuorumWait, waitT0, trace.Now()-waitT0, int64(len(c.tally.Replies())))
	}
	p.maybeCrash()
	return c.tally.Replies()
}
