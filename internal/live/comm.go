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

	// slot is where the servers assemble each call's quorum; requests carry
	// its address.
	slot callSlot
	// ord is the ordinal of the handle's last call. It is never reset: a
	// processor's handle outlives its runs (Proc.comm), and a slot reopened
	// for a new run must still refuse the last run's stragglers.
	ord uint64

	// Single-goroutine arena, reused across communicate calls: the views
	// Collect hands back. Collect's return value is valid until the
	// processor's next communicate call, per the rt.Comm contract — the
	// entries inside stay valid, they are shared immutable snapshots.
	views []rt.View
}

// callSlot is one Comm's call slot, reused for every call of the election:
// the chan substrate's counterpart of electd's pending slot (sig, replies
// and seen are that slot's fields; electd's lives in a call table under a
// stripe lock and carries busy, this one carries its own lock and, in place
// of a table key, the ordinal of the call it is open for). The servers fill
// it (deliver) and the waiting communicate harvests it, both under mu; sig
// is the one wake-up between them.
//
// A call returns on need distinct peers and nothing else: deliver counts a
// reply only while the slot is open for the reply's own ordinal, its sender
// has not been counted and the quorum is short. Ordinals are unique per
// handle, across its runs too (Comm.ord), and the slot is opened for one at
// a time, so a straggler of an earlier ordinal can never match and dies
// uncounted, entries unseen — one of an earlier run included; so does a
// peer's second answer after a widen, and everything past the quorum.
//
// No wake-up is lost and no server ever blocks: replies are appended under
// mu and refused once len(replies) == need, so exactly one delivery per
// ordinal observes the quorum complete and sends exactly one token, into a
// one-slot channel the caller has emptied before it opens the next ordinal —
// communicate leaves its wait by that token alone, or by giving up; a call
// that gave up with its quorum in takes the token too, and one that gave up
// without it ends its run for the handle. A call its goroutine unwound from
// (a crash) may leave the slot open and a token behind: the next run's
// reset closes the slot and drains the token.
type callSlot struct {
	mu      sync.Mutex
	call    uint64        // ordinal of the call collecting; 0 = none
	need    int           // quorum−1: the caller's own store is the first member
	replies []reply       // distinct peers' answers, at most need
	seen    []bool        // [peer]; dedups the repeat answers a widen or resend draws
	sig     chan struct{} // one slot: the completing delivery's single wake-up

	// lose is the caller's reply-direction loss (fault.Profile.ReplyDrop;
	// nil without), sampled by whichever server delivers.
	lose func(from int) bool
}

// deliver is a server handing the slot its reply to call. Reply loss is
// sampled here, once per reply that would otherwise count — where the reply
// would have died on a real wire, and where electd's filter samples the same
// hook — so a complete slot is complete on every plan, and a dropped
// sender's retransmitted reply can still count.
func (s *callSlot) deliver(call uint64, r reply) {
	s.mu.Lock()
	if s.call != call || s.seen[r.from] || len(s.replies) >= s.need ||
		(s.lose != nil && s.lose(int(r.from))) {
		s.mu.Unlock()
		return
	}
	s.seen[r.from] = true
	s.replies = append(s.replies, r)
	done := len(s.replies) == s.need
	s.mu.Unlock()
	if done {
		// After the unlock, so the woken caller does not run into the lock it
		// takes next.
		s.sig <- struct{}{}
	}
}

// open starts collecting for call; close ends it. Between calls the slot is
// closed and refuses everything.
func (s *callSlot) open(call uint64) {
	s.mu.Lock()
	s.call = call
	s.replies = s.replies[:0]
	clear(s.seen)
	s.mu.Unlock()
}

// close reports whether the quorum was in.
func (s *callSlot) close() bool {
	s.mu.Lock()
	s.call = 0
	full := len(s.replies) == s.need
	s.mu.Unlock()
	return full
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
// would otherwise make again: the slot's reply and answered arrays and its
// signal channel, the views arena and the schedule's tick timer. It also
// keeps the ordinal counter, which must never go back. The handle must be
// quiescent: no call in progress and no server still delivering to it.
func (c *Comm) reset(p *Proc, fp *fault.Profile) {
	n := p.sys.n
	c.p, c.fp, c.round = p, fp, 0
	c.sched.Reset(n, int(p.id)+1, int(p.id), 0, &p.sys.rtt, 0, (uint64(p.id)+1)*SeedStride)
	s := &c.slot
	s.call, s.need, s.lose = 0, n/2, nil
	if s.sig == nil {
		// A collect returns the caller's own view and need replies.
		c.views = make([]rt.View, 0, n/2+1)
		s.replies, s.seen, s.sig = make([]reply, 0, n/2), make([]bool, n), make(chan struct{}, 1)
	} else {
		c.views = c.views[:0]
		s.replies = s.replies[:0]
		clear(s.seen)
		select {
		case <-s.sig: // left by a call its goroutine unwound from
		default:
		}
	}
	if fp != nil {
		if fp.Retransmit > 0 {
			c.sched.SetRetransmit(fp.Retransmit)
		}
		s.lose = fp.ReplyDrop
	}
}

// release drops what the handle's last run left in it — the snapshots in
// its views arena and slot, and its fault hooks — keeping the arrays, so a
// parked system pins none of it. Quiescent handles only.
func (c *Comm) release() {
	clear(c.views[:cap(c.views)])
	c.views = c.views[:0]
	s := &c.slot
	clear(s.replies[:cap(s.replies)])
	s.replies = s.replies[:0]
	c.fp, s.lose = nil, nil
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
// comes first (the handle outlives the run, see Proc.checkout).
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
// The wait is for one signal: the servers assemble the quorum on the
// handle's call slot and the delivery that completes it wakes this goroutine
// once (see callSlot); communicate then closes the slot and returns what it
// holds. Replies past the quorum find the slot complete or closed and die at
// the server, unread — that asymmetry is what gives live runs their
// stale-view, adversary-like interleavings. The returned reply slice is the
// slot's, valid until the next communicate call.
//
// The fault profile, when there is one, acts on the call here and nowhere
// else: a request may be lost as it is sent, or carry an injected delay
// (the delivery then rides a helper goroutine, so one slow link never stalls
// the rest of the wave); a reply may be lost as it is delivered
// (callSlot.deliver); and the schedule keeps ticking on the profile's resend
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
	s := &c.slot
	if s.need == 0 {
		// Single-processor system: the local effect already is a quorum.
		// Still yield once so solo runs keep a scheduling point per call,
		// as the sim backend does.
		runtime.Gosched()
		return nil
	}
	s.open(req.call) // before any request is out: a reply never finds its call unopened
	req.slot = s
	// Byte accounting uses the request's internal/wire equivalent, so the
	// channel backend reports the same bit complexity the codec would put
	// on a socket (and the sim kernel's PayloadBytes measures).
	wk := wire.KindCollect
	if req.kind == propagateReq {
		wk = wire.KindPropagate
	}
	reqSize := int64((&wire.Msg{Kind: wk, Call: uint64(req.num), From: p.id, Reg: req.reg, Entries: req.entries}).WireSize())
	var drop func(int) bool
	var delay func(int) time.Duration
	if fp := c.fp; fp != nil {
		drop, delay = fp.Drop, fp.Delay
	}
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

	// The servers own the answered set; a tick gets a copy.
	answered := func(into []bool) {
		s.mu.Lock()
		copy(into, s.seen)
		s.mu.Unlock()
	}
	ticked := func(sent, resend int) {
		book(sent)
		if rec != nil {
			rec.Event(p.sys.traceID, c.round, trace.PRetransmit, int64(resend)) // 0 = the widen
		}
	}
	done := c.sched.Wait(s.sig, answered, send, ticked)
	// From here no server touches the replies or the answered set.
	if full := s.close(); !done {
		if !full {
			panic(&fault.NoQuorumError{Proc: int(p.id)})
		}
		<-s.sig // the quorum landed as the call gave up: its signal is on the way
	}
	c.sched.Done(s.seen)
	if rec != nil {
		rec.Record(p.sys.traceID, c.round, trace.PQuorumWait, waitT0, trace.Now()-waitT0, int64(s.need))
	}
	p.maybeCrash()
	return s.replies
}
