package live

import (
	"runtime"
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
	round int32       // current protocol round, for span attribution (SetRound)
	sched rt.Schedule // whom each call asks, and when it asks again

	// Single-goroutine arena, reused across communicate calls: the reply
	// collection scratch, the views Collect hands back, and the per-call
	// replier-dedup bitmap. Collect's return value is
	// valid until the processor's next communicate call, per the rt.Comm
	// contract — the entries inside stay valid, they are shared immutable
	// snapshots.
	out   []reply
	views []rt.View
	seen  []bool
}

// NewComm builds the communicate handle for an algorithm running on p. Its
// ring walks start at p's right-hand neighbour and never ask p itself; under
// a plan that loses messages its calls tick on the plan's period.
func NewComm(p *Proc) *Comm {
	c := &Comm{p: p, sched: rt.NewSchedule(p.sys.n, int(p.id)+1, int(p.id), 0, (uint64(p.id)+1)*SeedStride)}
	if pl := p.sys.plan; pl.NeedsRetransmit() {
		c.sched.SetRetransmit(pl.RetransmitTick())
	}
	return c
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
// then push the new cell to a quorum. One communicate call. The own-cell
// bump is a CAS like any other merge — the algorithm goroutine is the only
// writer that *increments* its own sequence, but a retransmitted propagate
// of an older own entry can race in through the server goroutine, and the
// CAS keeps writer versioning exact either way.
func (c *Comm) Propagate(reg string, val rt.Value) {
	p := c.p
	arr := p.array(reg)
	s := &arr.cells[p.id]
	// The one-entry payload is allocated per call on purpose, and it is the
	// *only* allocation of the whole merge path: requests travel to the
	// server goroutines by reference, a straggler server may read the
	// entries long after this call returned, and the own cell below (plus
	// any peer cell this entry wins) adopts a pointer into this very slice —
	// so the backing array must never be reused across calls.
	payload := []rt.Entry{{Reg: reg, Owner: p.id, Seq: 1, Val: val}}
	e := &payload[0]
	for {
		cur := s.v.Load()
		if cur != nil {
			// Mutating the unpublished entry is safe: nobody can see it
			// until the CAS below wins.
			e.Seq = cur.Seq + 1
		}
		if s.v.CompareAndSwap(cur, e) {
			arr.version.Add(1)
			break
		}
	}
	c.communicate(request{kind: propagateReq, reg: reg, entries: payload})
}

// Collect implements rt.Comm: gather the register-array views of a quorum,
// the caller's own store included, and return them. One communicate call.
// The returned slice is scratch reused by this handle: it is valid until
// the processor's next communicate call.
func (c *Comm) Collect(reg string) []rt.View {
	p := c.p
	own := rt.View{From: p.id, Entries: p.snapshot(reg)}
	c.views = c.views[:0]
	c.views = append(c.views, own)
	for _, r := range c.communicate(request{kind: collectReq, reg: reg}) {
		c.views = append(c.views, r.view)
	}
	return c.views
}

// communicate sends req to peers' server mailboxes and waits for quorum−1
// distinct replies (the caller's local effect is the quorum's first member).
// Whom it asks is the shared call schedule's (rt.Schedule): the quorum−1 it
// needs plus two spares first, walking the ring from its right-hand
// neighbour so the callers of one election spread their waves over all n
// mailboxes, and every peer that has not answered once a tick passes
// without a quorum — after which this processor's calls stay wide. Nothing
// here consults a peer's crash flag: like a datagram sender, a chan caller
// is never told a peer is dead, it pays one tick finding out.
//
// The reply channel is buffered for n−1 replies: the wait reads only until
// it holds quorum−1 distinct senders, and stragglers land in the abandoned
// buffer without ever blocking a server — that asymmetry is what gives live
// runs their stale-view, adversary-like interleavings. Servers drop a reply
// that finds the buffer full. Without a fault plan that cannot cost a call
// its quorum: only a widen makes a peer answer twice, so a full buffer
// holds at least ⌈(n−1)/2⌉ senders the wait has not counted yet, which is
// all it can still need. The returned reply slice is scratch, valid until
// the next communicate call.
//
// Under a scenario plan each outgoing message may carry an injected delay
// (link latency, slow-processor tax, reordering); the delivery then rides a
// helper goroutine so one slow link never stalls the rest of the wave.
// Partitions, flaky links and crash-recovery can lose a message (or its
// reply) while its server is, or becomes, able to answer — so under those
// plans the schedule keeps ticking on the plan's period (selective, backed
// off, jittered), the wait samples reply-direction loss at receipt (the
// chan analogue of dropping a reply on the wire), and it aborts with a
// typed fault.NoQuorumError once the plan has provably starved this
// processor of majority quorums and the grace period has passed.
func (c *Comm) communicate(req request) []reply {
	p := c.p
	p.maybeCrash()
	p.commCalls++
	req.call = uint64(p.commCalls)
	n := p.sys.n
	need := c.QuorumSize() - 1
	if need == 0 {
		// Single-processor system: the local effect already is a quorum.
		// Still yield once so solo runs keep a scheduling point per call,
		// as the sim backend does.
		runtime.Gosched()
		return nil
	}
	ch := make(chan reply, n-1)
	req.reply = ch
	// Byte accounting uses the request's internal/wire equivalent, so the
	// channel backend reports the same bit complexity the codec would put
	// on a socket (and the sim kernel's PayloadBytes measures).
	wk := wire.KindCollect
	if req.kind == propagateReq {
		wk = wire.KindPropagate
	}
	reqSize := int64((&wire.Msg{Kind: wk, Call: req.call, From: p.id, Reg: req.reg, Entries: req.entries}).WireSize())
	pl := p.sys.plan
	lossy := pl.HasLinkFaults()
	rec := p.sys.rec
	// send hands the request to peer j's mailbox. It never refuses: a
	// message the plan drops was sent, and died on the wire.
	send := func(j int) bool {
		if lossy && pl.DropMsg(p.frng, int(p.id), j, p.sys.elapsed()) {
			return true
		}
		inbox := p.sys.procs[j].inbox
		// Booked as outstanding before the hand-off (delayed or not), so
		// quiescence waits never miss a request that is still in flight.
		p.sys.reqs.Add(1)
		if d := pl.SendDelay(p.frng, int(p.id), j); d > 0 {
			// Delayed delivery. The inflight group lets Shutdown wait for
			// stragglers before closing the mailboxes.
			p.sys.inflight.Add(1)
			late := req // only a delayed request outlives the call on the heap
			go func() {
				defer p.sys.inflight.Done()
				time.Sleep(d)
				inbox <- late
			}()
			return true
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

	// One wait for every configuration: a reply, the tick (nil once a call
	// without a plan has asked everyone) and the no-quorum abort (nil unless
	// the plan starves this processor). seen is both the per-sender dedup —
	// a peer asked twice can answer twice, and a repeat must never stand in
	// for a distinct quorum member — and the tick's answered set.
	if cap(c.seen) < n {
		c.seen = make([]bool, n)
	}
	seen := c.seen[:n]
	clear(seen)
	out := c.out[:0]
	for len(out) < need {
		select {
		case r := <-ch:
			f := int(r.from)
			if seen[f] {
				continue
			}
			// Reply-direction loss, sampled at receipt — where the reply
			// would have vanished on a real wire. An undropped reply from a
			// dropped server can still arrive later via retransmission.
			if lossy && pl.DropMsg(p.frng, f, int(p.id), p.sys.elapsed()) {
				continue
			}
			seen[f] = true
			out = append(out, r)
		case <-c.sched.C():
			sent, resend := c.sched.Tick(seen, send)
			book(sent)
			if rec != nil {
				rec.Event(p.sys.traceID, c.round, trace.PRetransmit, int64(resend)) // 0 = the widen
			}
		case <-p.noq:
			c.sched.End()
			panic(&fault.NoQuorumError{Proc: int(p.id)})
		}
	}
	c.sched.End()
	if rec != nil {
		rec.Record(p.sys.traceID, c.round, trace.PQuorumWait, waitT0, trace.Now()-waitT0, int64(need))
	}
	c.out = out // keep the grown scratch for the next call
	p.maybeCrash()
	return out
}
