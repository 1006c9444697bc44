package live

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/regstore"
	"repro/internal/rt"
	"repro/internal/trace"
	"repro/internal/wire"
)

// SeedStride separates per-processor PRNG streams: consecutive processor
// seeds are spread across the 64-bit space by the splitmix64 golden-ratio
// increment, so sharded seeds never collide for realistic run counts.
// Exported because the campaign engine's run-level seed sharding must
// avoid aliasing with exactly this constant.
const SeedStride uint64 = 0x9E3779B97F4A7C15

// msgKind tags a quorum request.
type msgKind uint8

const (
	// propagateReq pushes register cells to the recipient, who merges them
	// and acknowledges (the paper's "propagate, v" message).
	propagateReq msgKind = iota + 1
	// collectReq requests the recipient's view of one register array (the
	// paper's "collect, v" message).
	collectReq
)

// request is one quorum message travelling to a server goroutine.
type request struct {
	kind    msgKind
	num     uint32     // the call's number in its run (Proc.CommCalls): the wire.Msg.Call its size is counted with, as the sim counts it
	call    uint64     // the caller's handle's ordinal for the call: what its tally is open for
	entries []rt.Entry // propagateReq payload (treated as immutable)
	reg     string     // collectReq target register array
	to      *Comm      // the caller's handle, where the server delivers its reply
}

// reply answers a request: an ack for propagateReq, a view for collectReq.
// from identifies the replying server — what the caller's tally dedups on
// and what reply-direction fault sampling keys on.
type reply struct {
	from rt.ProcID
	view rt.View
}

// crashSignal unwinds a crashed processor's algorithm goroutine: the
// backend panics with it at the processor's next interaction (communicate,
// flip, await) after its crash time, and the runner recovers it — the
// algorithm code itself never observes the crash, exactly as in the model.
type crashSignal struct{ id rt.ProcID }

// System is one live run's processor set. A run builds one (newSystem) or
// checks one out of a SystemPool, hands its participant goroutines their
// tasks, then shuts it down or parks it again.
type System struct {
	n        int
	plan     *fault.Plan
	procs    []*Proc
	serving  bool
	parked   sync.WaitGroup // the server and participant goroutines, until Shutdown ends them
	running  sync.WaitGroup // the run's participants, until each has ended its task
	inflight sync.WaitGroup // delayed message deliveries still sleeping
	reqs     sync.WaitGroup // mailbox requests handed off but not yet served
	messages atomic.Int64
	bytes    atomic.Int64 // wire-codec bytes of all quorum traffic

	// rtt is how long the processors' thrifty calls take to reach their
	// quorum, shared by every Comm on the system: it sets their widen tick
	// (rt.RTT). It outlives Reset, so a pooled system's next run starts warm.
	rtt rt.RTT

	// rec is the election flight recorder of the current run (nil =
	// untraced) and traceID the election ID its spans carry; both are
	// installed by the runner before the algorithm goroutines start and
	// read only from those goroutines, so pooled reuse is race-free.
	rec     *trace.Recorder
	traceID uint64

	// start anchors the run's fault clock (UnixNano): partition windows are
	// elapsed-time checks, sampled on whatever goroutine is sending, so the
	// anchor is an atomic — message data flow gives the race detector no
	// happens-before edge to hang a plain field on. Stamped by StartClock
	// when the algorithms launch.
	start atomic.Int64
}

// newSystem creates n processors with per-processor PRNG streams derived
// from seed (each seeded at its first draw), under a fault-injection plan
// (nil = none); the runner arms its crash times when the algorithms start.
// Every processor gets a participant goroutine, parked on its task channel
// until a run hands it one (see run). With serve each processor also gets
// the chan substrate's mailbox, register store and server goroutine; a
// networked run, whose quorum is electd's, goes without.
func newSystem(n int, seed int64, plan *fault.Plan, serve bool) *System {
	sys := &System{n: n, plan: plan, serving: serve, procs: make([]*Proc, n)}
	for i := 0; i < n; i++ {
		p := &Proc{id: rt.ProcID(i), sys: sys, tasks: make(chan task, 1)}
		if serve {
			// Capacity n absorbs the common case (each of ≤n participants
			// has one outstanding communicate call), but a descheduled
			// server can accumulate more: requests from calls that already
			// reached quorum elsewhere linger here. A full mailbox then
			// throttles sending callers. That is backpressure, not a
			// deadlock risk — servers drain unconditionally and delivering
			// a reply never blocks them (see Comm.deliver), so every send
			// eventually completes.
			p.inbox, p.regs = make(chan request, n), regstore.New(nil)
		}
		p.rng, p.frng = rand.New(&p.coins), rand.New(&p.faults)
		p.key(seed)
		sys.procs[i] = p
	}
	// A default fault-clock anchor; runners re-stamp it as the algorithms
	// launch so partition windows align with the crash timers.
	sys.start.Store(time.Now().UnixNano())
	for _, p := range sys.procs {
		sys.parked.Add(1)
		go p.participate()
		if serve {
			sys.parked.Add(1)
			go p.serve()
		}
	}
	return sys
}

// faultStreamSalt decorrelates a processor's delay-sampling PRNG stream
// from its coin-flip stream (both are derived from the same sharded seed).
const faultStreamSalt = 0x3C6EF372FE94F82A

// key seeds the processor's coin and fault streams for a run under seed,
// sharded by processor id. Neither stream is built here: each is built at
// its first draw (rt.LazySource), on the algorithm goroutine, so a processor
// that never flips — a doorway loser — never pays for one.
func (p *Proc) key(seed int64) {
	base := int64(uint64(seed) + uint64(p.id)*SeedStride)
	p.rng.Seed(base) // through the Rand: it also drops Read's buffered bytes
	p.frng.Seed(base ^ faultStreamSalt)
}

// profile builds participant i's fault hooks for the current run — nil on a
// fault-free one: its delays and request loss draw from i's fault stream,
// partition windows read the run's fault clock, and a crash unwinds it as
// on every other backend interaction.
func (sys *System) profile(i int) *fault.Profile {
	if sys.plan == nil {
		return nil // before the method values below, which allocate
	}
	p := sys.procs[i]
	return sys.plan.Profile(i, p.frng, sys.elapsed, p.maybeCrash)
}

// N returns the system size.
func (sys *System) N() int { return sys.n }

// Plan returns the system's fault-injection plan (nil when fault-free).
func (sys *System) Plan() *fault.Plan { return sys.plan }

// Crash fails processor id: its server goroutine keeps draining its mailbox
// but drops every request unanswered (messages to a crashed processor are
// lost), and its algorithm goroutine — if any — is unwound by a crashSignal
// panic at its next backend interaction. Quorum liveness is unaffected as
// long as at most ⌈n/2⌉−1 processors crash: every communicate call can
// still assemble ⌊n/2⌋+1 acknowledgments from the survivors.
func (sys *System) Crash(id rt.ProcID) {
	p := sys.procs[id]
	p.crashed.Store(true)
	p.down.Store(true)
}

// Recover revives processor id's replica half: its server goroutine
// resumes answering with whatever register state it held at the crash —
// the crash-recovery model of durable state surviving. The participant
// half stays dead: a crashed algorithm goroutine has unwound and a
// recovered processor does not re-enter an election it left, it only
// serves quorums again.
func (sys *System) Recover(id rt.ProcID) {
	sys.procs[id].down.Store(false)
}

// Crashed reports whether processor id has crashed.
func (sys *System) Crashed(id rt.ProcID) bool { return sys.procs[id].crashed.Load() }

// StartClock anchors the fault clock: partition windows and starvation
// deadlines count elapsed time from here. The runner stamps it as the
// algorithms launch.
func (sys *System) StartClock(t time.Time) { sys.start.Store(t.UnixNano()) }

// elapsed is the fault-clock reading; safe from any goroutine.
func (sys *System) elapsed() time.Duration {
	return time.Duration(time.Now().UnixNano() - sys.start.Load())
}

// Proc returns the handle of processor id.
func (sys *System) Proc(id rt.ProcID) *Proc { return sys.procs[id] }

// Messages returns the total number of point-to-point messages sent so far
// (requests and replies, as in the sim backend's accounting).
func (sys *System) Messages() int64 { return sys.messages.Load() }

// Bytes returns the total wire-codec payload bytes of all quorum traffic so
// far — the same internal/wire frame-body accounting as the sim backend's
// PayloadBytes statistic and the TCP transport's byte counters.
func (sys *System) Bytes() int64 { return sys.bytes.Load() }

// Shutdown ends the system's parked goroutines — every participant
// goroutine, and the server goroutines once they have drained their
// mailboxes — and waits for them to exit. It must only be called after
// every participant has ended its task: closing the mailboxes while a
// communicate call is still broadcasting would panic. Deliveries still
// sleeping out an injected delay are waited for first, for the same reason
// — the servers outlive every in-flight message.
func (sys *System) Shutdown() {
	sys.inflight.Wait()
	for _, p := range sys.procs {
		close(p.tasks)
		if p.inbox != nil {
			close(p.inbox)
		}
	}
	sys.parked.Wait()
}

// Proc is a processor handle of the live backend; it implements rt.Procer.
// Algorithm-facing methods must be called from the processor's participant
// goroutine, the one algorithm goroutine it has; the server goroutine
// touches only the lock-free register store.
type Proc struct {
	id  rt.ProcID
	sys *System
	// rng draws the processor's coins from coins. frng samples fault
	// decisions from faults (step delays here, and through the participant's
	// fault.Profile its send delays and request loss), read only under a
	// plan: a separate stream, so injected latency never perturbs the coin
	// flips and equal seeds keep equal flips across scenarios. Both are
	// owned by the algorithm goroutine.
	rng, frng     *rand.Rand
	coins, faults rt.LazySource
	// crashed is the participant half of a crash: the algorithm goroutine
	// unwinds at its next step. down is the replica half: the server
	// goroutine drops requests. Crash sets both; Recover clears only down —
	// a recovered replica answers again, a crashed participant stays gone.
	crashed atomic.Bool
	down    atomic.Bool
	inbox   chan request // the server's mailbox; nil on a networked system

	// regs is the processor's register state: lock-free for every reader
	// and writer (see internal/regstore), so neither the server goroutine nor
	// the algorithm goroutine ever takes a lock for it. Nil on a networked
	// system, whose registers live in its electd servers.
	regs *regstore.Store

	mu        sync.Mutex // guards published
	published any

	commCalls int // algorithm-goroutine-local; read after the run joins

	// comm is the processor's chan communicate handle, built by its first
	// checkout and kept across runs, like regs and the streams; nil on a
	// system whose runs go through electd.
	comm *Comm
	// state is the processor's published protocol state, built by its first
	// run and kept across runs like comm, on either substrate (checkoutState).
	state *core.State

	// tasks hands the parked participant goroutine its task, one per run
	// (participate); end is how its last task ended, read after the run
	// joins.
	tasks chan task
	end   ending
}

// checkout hands out p's communicate handle for a run under the fault hooks
// fp, reset to what NewComm(p, fp) builds: a run on a recycled system
// rebuilds no handle, tally, arena or timer. The system must be quiescent.
func (p *Proc) checkout(fp *fault.Profile) *Comm {
	if p.comm == nil {
		p.comm = new(Comm)
	}
	p.comm.reset(p, fp)
	return p.comm
}

// checkoutState hands out p's State for a run of algorithm, reset to what
// core.NewState(p, algorithm) builds and published on p: a run on a
// recycled system builds no State, and keeps the sifting table and the
// register names the processor's last run built. The processor's
// participant must be parked.
func (p *Proc) checkoutState(algorithm string) *core.State {
	if p.state == nil {
		p.state = new(core.State)
	}
	p.state.Reset(p, algorithm)
	return p.state
}

// ID implements rt.Procer.
func (p *Proc) ID() rt.ProcID { return p.id }

// N implements rt.Procer.
func (p *Proc) N() int { return p.sys.n }

// Rand implements rt.Procer: the processor's private PRNG, owned by the
// algorithm goroutine.
func (p *Proc) Rand() *rand.Rand { return p.rng }

// maybeCrash unwinds the algorithm goroutine if the processor has crashed.
// Every algorithm-facing primitive calls it, so a crash becomes effective
// at the processor's next step — between steps the model cannot observe a
// crash anyway.
func (p *Proc) maybeCrash() {
	if p.crashed.Load() {
		panic(crashSignal{p.id})
	}
}

// Pause implements rt.Procer: on the live backend it simply yields the OS
// thread, inviting the scheduler to interleave other goroutines — the
// real-concurrency analogue of handing control to the adversary.
func (p *Proc) Pause() {
	p.maybeCrash()
	runtime.Gosched()
}

// Flip implements rt.Procer: a biased local coin flip, 1 with probability
// prob. Where the sim backend publishes the outcome to the adversary and
// yields, the live backend yields to the OS scheduler, preserving the
// "flip, then lose control" shape of the model. Under a scenario plan a
// slow processor sleeps out its step delay here — the flip is the
// algorithms' only purely local step.
func (p *Proc) Flip(prob float64) int {
	p.maybeCrash()
	if pl := p.sys.plan; pl != nil {
		if d := pl.StepDelay(p.frng, int(p.id)); d > 0 {
			time.Sleep(d)
		}
	}
	v := 0
	if p.rng.Float64() < prob {
		v = 1
	}
	runtime.Gosched()
	return v
}

// Publish implements rt.Procer. The mutex guards only the pointer swap:
// the published value's *fields* are still mutated by the algorithm
// goroutine without synchronization, so the contents (e.g. a *core.State's
// Round or Stage) must only be read after the run joins — there is no
// adversary on this backend to read them mid-run.
func (p *Proc) Publish(state any) {
	p.mu.Lock()
	p.published = state
	p.mu.Unlock()
}

// Published returns the last value passed to Publish. See Publish for the
// synchronization caveat on reading the value's fields mid-run.
func (p *Proc) Published() any {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.published
}

// CommCalls reports the number of communicate calls the processor has made;
// valid once its algorithm goroutine has returned.
func (p *Proc) CommCalls() int { return p.commCalls }

// serve is the server goroutine: the reactive half of the processor. It
// drains the mailbox until Shutdown closes it, merging propagations and
// answering collects; between runs of a pooled system it simply parks on
// the empty mailbox. A reply is delivered to the caller's handle — one
// short critical section and at most one non-blocking wake-up (see
// Comm.deliver) — so the server never blocks and the system cannot
// deadlock; whether the reply still counts is the caller's tally's
// business, and it is booked as sent either way. A crashed processor's
// server keeps draining — senders must never block on a dead peer — but
// drops every request unanswered. Every drained request is marked served on sys.reqs,
// crashed or not, so quiescence (Reset, pool checkout) can wait for the
// mailboxes to empty.
func (p *Proc) serve() {
	defer p.sys.parked.Done()
	for req := range p.inbox {
		if p.down.Load() {
			p.sys.reqs.Done()
			continue // crashed: the message is lost, no acknowledgment
		}
		switch req.kind {
		case propagateReq:
			// The store adopts the entries: the payload is allocated per
			// propagate call and never reused (see Comm.Propagate).
			for i := range req.entries {
				p.regs.Merge(&req.entries[i])
			}
			req.to.deliver(req.call, reply{from: p.id})
			p.sys.bytes.Add(int64((&wire.Msg{Kind: wire.KindAck, Call: uint64(req.num), From: p.id}).WireSize()))
		case collectReq:
			snap, _ := p.regs.Snapshot(req.reg)
			req.to.deliver(req.call, reply{from: p.id, view: rt.View{From: p.id, Entries: snap.Entries}})
			// The reply's wire size from cached parts: the snapshot's
			// entry count and cached entry bytes.
			p.sys.bytes.Add(int64((&wire.Msg{Kind: wire.KindView, Call: uint64(req.num), From: p.id, Reg: req.reg}).BodySize(len(snap.Entries), snap.Size)))
		}
		p.sys.messages.Add(1) // the reply
		p.sys.reqs.Done()
	}
}
