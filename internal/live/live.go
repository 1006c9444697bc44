package live

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

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
	call    uint64     // caller's communicate-call ordinal: what its slot is open for
	entries []rt.Entry // propagateReq payload (treated as immutable)
	reg     string     // collectReq target register array
	slot    *callSlot  // the caller's call slot, where the server delivers its reply
}

// reply answers a request: an ack for propagateReq, a view for collectReq.
// from identifies the replying server — what the caller's slot dedups on
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

// System is one live run's processor set. Construct with NewSystem (or
// NewScenarioSystem to inject faults), run algorithm goroutines against
// Comm handles, then Shutdown.
type System struct {
	n        int
	plan     *fault.Plan
	procs    []*Proc
	serving  bool
	servers  sync.WaitGroup
	inflight sync.WaitGroup // delayed message deliveries still sleeping
	reqs     sync.WaitGroup // mailbox requests handed off but not yet served
	messages atomic.Int64
	bytes    atomic.Int64 // wire-codec bytes of all quorum traffic

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

// NewSystem creates n processors, each with a running server goroutine, and
// deterministic per-processor PRNG streams derived from seed.
func NewSystem(n int, seed int64) *System {
	return NewScenarioSystem(n, seed, nil)
}

// NewScenarioSystem is NewSystem with a fault-injection plan (nil = none):
// the materialized crash schedule, link-delay distributions and slow sets
// of a fault.Scenario. Crash times are armed by the runner, not here — the
// clock starts when the algorithms do.
func NewScenarioSystem(n int, seed int64, plan *fault.Plan) *System {
	return newSystem(n, seed, plan, true)
}

// newSystem optionally skips the server goroutines: a TCP-transport run
// replaces the channel-backed quorum with electd servers, leaving the
// in-process mailboxes unused.
func newSystem(n int, seed int64, plan *fault.Plan, serve bool) *System {
	sys := &System{n: n, plan: plan, serving: serve, procs: make([]*Proc, n)}
	for i := 0; i < n; i++ {
		p := &Proc{
			id:  rt.ProcID(i),
			sys: sys,
			rng: rand.New(rand.NewSource(int64(uint64(seed) + uint64(i)*SeedStride))),
			// Capacity n absorbs the common case (each of ≤n participants
			// has one outstanding communicate call), but a descheduled
			// server can accumulate more: requests from calls that already
			// reached quorum elsewhere linger here. A full mailbox then
			// throttles sending callers. That is backpressure, not a
			// deadlock risk — servers drain unconditionally and delivering
			// a reply never blocks them (see callSlot), so every send
			// eventually completes.
			inbox: make(chan request, n),
			regs:  regstore.New(nil),
		}
		if plan != nil {
			// A separate delay-sampling PRNG, also algorithm-goroutine
			// owned: injected latency must not perturb the coin-flip
			// stream, so equal seeds keep equal flips across scenarios.
			p.frng = rand.New(rand.NewSource(int64(uint64(seed)+uint64(i)*SeedStride) ^ faultStreamSalt))
		}
		sys.procs[i] = p
	}
	// A default fault-clock anchor; runners re-stamp it as the algorithms
	// launch so partition windows align with the crash timers.
	sys.start.Store(time.Now().UnixNano())
	if serve {
		for _, p := range sys.procs {
			sys.servers.Add(1)
			go p.serve()
		}
	}
	return sys
}

// faultStreamSalt decorrelates a processor's delay-sampling PRNG stream
// from its coin-flip stream (both are derived from the same sharded seed).
const faultStreamSalt = 0x3C6EF372FE94F82A

// profile builds participant i's fault hooks for the current run — nil on a
// fault-free one: its delays and request loss draw from i's fault stream,
// partition windows read the run's fault clock, noq is its no-quorum abort
// and a crash unwinds it as on every other backend interaction.
func (sys *System) profile(i int, noq <-chan struct{}) *fault.Profile {
	if sys.plan == nil {
		return nil // before the method values below, which allocate
	}
	p := sys.procs[i]
	return sys.plan.Profile(i, p.frng, sys.elapsed, noq, p.maybeCrash)
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

// Shutdown stops the server goroutines and waits for them to drain. It must
// only be called after every algorithm goroutine has returned: closing the
// mailboxes while a communicate call is still broadcasting would panic.
// Deliveries still sleeping out an injected delay are waited for first, for
// the same reason — the servers outlive every in-flight message.
func (sys *System) Shutdown() {
	sys.inflight.Wait()
	for _, p := range sys.procs {
		close(p.inbox)
	}
	if sys.serving {
		sys.servers.Wait()
	}
}

// Proc is a processor handle of the live backend; it implements rt.Procer.
// Algorithm-facing methods must be called from the processor's single
// algorithm goroutine; the server goroutine touches only the lock-free
// register store.
type Proc struct {
	id  rt.ProcID
	sys *System
	rng *rand.Rand
	// frng samples fault decisions (step delays here, and through the
	// participant's fault.Profile its send delays and request loss) on the
	// algorithm goroutine; non-nil iff sys.plan is.
	frng *rand.Rand
	// crashed is the participant half of a crash: the algorithm goroutine
	// unwinds at its next step. down is the replica half: the server
	// goroutine drops requests. Crash sets both; Recover clears only down —
	// a recovered replica answers again, a crashed participant stays gone.
	crashed atomic.Bool
	down    atomic.Bool
	inbox   chan request

	// regs is the processor's register state: lock-free for every reader
	// and writer (see internal/regstore), so neither the server goroutine nor
	// the algorithm goroutine ever takes a lock for it.
	regs *regstore.Store

	mu        sync.Mutex // guards published
	published any

	commCalls int // algorithm-goroutine-local; read after the run joins
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
// the empty mailbox. A reply is delivered onto the caller's call slot —
// one short critical section and at most one non-blocking wake-up (see
// callSlot.deliver) — so the server never blocks and the system cannot
// deadlock; whether the reply still counts (a straggler, a repeat answer
// to a retransmitted request, one the plan loses) is the slot's business,
// and it is booked as sent either way. A crashed processor's server keeps
// draining — senders must never block on a dead peer — but drops every
// request unanswered. Every drained request is marked served on sys.reqs,
// crashed or not, so quiescence (Reset, pool checkout) can wait for the
// mailboxes to empty.
func (p *Proc) serve() {
	defer p.sys.servers.Done()
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
			req.slot.deliver(req.call, reply{from: p.id})
			p.sys.bytes.Add(int64((&wire.Msg{Kind: wire.KindAck, Call: req.call, From: p.id}).WireSize()))
		case collectReq:
			snap, _ := p.regs.Snapshot(req.reg)
			req.slot.deliver(req.call, reply{from: p.id, view: rt.View{From: p.id, Entries: snap.Entries}})
			// The reply's wire size from cached parts: the snapshot's
			// entry count and cached entry bytes.
			p.sys.bytes.Add(int64((&wire.Msg{Kind: wire.KindView, Call: req.call, From: p.id, Reg: req.reg}).BodySize(len(snap.Entries), snap.Size)))
		}
		p.sys.messages.Add(1) // the reply
		p.sys.reqs.Done()
	}
}
