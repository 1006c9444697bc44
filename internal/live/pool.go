package live

import (
	"fmt"
	"sync"

	"repro/internal/fault"
)

// quiesce blocks until the system is idle: every delayed delivery has been
// handed to its mailbox and every mailbox request has been served (or
// dropped by a crashed server). Only call it after all of the run's
// algorithm goroutines have returned — they are the only source of new
// requests.
func (sys *System) quiesce() {
	sys.inflight.Wait()
	sys.reqs.Wait()
}

// release drops everything the last run left in the processors' stores and
// handles — register cells (with the payloads they adopted), snapshot
// caches, published state and a traced run's round hook on it, and the
// views and fault hooks a communicate handle held — keeping the arrays
// themselves and the States, which the next checkout resets: register
// names repeat across runs of the same algorithm, and a handle's arrays are
// sized by n. A store's snapshots are carved from its slab and box block,
// which it keeps too, cleared and rewound (regstore.Store.Reset): every
// view the run handed out dies here. Put calls it so a parked system does
// not hold its last election's state until the next checkout; Reset calls
// it again (idempotent and then cheap — Reset is also public on systems
// that were never pooled). Quiescent systems only.
func (sys *System) release() {
	for _, p := range sys.procs {
		if p.regs != nil {
			p.regs.Reset()
		}
		if p.comm != nil {
			p.comm.release()
		}
		if p.state != nil {
			p.state.RoundHook = nil // a traced run's hook holds its client
		}
		p.mu.Lock()
		p.published = nil
		p.mu.Unlock()
	}
}

// Reset reinitializes the system in place for a new run with the given seed
// and fault plan, the recycling path of SystemPool: server goroutines stay
// parked on their mailboxes and participant goroutines on their task
// channels (nothing is torn down or respawned — a crashed processor is only
// a dropped flag here, its serve loop never exited and its participant
// goroutine recovered the crash and parked again, so reviving it is
// clearing that flag), while every piece of per-run state is
// restored to exactly what a fresh system of seed and plan would be:
// per-processor PRNG streams re-keyed on the same splitmix64 sharding (each
// built at its first draw, not here — rt.LazySource), register arrays
// zeroed with their snapshot caches dropped and the blocks their snapshots
// are carved from rewound (kept, as the handles are), raw mailboxes,
// published state, call counters and crash flags cleared, and the system's
// message/byte counters rewound. Each processor's chan communicate handle is released
// here and reset to NewComm's state when the next run checks it out
// (Proc.checkout), keeping its arrays and timer, and so is each processor's
// core.State (Proc.checkoutState), keeping its sifting table and register
// names. The one thing a run leaves on purpose is the RTT estimate
// (System.rtt), so the next run starts warm.
// It must only be called on a quiescent system whose previous run has fully
// joined.
func (sys *System) Reset(seed int64, plan *fault.Plan) {
	sys.quiesce()
	sys.release()
	sys.plan = plan
	sys.messages.Store(0)
	sys.bytes.Store(0)
	for _, p := range sys.procs {
		p.key(seed)
		p.crashed.Store(false)
		p.down.Store(false)
		p.commCalls = 0
	}
}

// SystemPool recycles whole Systems across runs: the n server goroutines
// and their mailboxes, the n participant goroutines and their task
// channels, the processor handles, their PRNGs, core.States (sifting
// table, register names), register stores (arrays, and the slab and box
// block snapshots are carved from) and chan communicate handles (tally,
// views arena, tick timer) are built once and then parked between runs
// instead of torn down — under many concurrent elections the per-run
// build-and-Shutdown cycle (2n goroutine spawns, n PRNG states, every
// register map, n handles) is setup cost that dominates the actual
// O(log* k) protocol work. A parked n-processor system thus holds 2n
// goroutines (n without servers, on a networked pool), n States and n
// handles, and none of its last election's state. A checkout
// only re-keys the PRNGs: a processor's stream is seeded at its first draw,
// on its own goroutine, so Get's cost does not grow with the streams. Get
// checks a system out, Reset-ing a recycled one in place; Put returns it
// after the run has joined. The pool is safe for concurrent use by many
// campaign workers.
type SystemPool struct {
	n     int
	serve bool

	mu   sync.Mutex
	free []*System
}

// NewSystemPool creates a pool of n-processor systems. serving selects the
// substrate shape, matching the runs the systems will host: true for the
// chan substrate (in-process server mailboxes), false for runs whose
// quorum traffic goes through an electd cluster instead (TransportTCP).
func NewSystemPool(n int, serving bool) *SystemPool {
	return &SystemPool{n: n, serve: serving}
}

// N returns the pooled systems' size.
func (sp *SystemPool) N() int { return sp.n }

// Serving reports whether pooled systems run in-process server goroutines.
func (sp *SystemPool) Serving() bool { return sp.serve }

// Get checks a system out of the pool, reset in place for the given seed
// and plan — indistinguishable from a fresh system of seed and plan, its
// processors' communicate handles included, but for the warm RTT estimate —
// or builds a fresh one when the pool is empty.
func (sp *SystemPool) Get(seed int64, plan *fault.Plan) *System {
	sp.mu.Lock()
	var sys *System
	if k := len(sp.free); k > 0 {
		sys, sp.free = sp.free[k-1], sp.free[:k-1]
	}
	sp.mu.Unlock()
	if sys == nil {
		return newSystem(sp.n, seed, plan, sp.serve)
	}
	sys.Reset(seed, plan)
	return sys
}

// Put parks a system for reuse. The caller must have joined every
// participant of its run and read what it wants from the processors'
// stores and States:
// Put waits out whatever mailbox traffic is still in flight and releases the
// run's register state and what its handles held, so the parked system is
// quiescent and holds nothing of its last election. Systems from timed-out
// runs must not be returned — their participants are still running.
func (sp *SystemPool) Put(sys *System) {
	if sys.n != sp.n || sys.serving != sp.serve {
		panic(fmt.Sprintf("live: pooling a %d-processor system (serving=%v) in a %d-processor pool (serving=%v)",
			sys.n, sys.serving, sp.n, sp.serve))
	}
	sys.quiesce()
	sys.release()
	sp.mu.Lock()
	sp.free = append(sp.free, sys)
	sp.mu.Unlock()
}

// Close shuts down every parked system, ending its server and participant
// goroutines (System.Shutdown). Systems still checked out are the caller's
// to shut down; a pool is typically closed after its campaign has joined
// every run.
func (sp *SystemPool) Close() {
	sp.mu.Lock()
	free := sp.free
	sp.free = nil
	sp.mu.Unlock()
	for _, sys := range free {
		sys.Shutdown()
	}
}
