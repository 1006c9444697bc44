package live

import (
	"fmt"
	"math/rand"
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

// release drops everything the last run left in the processors' stores —
// register cells (with the payloads they adopted), snapshot caches and
// published state — keeping the arrays themselves: register
// names repeat across runs of the same algorithm. Put calls it so a parked
// system does not hold its last election's state until the next checkout;
// Reset calls it again (idempotent and then cheap — Reset is also public on
// systems that were never pooled). Quiescent systems only.
func (sys *System) release() {
	for _, p := range sys.procs {
		p.regs.Reset()
		p.mu.Lock()
		p.published = nil
		p.mu.Unlock()
	}
}

// Reset reinitializes the system in place for a new run with the given seed
// and fault plan, the recycling path of SystemPool: server goroutines stay
// parked on their mailboxes (nothing is torn down or respawned — a crashed
// processor is only a dropped flag here, its serve loop never exited, so
// reviving it is clearing that flag), while every piece of per-run state is
// restored to exactly what NewScenarioSystem(n, seed, plan) would build:
// per-processor PRNG streams reseeded on the same splitmix64 sharding,
// register arrays zeroed with their snapshot caches dropped, raw mailboxes,
// published state, call counters and crash flags cleared, and the system's
// message/byte counters rewound. It must only be called on a quiescent
// system whose previous run has fully joined.
func (sys *System) Reset(seed int64, plan *fault.Plan) {
	sys.quiesce()
	sys.release()
	sys.plan = plan
	sys.messages.Store(0)
	sys.bytes.Store(0)
	for i, p := range sys.procs {
		base := int64(uint64(seed) + uint64(i)*SeedStride)
		p.rng.Seed(base)
		if plan != nil {
			if p.frng == nil {
				p.frng = rand.New(rand.NewSource(base ^ faultStreamSalt))
			} else {
				p.frng.Seed(base ^ faultStreamSalt)
			}
		} else {
			p.frng = nil
		}
		p.crashed.Store(false)
		p.down.Store(false)
		p.commCalls = 0
	}
}

// SystemPool recycles whole Systems across runs: the n server goroutines
// and their mailboxes, the processor handles, their PRNGs and register
// maps are built once and then parked between runs instead of torn down —
// under many concurrent elections the per-run NewSystem/Shutdown cycle
// (n goroutine spawns, n PRNG states, every register map) is setup cost
// that dominates the actual O(log* k) protocol work. Get checks a system
// out, Reset-ing a recycled one in place; Put returns it after the run has
// joined. The pool is safe for concurrent use by many campaign workers.
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

// Idle reports how many systems are parked in the pool.
func (sp *SystemPool) Idle() int {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return len(sp.free)
}

// Get checks a system out of the pool, reset in place for the given seed
// and plan — indistinguishable from NewScenarioSystem(n, seed, plan) — or
// builds a fresh one when the pool is empty.
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

// Put parks a system for reuse. The caller must have joined every algorithm
// goroutine of its run and read what it wants from the processors' stores:
// Put waits out whatever mailbox traffic is still in flight and releases the
// run's register state, so the parked system is quiescent and holds nothing
// of its last election. Systems from timed-out runs must not be returned —
// their goroutines are still live.
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

// Close shuts down every parked system. Systems still checked out are the
// caller's to shut down; a pool is typically closed after its campaign has
// joined every run.
func (sp *SystemPool) Close() {
	sp.mu.Lock()
	free := sp.free
	sp.free = nil
	sp.mu.Unlock()
	for _, sys := range free {
		sys.Shutdown()
	}
}
