//go:build !race

package live

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/rt"
	"repro/internal/trace"
)

// The chan substrate's per-call allocation budget, in steady state at n=32
// (run without the race detector, as the socket path's budgets are).
const (
	// chanPropagateAllocs: the one-entry payload the cells adopt, by design
	// (see Comm.Propagate). The quorum is counted on the handle's tally,
	// which — like the schedule's tick timer and its copy of the answered
	// set — is the handle's own, reopened per call.
	chanPropagateAllocs = 1
	// chanCollectAllocs: nothing. The snapshots are cached, the views land
	// in the tally and in the handle's scratch.
	chanCollectAllocs = 0
)

// TestChanCallAllocBudget: a thrifty call arms a tick on every call and
// its quorum is counted, per-sender answered set and all, on a tally the
// servers deliver to; none of it may cost a warm call an allocation. The traced
// case is the flight recorder's overhead contract: with the send and
// quorum-wait spans recording into a preallocated ring, a warm call is held
// to the same constants.
func TestChanCallAllocBudget(t *testing.T) {
	t.Run("untraced", func(t *testing.T) { chanCallAllocBudget(t, nil) })
	t.Run("traced", func(t *testing.T) { chanCallAllocBudget(t, trace.NewRecorder(1<<12)) })
}

func chanCallAllocBudget(t *testing.T, rec *trace.Recorder) {
	const n, reg = 32, "leaderelect/sift/3/status"
	sys := newSystem(n, 1, nil, true)
	defer sys.Shutdown()
	sys.rec, sys.traceID = rec, 1
	var val rt.Value = core.Status{Stat: core.LowPri, List: []rt.ProcID{0, 1, 2}}
	c := NewComm(sys.Proc(0), nil)
	if c.sched.Wide() {
		t.Fatalf("n=%d handle starts wide; the test needs a thrifty first wave", n)
	}
	for range 50 { // the timer, the view scratch, the peers' cells and snapshots
		c.Propagate(reg, val)
		c.Collect(reg)
	}
	if got := testing.AllocsPerRun(500, func() { c.Propagate(reg, val) }); got > chanPropagateAllocs {
		t.Fatalf("steady-state propagate: %v allocs, budget %d", got, chanPropagateAllocs)
	}
	if got := testing.AllocsPerRun(500, func() { c.Collect(reg) }); got > chanCollectAllocs {
		t.Fatalf("steady-state collect: %v allocs, budget %d", got, chanCollectAllocs)
	}
	if c.sched.Wide() {
		t.Fatal("the handle went wide: chan calls widen on an estimate and stay the size of the quorum")
	}
	if rec != nil && rec.Recorded() == 0 {
		t.Fatal("traced run recorded no span")
	}
}

// TestSystemPoolCycleAllocs: checking a 32-processor system out of its pool
// and parking it again — Reset re-keying every coin and fault stream, Put
// quiescing and releasing the stores — allocates nothing, plan or none.
func TestSystemPoolCycleAllocs(t *testing.T) {
	const n = 32
	plan, err := fault.Chaos().Plan(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewSystemPool(n, true)
	defer pool.Close()
	for _, pl := range []*fault.Plan{nil, plan} {
		pool.Put(pool.Get(1, pl))
		seed := int64(1)
		if got := testing.AllocsPerRun(200, func() { seed++; pool.Put(pool.Get(seed, pl)) }); got != 0 {
			t.Fatalf("pool cycle (plan=%v): %v allocs, budget 0", pl != nil, got)
		}
	}
}

// TestPooledHandleCheckoutAllocs: checking out every processor's
// communicate handle on a warm pooled system — tally, arena and timer kept,
// the rest reset to NewComm's — allocates nothing, plan or none (the
// plan's profiles are built outside the count: they are the plan's).
func TestPooledHandleCheckoutAllocs(t *testing.T) {
	const n = 32
	plan, err := fault.Flaky().Plan(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewSystemPool(n, true)
	defer pool.Close()
	if _, err := Elect(Config{N: n, Seed: 1, Pool: pool}); err != nil {
		t.Fatal(err)
	}
	for _, pl := range []*fault.Plan{nil, plan} {
		sys := pool.Get(2, pl)
		fps := make([]*fault.Profile, n)
		for i := range fps {
			fps[i] = sys.profile(i)
		}
		checkout := func() {
			for i, p := range sys.procs {
				p.checkout(fps[i])
			}
		}
		if got := testing.AllocsPerRun(200, checkout); got != 0 {
			t.Fatalf("checkout of %d handles (plan=%v): %v allocs, budget 0", n, pl != nil, got)
		}
		pool.Put(sys)
	}
}

// pooledElectionAllocs: one warm fault-free n=32 election on a pooled chan
// system, every participant's and every server goroutine's allocations
// included. Measured 177–188 over 100-election means (2-core host,
// GOMAXPROCS 1, 2, 4 and 8 alike); the budget is the highest plus 4 %.
// Nearly half are the one-entry propagate payloads (by design, see
// Comm.Propagate), a quarter the ℓ lists and the priority statuses that
// carry them, which the stores adopt too; fresh slabs and box blocks are
// a fifth, and the run's result maps and slices most of the rest. It was
// ≈376 while each run started a goroutine and built a core.State per
// participant and every election built its register names again (now the
// processors' parked participant goroutines and kept States, see run and
// core.Names), and ≈1 290 while every snapshot rebuild allocated its box
// and its entry slice, which are now carved from each store's blocks and
// rewound by Reset.
const pooledElectionAllocs = 195

// TestPooledElectionAllocBudget holds a warm pooled chan election, whole, to
// pooledElectionAllocs.
func TestPooledElectionAllocBudget(t *testing.T) {
	const n = 32
	pool := NewSystemPool(n, true)
	defer pool.Close()
	seed := int64(0)
	elect := func() {
		seed++
		if _, err := Elect(Config{N: n, Seed: seed, Pool: pool}); err != nil {
			t.Fatal(err)
		}
	}
	for range 50 { // the stores' arrays and blocks, the handles
		elect()
	}
	if got := testing.AllocsPerRun(100, elect); got > pooledElectionAllocs {
		t.Fatalf("warm pooled election at n=%d: %v allocs, budget %d", n, got, pooledElectionAllocs)
	}
}
