//go:build !race

package live

import (
	"testing"

	"repro/internal/core"
	"repro/internal/rt"
)

// The chan substrate's per-call allocation budget, in steady state at n=32
// (run without the race detector, as the socket path's budgets are).
const (
	// chanPropagateAllocs: the reply channel (two — header and a buffer
	// that holds pointers) and the one-entry payload the cells adopt, all
	// three by design (see Comm.Propagate and communicate).
	chanPropagateAllocs = 3
	// chanCollectAllocs: the reply channel. The snapshots are cached, and
	// the schedule's tick timer and the answered set are the handle's own,
	// re-armed and cleared per call.
	chanCollectAllocs = 2
)

// TestChanCallAllocBudget: a thrifty call arms a tick on every call and
// keeps a per-sender answered set; neither may cost a warm call anything
// beyond what a send-to-all call allocated.
func TestChanCallAllocBudget(t *testing.T) {
	const n, reg = 32, "leaderelect/sift/3/status"
	sys := NewSystem(n, 1)
	defer sys.Shutdown()
	var val rt.Value = core.Status{Stat: core.LowPri, List: []rt.ProcID{0, 1, 2}}
	c := NewComm(sys.Proc(0))
	if c.sched.Wide() {
		t.Fatalf("n=%d handle starts wide; the test needs a thrifty first wave", n)
	}
	for range 50 { // the timer, the scratch, the peers' cells and snapshots
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
		t.Fatal("a call widened on an idle system")
	}
}
