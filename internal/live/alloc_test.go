//go:build !race

package live

import (
	"testing"

	"repro/internal/core"
	"repro/internal/rt"
	"repro/internal/trace"
)

// The chan substrate's per-call allocation budget, in steady state at n=32
// (run without the race detector, as the socket path's budgets are).
const (
	// chanPropagateAllocs: the one-entry payload the cells adopt, by design
	// (see Comm.Propagate). The quorum is assembled on the handle's call
	// slot, which — like the schedule's tick timer and the answered set — is
	// the handle's own, reopened per call.
	chanPropagateAllocs = 1
	// chanCollectAllocs: nothing. The snapshots are cached, the views land
	// in the slot and in the handle's scratch.
	chanCollectAllocs = 0
)

// TestChanCallAllocBudget: a thrifty call arms a tick on every call and
// its quorum is assembled, per-sender answered set and all, on a slot the
// servers fill; none of it may cost a warm call an allocation. The traced
// case is the flight recorder's overhead contract: with the send and
// quorum-wait spans recording into a preallocated ring, a warm call is held
// to the same constants.
func TestChanCallAllocBudget(t *testing.T) {
	t.Run("untraced", func(t *testing.T) { chanCallAllocBudget(t, nil) })
	t.Run("traced", func(t *testing.T) { chanCallAllocBudget(t, trace.NewRecorder(1<<12)) })
}

func chanCallAllocBudget(t *testing.T, rec *trace.Recorder) {
	const n, reg = 32, "leaderelect/sift/3/status"
	sys := NewSystem(n, 1)
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
		t.Fatal("a call widened on an idle system")
	}
	if rec != nil && rec.Recorded() == 0 {
		t.Fatal("traced run recorded no span")
	}
}
