//go:build !race

package rt

import "testing"

// TestScheduleArmsOneTimer: the tick timer is made by the first call that
// arms it and re-armed by every later one, so a steady-state call — first
// wave, tick, widen or resend, stop — costs the schedule no allocation.
func TestScheduleArmsOneTimer(t *testing.T) {
	s := NewSchedule(16, 0, -1, 0, 1)
	s.SetRetransmit(WidenAfter)
	send := func(int) bool { return true }
	answered := make([]bool, 16)
	call := func() {
		s.Begin(send)
		s.Tick(answered, send)
		s.End()
	}
	if s.tmr != nil {
		t.Fatal("a schedule that never armed a tick holds a timer")
	}
	call()
	tmr := s.tmr
	if got := testing.AllocsPerRun(500, call); got != 0 || s.tmr != tmr {
		t.Fatalf("a call after the first: %v allocs, timer replaced=%v; want 0 and the same timer", got, s.tmr != tmr)
	}
}
