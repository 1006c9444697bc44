//go:build !race

package rt

import (
	"sync"
	"testing"
)

// TestScheduleArmsOneTimer: the tick timer is made by the first call that
// arms it and re-armed by every later one, so a steady-state call — first
// wave, tick, widen or resend, stop — costs the schedule no allocation.
// Under the observed rule the suspect marks are made by the first widened
// call too, and every later one rewrites them in place.
func TestScheduleArmsOneTimer(t *testing.T) {
	var est RTT
	for _, tc := range []struct {
		name string
		s    Schedule
	}{
		{"fixed rule, retransmitting", NewSchedule(16, 0, -1, ThriftySlack, nil, 0, 1)},
		{"observed rule", NewSchedule(16, 1, 0, 0, &est, 0, 1)},
	} {
		s := &tc.s
		if s.rtt == nil {
			s.SetRetransmit(WidenAfter)
		}
		send := func(int) bool { return true }
		answered := make([]bool, 16)
		for j := range 9 {
			answered[j] = true
		}
		quorum := &stubAnswers{set: answered}
		call := func() {
			s.Begin(send)
			s.tick(answered, send)
			s.Done(quorum)
		}
		if s.tmr != nil {
			t.Fatalf("%s: a schedule that never armed a tick holds a timer", tc.name)
		}
		call()
		tmr := s.tmr
		if got := testing.AllocsPerRun(500, call); got != 0 || s.tmr != tmr {
			t.Fatalf("%s: a call after the first: %v allocs, timer replaced=%v; want 0 and the same timer", tc.name, got, s.tmr != tmr)
		}
	}
}

// TestTallyCycleAllocs: a warm quorum call on a tally — open, the replies
// judged and counted, the token, the schedule's wait and its Done read off
// the tally, release — allocates nothing.
func TestTallyCycleAllocs(t *testing.T) {
	const n, need = 16, 9
	var mu sync.Mutex
	var tl Tally[*int]
	tl.Reset(n, need)
	s := NewSchedule(n, 0, -1, ThriftySlack, nil, 0, 1)
	send := func(int) bool { return true }
	ticked := func(int, int) { t.Error("a call whose quorum is in ticked") }
	lose := func(int) bool { return false }
	x := new(int)
	var call uint64
	cycle := func() {
		call++
		mu.Lock()
		tl.Open(&mu, call, lose)
		mu.Unlock()
		s.Begin(send)
		for j := range need {
			deliver(&mu, &tl, call, j, x, false)
		}
		if !s.Wait(&tl, send, ticked) || len(tl.Replies()) != need {
			t.Fatal("a call with its quorum in did not complete")
		}
		s.Done(&tl)
		tl.Release()
	}
	cycle()
	if got := testing.AllocsPerRun(500, cycle); got != 0 {
		t.Fatalf("a warm call on a tally: %v allocs, budget 0", got)
	}
}
