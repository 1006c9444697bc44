package rt

import (
	"reflect"
	"slices"
	"testing"
	"time"
)

// The schedule alone, against a recording send: who is asked, in what
// order, and when the tick comes back. n=16 throughout: quorum 9. Under the
// fixed rule (electd's: slack 2, no estimate) a first wave is 11 for a
// caller outside the servers and 10 peers for one that is its own first
// quorum member; under the observed rule (chan's: slack 0, an RTT) it is
// the 8 peers such a caller needs.

// recorder is a send that logs whom it was asked to reach and refuses the
// servers marked dead.
type recorder struct {
	asked []int
	dead  map[int]bool
}

func (r *recorder) send(j int) bool {
	if r.dead[j] {
		return false
	}
	r.asked = append(r.asked, j)
	return true
}

// ring returns count consecutive servers from first on an n-ring, leaving
// out the ones in except.
func ring(n, first, count int, except ...int) []int {
	var out []int
	for j := first % n; len(out) < count; j = (j + 1) % n {
		if !slices.Contains(except, j) {
			out = append(out, j)
		}
	}
	return out
}

func TestFirstWaveWalksTheRing(t *testing.T) {
	const n = 16
	for _, tc := range []struct {
		name        string
		first, self int
		want        []int
	}{
		{"no self", 13, -1, ring(n, 13, n/2+1+ThriftySlack)},
		{"self excluded", 6, 5, ring(n, 6, n/2+ThriftySlack)},
		{"self inside the segment", 14, 3, ring(n, 14, n/2+ThriftySlack, 3)},
		{"first wraps", n + 2, 1, ring(n, 2, n/2+ThriftySlack)},
	} {
		s := NewSchedule(n, tc.first, tc.self, ThriftySlack, nil, 0, 1)
		var r recorder
		if sent := s.Begin(r.send); sent != len(tc.want) || !slices.Equal(r.asked, tc.want) {
			t.Errorf("%s: first wave asked %v (sent %d), want %v", tc.name, r.asked, sent, tc.want)
		}
		if s.fire == nil {
			t.Errorf("%s: a thrifty first wave armed no tick", tc.name)
		}
		s.End()
		if s.fire != nil || s.Wide() {
			t.Errorf("%s: after End the tick is still armed (%v) or the schedule went wide (%v)", tc.name, s.fire != nil, s.Wide())
		}
	}
}

// TestWaveExtendsPastRefusals: a send that refuses is passed over and the
// wave reaches its size along the ring; when too few servers take a request
// the wave is everyone who does.
func TestWaveExtendsPastRefusals(t *testing.T) {
	const n = 16
	s := NewSchedule(n, 4, -1, ThriftySlack, nil, 0, 1)
	r := recorder{dead: map[int]bool{4: true, 6: true, 7: true}}
	s.Begin(r.send)
	s.End()
	if want := ring(n, 4, n/2+1+ThriftySlack, 4, 6, 7); !slices.Equal(r.asked, want) {
		t.Errorf("first wave with 3 dead links asked %v, want %v", r.asked, want)
	}

	r = recorder{dead: map[int]bool{}}
	for j := 0; j < 8; j++ {
		r.dead[j] = true
	}
	if sent := s.Begin(r.send); sent != 8 || !slices.Equal(r.asked, ring(n, 8, 8)) {
		t.Errorf("first wave with 8 of 16 dead asked %v (sent %d), want servers 8…15", r.asked, sent)
	}
	s.End()
}

// TestWidenAsksTheUnansweredThenStaysWide: the tick of a thrifty call asks
// exactly the servers that have not answered — asked before or not, never
// the caller — and reports itself as the widen; on a reliable substrate it
// re-arms at twice WidenAfter, the call's first link check. Every later call
// goes to everyone at once, with its link check at WidenAfter.
func TestWidenAsksTheUnansweredThenStaysWide(t *testing.T) {
	const n, self = 16, 5
	s := NewSchedule(n, self+1, self, ThriftySlack, nil, 0, 1)
	var r recorder
	s.Begin(r.send)
	answered := make([]bool, n)
	for _, j := range r.asked[ThriftySlack+1:] {
		answered[j] = true
	}
	silent := slices.Clone(r.asked[:ThriftySlack+1])
	r.asked = nil
	sent, resend := s.tick(answered, r.send)
	var want []int
	for _, j := range ring(n, self+1, n-1, self) {
		if !answered[j] {
			want = append(want, j)
		}
	}
	if resend != 0 || sent != len(want) || !slices.Equal(r.asked, want) {
		t.Fatalf("widen asked %v (sent %d, ordinal %d), want %v with ordinal 0", r.asked, sent, resend, want)
	}
	for _, j := range silent {
		if !slices.Contains(r.asked, j) {
			t.Errorf("widen skipped server %d, asked in the first wave and silent since", j)
		}
	}
	if s.fire == nil || s.period != 2*WidenAfter {
		t.Errorf("a widened call on a substrate without a retransmit period armed=%v with period %v; want its link check at %v",
			s.fire != nil, s.period, 2*WidenAfter)
	}
	s.End()
	if !s.Wide() {
		t.Fatal("schedule did not stay wide after a widen")
	}
	r.asked = nil
	if sent := s.Begin(r.send); sent != n-1 || !slices.Equal(r.asked, ring(n, self+1, n-1)) {
		t.Errorf("the call after a widen asked %v, want all %d peers in ring order", r.asked, n-1)
	}
	if s.fire == nil || s.period != WidenAfter || s.thrifty {
		t.Errorf("a wide call on a substrate without a retransmit period: armed=%v, period %v, thrifty=%v; want its link check at %v",
			s.fire != nil, s.period, s.thrifty, WidenAfter)
	}
	s.End()
}

// TestWideFromStart: while n is within quorum+slack the first wave is
// everyone and its tick is a link check, not a widen; one server more and it
// is a strict subset.
// A caller that is one of the n changes nothing: it has one peer fewer to
// ask and needs one answer fewer. With slack 0 (chan) that is n ≤ 2.
func TestWideFromStart(t *testing.T) {
	for _, slack := range []int{0, ThriftySlack} {
		for n := 1; n <= 9; n++ {
			for _, self := range []int{-1, 0} {
				s := NewSchedule(n, 0, self, slack, nil, 0, 1)
				others := n
				if self >= 0 {
					others--
				}
				wide := n <= n/2+1+slack
				var r recorder
				sent := s.Begin(r.send)
				if s.Wide() != wide || s.thrifty == wide || (wide && sent != others) || (!wide && sent >= others) || s.fire == nil {
					t.Errorf("slack %d n=%d self=%d: wide=%v, thrifty=%v, first wave %d of %d, tick armed=%v; want wide=%v",
						slack, n, self, s.Wide(), s.thrifty, sent, others, s.fire != nil, wide)
				}
				s.End()
			}
		}
	}
}

// TestTickSequence: with a retransmit period r the widen tick is r, and the
// ticks after it double to 64·r and stay there, each stretched by at most a
// quarter. The ordinals count the resends after the widen.
func TestTickSequence(t *testing.T) {
	const r = 3 * time.Millisecond
	s := NewSchedule(16, 0, -1, ThriftySlack, nil, 0, 7)
	s.SetRetransmit(r)
	if s.widenTick != r {
		t.Fatalf("a plan's retransmit period %v left the widen tick at %v", r, s.widenTick)
	}
	nobody := func(int) bool { return true }
	s.Begin(nobody)
	defer s.End()
	for k, want := 0, 2*r; k < 10; k++ {
		if _, resend := s.tick(nil, nobody); resend != k {
			t.Fatalf("tick %d reported ordinal %d", k, resend)
		}
		if s.period != want {
			t.Fatalf("after tick %d the period is %v, want %v", k, s.period, want)
		}
		if s.fire == nil {
			t.Fatalf("tick %d of a retransmitting call left nothing armed", k)
		}
		if want < 64*r {
			want *= 2
		}
	}
	if s.period != 64*r {
		t.Errorf("the period settled at %v, want the cap %v", s.period, 64*r)
	}

	// A base period shorter than WidenAfter resends at that period but may
	// not widen sooner than WidenAfter.
	s = NewSchedule(16, 0, -1, ThriftySlack, nil, r, 7)
	if s.widenTick != WidenAfter || s.retransmit != r {
		t.Errorf("base period %v: widen tick %v, resend period %v; want %v and %v", r, s.widenTick, s.retransmit, WidenAfter, r)
	}
}

// TestJitter: always upward, at most a quarter, and two callers' streams
// differ — equal timers must not fire in phase.
func TestJitter(t *testing.T) {
	const d = 8 * time.Millisecond
	a, b := NewSchedule(16, 0, -1, ThriftySlack, nil, 0, 1), NewSchedule(16, 0, -1, ThriftySlack, nil, 0, 2)
	same, spread := 0, map[time.Duration]bool{}
	for range 1000 {
		x, y := a.jitter(d), b.jitter(d)
		for _, v := range []time.Duration{x, y} {
			if v < d || v > d+d/4 {
				t.Fatalf("jitter(%v) = %v, outside [%v, %v]", d, v, d, d+d/4)
			}
		}
		if x == y {
			same++
		}
		spread[x] = true
	}
	if same > 50 || len(spread) < 100 {
		t.Errorf("two callers drew the same stretch %d times of 1000, one caller %d distinct stretches", same, len(spread))
	}
}

// stubAnswers stands in for a call's Tally where a test scripts what Wait
// and Done read: done is the token channel, hear fills a tick's copy of the
// answered set (nil: nobody), set is what Done reads. A call given up is
// complete only if done is ready.
type stubAnswers struct {
	done chan struct{}
	hear func(into []bool)
	set  []bool
}

func (a *stubAnswers) token() <-chan struct{} { return a.done }

func (a *stubAnswers) heard(into []bool) int {
	if a.hear != nil {
		a.hear(into)
	}
	heard := 0
	for _, h := range into {
		if h {
			heard++
		}
	}
	return heard
}

func (a *stubAnswers) giveUp() bool {
	select {
	case <-a.done:
		return true
	default:
		return false
	}
}

func (a *stubAnswers) answered() []bool { return a.set }

// TestWaitGivesUpOnWhatItHears: a retransmitting call gives up at the first
// tick whose resend period has reached the cap and whose cap-long wait just
// ended brought no new answer — the seventh tick when answers stopped
// before the cap, one tick later for each cap-long wait that brought one.
// The give-up tick resends nothing.
func TestWaitGivesUpOnWhatItHears(t *testing.T) {
	const r = 200 * time.Microsecond
	for _, tc := range []struct {
		name   string
		newAt  []int // the ticks (1-based) whose copy of the answered set holds a new answer
		giveUp int   // the tick that gives up
	}{
		{"nobody answers", nil, 7},
		{"answers stop before the cap", []int{1, 2, 3, 6}, 7},
		{"one new answer in the first cap-long wait", []int{7}, 8},
		{"new answers in three cap-long waits", []int{7, 8, 9}, 10},
	} {
		s := NewSchedule(16, 0, -1, ThriftySlack, nil, 0, 3)
		s.SetRetransmit(r)
		nobody := func(int) bool { return true }
		ticks, heard := 0, 0
		answered := func(into []bool) {
			ticks++
			if slices.Contains(tc.newAt, ticks) {
				heard++
			}
			for j := range into {
				into[j] = j < heard
			}
		}
		var ordinals []int
		ticked := func(_, resend int) { ordinals = append(ordinals, resend) }
		t0 := time.Now()
		s.Begin(nobody)
		if s.Wait(&stubAnswers{done: make(chan struct{}), hear: answered}, nobody, ticked) {
			t.Fatalf("%s: a call no quorum answered reported completion", tc.name)
		}
		// The ticks before the give-up wait r, 2r, …, doubling to 64r.
		floor := r
		for k, p := 1, r; k < tc.giveUp; k++ {
			p = min(2*p, 64*r)
			floor += p
		}
		if el := time.Since(t0); ticks != tc.giveUp || len(ordinals) != tc.giveUp-1 || el < floor {
			t.Errorf("%s: gave up at tick %d after %v, having resent %d times; want tick %d, %d resends, no sooner than %v",
				tc.name, ticks, el, len(ordinals), tc.giveUp, tc.giveUp-1, floor)
		}
		for k, o := range ordinals {
			if o != k {
				t.Fatalf("%s: tick %d reported ordinal %d", tc.name, k+1, o)
			}
		}
		if s.fire != nil {
			t.Errorf("%s: a call that gave up left its tick armed", tc.name)
		}
	}
}

// TestWaitRidesOutASilence: a silence just under RidesOut(r), beginning
// when the call has waited 31 periods — every request lost until it ends,
// no answer heard — is outlasted: the call resends after it, and the answer
// completes the call before the backoff can give up.
func TestWaitRidesOutASilence(t *testing.T) {
	const r = 200 * time.Microsecond
	quiet := 31*r + RidesOut(r) - time.Microsecond // the call's age when the silence begins, plus the silence
	s := NewSchedule(16, 0, -1, ThriftySlack, nil, 0, 3)
	s.SetRetransmit(r)
	done := make(chan struct{})
	t0 := time.Now()
	send := func(int) bool {
		select {
		case <-done:
		default:
			if time.Since(t0) >= quiet {
				close(done) // the first request past the silence is answered
			}
		}
		return true
	}
	s.Begin(send)
	if !s.Wait(&stubAnswers{done: done}, send, func(int, int) {}) {
		t.Fatalf("a call gave up on a silence that ended %v after its first wave", quiet)
	}
}

// TestWaitWithoutRetransmitNeverGivesUp: a call without a resend period
// whose links all take its requests widens once, checks its links at twice
// WidenAfter, and waits for its quorum however long it takes.
func TestWaitWithoutRetransmitNeverGivesUp(t *testing.T) {
	s := NewSchedule(16, 0, -1, ThriftySlack, nil, 0, 1)
	all := func(int) bool { return true }
	done := make(chan struct{})
	time.AfterFunc(5*WidenAfter, func() { close(done) })
	var ordinals []int
	s.Begin(all)
	if !s.Wait(&stubAnswers{done: done}, all, func(_, resend int) { ordinals = append(ordinals, resend) }) || !slices.Equal(ordinals, []int{0, 1}) {
		t.Errorf("a call without a resend period ticked %v before its quorum; want the widen and one link check, [0 1]", ordinals)
	}
	s.End()
}

// TestWaitGivesUpOnDeadLinks: without a resend period a call gives up once
// its last wave has walked every server and the answers in hand plus the
// links that took the wave are short of a quorum — at once when the first
// wave finds too few links, at the widen when the refusals show there, and
// at a link check when links died with requests on them. Links that refuse
// a minority never end a call.
func TestWaitGivesUpOnDeadLinks(t *testing.T) {
	const n = 5 // quorum 3; the fixed rule's first wave is everyone below n = 6
	dead := func(links ...int) func(int) bool {
		return func(j int) bool { return !slices.Contains(links, j) }
	}
	for _, tc := range []struct {
		name  string
		n     int
		begin func(int) bool // the first wave's send
		later func(int) bool // every tick's
		ticks int            // ticks before the give-up; −1 = it completes
	}{
		{"a majority refuses the first wave", n, dead(0, 1, 2), dead(0, 1, 2), 0},
		{"a majority dies with requests on it", n, dead(), dead(2, 3, 4), 1},
		{"a minority dies with requests on it", n, dead(), dead(3, 4), -1},
		{"the widen finds a majority dead", 16, dead(), dead(0, 1, 2, 3, 4, 5, 6, 7), 1},
	} {
		s := NewSchedule(tc.n, 0, -1, ThriftySlack, nil, 0, 1)
		done := make(chan struct{})
		if tc.ticks < 0 {
			time.AfterFunc(WidenAfter*3/2, func() { close(done) })
		}
		ticks := 0
		s.Begin(tc.begin)
		ok := s.Wait(&stubAnswers{done: done}, tc.later, func(int, int) { ticks++ })
		if want := tc.ticks < 0; ok != want || (!ok && ticks != tc.ticks) {
			t.Errorf("%s: Wait = %v after %d ticks; want %v after %d", tc.name, ok, ticks, want, tc.ticks)
		}
		if !ok && s.fire != nil {
			t.Errorf("%s: a call that gave up left its tick armed", tc.name)
		}
		s.End()
	}
}

// TestWaitCompletionBeatsTick: a quorum and a tick both ready when the
// caller looks is a complete call — no copy of the answered set, no resend.
func TestWaitCompletionBeatsTick(t *testing.T) {
	const r = 100 * time.Microsecond
	s := NewSchedule(16, 0, -1, ThriftySlack, nil, 0, 5)
	s.SetRetransmit(r)
	all := func(int) bool { return true }
	done := make(chan struct{}, 1)
	for i := range 50 {
		s.Begin(all)
		time.Sleep(2 * r * 5 / 4) // past the first tick and its jitter
		done <- struct{}{}
		copied, resent := false, false
		if !s.Wait(&stubAnswers{done: done, hear: func([]bool) { copied = true }}, all, func(int, int) { resent = true }) || copied || resent {
			t.Fatalf("round %d: with the quorum and a tick both ready, the call copied the answered set (%v) or resent (%v)", i, copied, resent)
		}
		s.End()
	}
}

// TestResetMatchesNew: a schedule reset in the middle of a call, after a
// widen, a probe that marked suspects and a plan's retransmit period, is
// NewSchedule's in every field but the three it keeps — the timer, stopped,
// and the arrays of the answered copy and the suspect marks, none marked.
func TestResetMatchesNew(t *testing.T) {
	const n, first, self, seed = 16, 1, 0, 7
	var est RTT
	s := NewSchedule(n, first, self, 0, &est, 0, seed)
	s.SetRetransmit(WidenAfter)
	all := func(int) bool { return true }
	answered := make([]bool, n)
	for j := range n / 2 {
		answered[j+1] = true
	}
	s.Begin(all)
	s.tick(answered, all)   // the widen: the next call is the probe
	s.ans = make([]bool, n) // as Wait's first tick makes it
	s.Done(&stubAnswers{set: answered})
	s.Begin(all)
	s.Done(&stubAnswers{set: answered}) // the probe: everyone outside answered is a suspect
	s.Begin(all)                        // a call in progress, its tick armed
	if s.widens != 1 || !slices.Contains(s.suspect, true) || s.fire == nil {
		t.Fatalf("setup: widens %d, suspects %v, tick armed %v; the reset would check nothing", s.widens, s.suspect, s.fire != nil)
	}
	tmr, ans, suspect := s.tmr, s.ans, s.suspect

	s.Reset(n, first, self, 0, &est, 0, seed)
	if s.tmr != tmr || &s.ans[0] != &ans[0] || &s.suspect[0] != &suspect[0] {
		t.Fatal("Reset dropped the timer or an array it should keep")
	}
	if s.tmr.Stop() {
		t.Fatal("Reset left the call's tick running")
	}
	if slices.Contains(s.suspect, true) {
		t.Fatalf("Reset kept suspects %v", s.suspect)
	}
	got, want := s, NewSchedule(n, first, self, 0, &est, 0, seed)
	got.tmr, got.ans, got.suspect = nil, nil, nil
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reset schedule\n%+v\nwant NewSchedule's\n%+v", got, want)
	}

	// An array of another length is not kept: it would be read as n long.
	s.Reset(n/2, first, self, 0, &est, 0, seed)
	if s.ans != nil || s.suspect != nil || s.tmr != tmr {
		t.Fatal("Reset for another n kept an array of the old length, or dropped the timer")
	}
}
