package rt

import (
	"slices"
	"testing"
	"time"
)

// The schedule alone, against a recording send: who is asked, in what
// order, and when the tick comes back. n=16 throughout: quorum 9, a first
// wave of 11 for a caller outside the servers and of 10 peers for one that
// is its own first quorum member.

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
		s := NewSchedule(n, tc.first, tc.self, 0, 1)
		var r recorder
		if sent := s.Begin(r.send); sent != len(tc.want) || !slices.Equal(r.asked, tc.want) {
			t.Errorf("%s: first wave asked %v (sent %d), want %v", tc.name, r.asked, sent, tc.want)
		}
		if s.C() == nil {
			t.Errorf("%s: a thrifty first wave armed no tick", tc.name)
		}
		s.End()
		if s.C() != nil || s.Wide() {
			t.Errorf("%s: after End the tick is still armed (%v) or the schedule went wide (%v)", tc.name, s.C() != nil, s.Wide())
		}
	}
}

// TestWaveExtendsPastRefusals: a send that refuses is passed over and the
// wave reaches its size along the ring; when too few servers take a request
// the wave is everyone who does.
func TestWaveExtendsPastRefusals(t *testing.T) {
	const n = 16
	s := NewSchedule(n, 4, -1, 0, 1)
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
// the caller — reports itself as the widen, and leaves a reliable substrate
// with nothing armed; every later call goes to everyone at once.
func TestWidenAsksTheUnansweredThenStaysWide(t *testing.T) {
	const n, self = 16, 5
	s := NewSchedule(n, self+1, self, 0, 1)
	var r recorder
	s.Begin(r.send)
	answered := make([]bool, n)
	for _, j := range r.asked[ThriftySlack+1:] {
		answered[j] = true
	}
	silent := slices.Clone(r.asked[:ThriftySlack+1])
	r.asked = nil
	sent, resend := s.Tick(answered, r.send)
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
	if s.C() != nil {
		t.Error("a widened call on a substrate without a retransmit period kept its tick")
	}
	s.End()
	if !s.Wide() {
		t.Fatal("schedule did not stay wide after a widen")
	}
	r.asked = nil
	if sent := s.Begin(r.send); sent != n-1 || !slices.Equal(r.asked, ring(n, self+1, n-1)) {
		t.Errorf("the call after a widen asked %v, want all %d peers in ring order", r.asked, n-1)
	}
	if s.C() != nil {
		t.Error("a wide call on a substrate without a retransmit period armed a tick")
	}
	s.End()
}

// TestWideFromStart: while n is within quorum+slack the first wave is
// everyone and no tick is armed; one server more and it is a strict subset.
// A caller that is one of the n changes nothing: it has one peer fewer to
// ask and needs one answer fewer.
func TestWideFromStart(t *testing.T) {
	for n := 1; n <= 9; n++ {
		for _, self := range []int{-1, 0} {
			s := NewSchedule(n, 0, self, 0, 1)
			others := n
			if self >= 0 {
				others--
			}
			wide := n <= n/2+1+ThriftySlack
			var r recorder
			sent := s.Begin(r.send)
			if s.Wide() != wide || (wide && (sent != others || s.C() != nil)) || (!wide && (sent >= others || s.C() == nil)) {
				t.Errorf("n=%d self=%d: wide=%v, first wave %d of %d, tick armed=%v; want wide=%v",
					n, self, s.Wide(), sent, others, s.C() != nil, wide)
			}
			s.End()
		}
	}
}

// TestTickSequence: with a retransmit period r the widen tick is r, and the
// ticks after it double to 64·r and stay there, each stretched by at most a
// quarter. The ordinals count the resends after the widen.
func TestTickSequence(t *testing.T) {
	const r = 3 * time.Millisecond
	s := NewSchedule(16, 0, -1, 0, 7)
	s.SetRetransmit(r)
	if s.widenTick != r {
		t.Fatalf("a plan's retransmit period %v left the widen tick at %v", r, s.widenTick)
	}
	nobody := func(int) bool { return true }
	s.Begin(nobody)
	defer s.End()
	for k, want := 0, 2*r; k < 10; k++ {
		if _, resend := s.Tick(nil, nobody); resend != k {
			t.Fatalf("tick %d reported ordinal %d", k, resend)
		}
		if s.period != want {
			t.Fatalf("after tick %d the period is %v, want %v", k, s.period, want)
		}
		if s.C() == nil {
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
	s = NewSchedule(16, 0, -1, r, 7)
	if s.widenTick != WidenAfter || s.retransmit != r {
		t.Errorf("base period %v: widen tick %v, resend period %v; want %v and %v", r, s.widenTick, s.retransmit, WidenAfter, r)
	}
}

// TestJitter: always upward, at most a quarter, and two callers' streams
// differ — equal timers must not fire in phase.
func TestJitter(t *testing.T) {
	const d = 8 * time.Millisecond
	a, b := NewSchedule(16, 0, -1, 0, 1), NewSchedule(16, 0, -1, 0, 2)
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
