package rt

import (
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

// The observed widen rule: the RTT estimate alone, and the schedule that
// ticks on it and feeds it.

// TestRTTColdTicksAtCap: an estimate with no sample ticks at WidenAfter,
// whatever is asked of it, and one sample warms it.
func TestRTTColdTicksAtCap(t *testing.T) {
	var e RTT
	if got := e.Tick(); got != WidenAfter {
		t.Fatalf("a cold estimate ticks at %v, want the cap %v", got, WidenAfter)
	}
	e.Observe(time.Millisecond)
	if got := e.Tick(); got == WidenAfter {
		t.Fatalf("one 1 ms sample left the tick at the cap %v", got)
	}
}

// TestRTTFollowsRFC6298: the first sample sets srtt = r and rttvar = r/2,
// the next ones move them by 1/8 and 1/4, and the tick is srtt + 4·rttvar.
func TestRTTFollowsRFC6298(t *testing.T) {
	const r = 4 * time.Millisecond
	var e RTT
	e.Observe(r)
	if got, want := e.Tick(), r+4*(r/2); got != want {
		t.Fatalf("after one sample of %v the tick is %v, want %v", r, got, want)
	}
	e.Observe(r) // srtt stays r, rttvar 3/4 of r/2
	if got, want := e.Tick(), r+4*(r/2-r/8); got != want {
		t.Fatalf("after two samples of %v the tick is %v, want %v", r, got, want)
	}
	for range 200 {
		e.Observe(r)
	}
	if got := e.Tick(); got < r || got > r+r/100 {
		t.Fatalf("after 200 samples of %v the tick is %v, want it settled at srtt", r, got)
	}
}

// TestRTTTickClamped: however fast the calls, the tick is no shorter than
// WidenFloor; however slow, no longer than WidenAfter — a sample past what
// the estimate's word holds included.
func TestRTTTickClamped(t *testing.T) {
	var fast, slow RTT
	for range 50 {
		fast.Observe(time.Microsecond)
		slow.Observe(time.Second)
	}
	if got := fast.Tick(); got != WidenFloor {
		t.Errorf("1 µs calls tick at %v, want the floor %v", got, WidenFloor)
	}
	if got := slow.Tick(); got != WidenAfter {
		t.Errorf("1 s calls tick at %v, want the cap %v", got, WidenAfter)
	}
	var huge RTT
	huge.Observe(time.Hour)
	if got := huge.Tick(); got != WidenAfter {
		t.Errorf("a 1 h call ticks at %v, want the cap %v", got, WidenAfter)
	}
	var zero RTT
	zero.Observe(0)
	if got := zero.Tick(); got != WidenFloor {
		t.Errorf("a 0 ns call ticks at %v, want the floor %v (and a warm estimate)", got, WidenFloor)
	}
}

// TestKarnsRule: a call that completed on its first wave is a sample; one
// that widened is not, however long it took — its time measures the tick —
// and neither is the probe after it, which asked everyone at once.
func TestKarnsRule(t *testing.T) {
	const n, self = 16, 0
	var e RTT
	s := NewSchedule(n, self+1, self, 0, &e, 0, 1)
	var r recorder
	answered := make([]bool, n)
	for j := 1; j <= n/2; j++ {
		answered[j] = true
	}

	s.Begin(r.send)
	time.Sleep(2 * WidenFloor)
	s.tick(answered, r.send) // the widen
	s.Done(&stubAnswers{set: answered})
	s.Begin(r.send) // the probe
	time.Sleep(2 * WidenFloor)
	s.Done(&stubAnswers{set: answered})
	if got := e.Tick(); got != WidenAfter {
		t.Fatalf("a widened call or its probe was sampled: the estimate ticks at %v, want it cold (%v)", got, WidenAfter)
	}

	s.Begin(r.send)
	s.Done(&stubAnswers{set: answered})
	if got := e.Tick(); got != WidenFloor {
		t.Fatalf("a call that completed unwidened at once left the estimate at %v, want the floor %v", got, WidenFloor)
	}
}

// TestObservedWaveIsTheQuorum: under the observed rule a first wave asks
// exactly the peers the quorum needs, and its tick is the estimate's.
func TestObservedWaveIsTheQuorum(t *testing.T) {
	const n, self = 16, 5
	var e RTT
	s := NewSchedule(n, self+1, self, 0, &e, 0, 1)
	var r recorder
	if sent := s.Begin(r.send); sent != n/2 || !slices.Equal(r.asked, ring(n, self+1, n/2)) {
		t.Fatalf("first wave asked %v (sent %d), want the %d peers to the right", r.asked, sent, n/2)
	}
	if s.fire == nil || s.Wide() {
		t.Fatal("an exact first wave armed no tick, or went wide")
	}
	s.End()
	// A plan's period replaces the estimate's tick as it replaces WidenAfter.
	s.SetRetransmit(3 * time.Millisecond)
	if s.widenTick != 3*time.Millisecond {
		t.Fatalf("a plan's retransmit period left the widen tick at %v", s.widenTick)
	}
}

// TestWidenProbesThenRemembersTheSilent: under the observed rule a widen
// does not go wide. The call after it, the probe, asks everyone at once;
// the servers outside the probe's quorum become suspects, and later first
// waves — the size of the quorum again — pass over them along the ring, as
// over refused sends. The next probe's quorum replaces them. When too few
// others remain the wave takes suspects too, in ring order.
func TestWidenProbesThenRemembersTheSilent(t *testing.T) {
	const n, self = 16, 0
	var e RTT
	s := NewSchedule(n, self+1, self, 0, &e, 0, 1)
	all := func(int) bool { return true }
	// probe runs a widened call and its probe, whose quorum is the peers in
	// quorum, and returns whom the wave after them asks.
	probe := func(quorum []int, r *recorder) []int {
		s.Begin(all)
		s.tick(nil, all)
		s.Done(&stubAnswers{})
		answered := make([]bool, n)
		for _, j := range quorum {
			answered[j] = true
		}
		if sent := s.Begin(all); sent != n-1 || s.thrifty {
			t.Fatalf("the probe asked %d peers, thrifty=%v; want all %d at once", sent, s.thrifty, n-1)
		}
		s.Done(&stubAnswers{set: answered})
		r.asked = nil
		s.Begin(r.send)
		s.End()
		return r.asked
	}

	var r recorder
	if got, want := probe([]int{1, 3, 5, 7, 8, 9, 10, 11}, &r), []int{1, 3, 5, 7, 8, 9, 10, 11}; !slices.Equal(got, want) {
		t.Fatalf("the wave after a probe asked %v, want the probe's quorum %v", got, want)
	}
	if s.Wide() || s.Widens() != 1 {
		t.Fatalf("after one widen: wide=%v, widens=%d; want a thrifty schedule that counted one", s.Wide(), s.Widens())
	}
	if got, want := probe([]int{8, 9, 10, 11, 12, 13, 14, 15}, &r), ring(n, 8, n/2); !slices.Equal(got, want) {
		t.Fatalf("the wave after a second probe asked %v, want %v", got, want)
	}

	// Too few others: with peers 9…15 refusing, the wave is peer 8 and then
	// suspects from the ring's start.
	r = recorder{dead: map[int]bool{9: true, 10: true, 11: true, 12: true, 13: true, 14: true, 15: true}}
	s.Begin(r.send)
	s.End()
	if want := []int{8, 1, 2, 3, 4, 5, 6, 7}; !slices.Equal(r.asked, want) {
		t.Fatalf("a wave short of unsuspected peers asked %v, want %v", r.asked, want)
	}
}

// TestRTTConcurrentObserveTorture: one estimate is shared by every caller
// of a system. Writers observe samples from [lo, hi] while readers take the
// tick; every tick read is inside the clamp, and the settled estimate is a
// mix of the samples only — srtt within [lo, hi], the deviation no wider
// than the spread — which a lost or torn update would break. Meant for
// -race, at GOMAXPROCS ≥ 4.
func TestRTTConcurrentObserveTorture(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 4 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	}
	const (
		lo, hi  = 3 * time.Millisecond, 9 * time.Millisecond
		writers = 8
		readers = 4
		each    = 5000
	)
	var e RTT
	var wg sync.WaitGroup
	stop := make(chan struct{})
	bad := make(chan time.Duration, readers)
	for range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if d := e.Tick(); d < WidenFloor || d > WidenAfter {
					bad <- d
					return
				}
			}
		}()
	}
	var ww sync.WaitGroup
	for w := range writers {
		ww.Add(1)
		go func() {
			defer ww.Done()
			for i := range each {
				if (i+w)%2 == 0 {
					e.Observe(lo)
				} else {
					e.Observe(hi)
				}
			}
		}()
	}
	ww.Wait()
	close(stop)
	wg.Wait()
	select {
	case d := <-bad:
		t.Fatalf("a reader saw a tick of %v, outside [%v, %v]", d, WidenFloor, WidenAfter)
	default:
	}
	v := e.v.Load()
	srtt, rttvar := time.Duration(v>>32), time.Duration(v&rttMax)
	if srtt < lo || srtt > hi || rttvar > hi-lo {
		t.Fatalf("after %d samples from {%v, %v}: srtt %v, rttvar %v; want srtt inside and rttvar ≤ %v",
			writers*each, lo, hi, srtt, rttvar, hi-lo)
	}
}
