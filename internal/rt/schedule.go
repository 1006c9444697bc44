package rt

import "time"

// ThriftySlack is how many servers beyond the quorum a communicate call's
// first wave asks. The call needs ⌊n/2⌋+1 answers, so asking all n buys
// nothing but the ⌈n/2⌉−1 replies it then throws away; asking exactly a
// quorum would make every call wait for its slowest member. Two spares
// absorb a slow or lossy server or two without a tick. Measured at n=32 on
// 2 cores: over loopback TCP 19 requests per call against 32, −26 %
// messages and −32…−40 % CPU per election; in process 18 against 31, −33 %
// messages and −25 % CPU; no call widening on either. The price is the
// order statistic: a third slow server inside the set is waited for, where
// asking everyone would have routed around it (docs/ELECTD.md has the
// slow-third and WAN numbers).
const ThriftySlack = 2

// WidenAfter is how long a call whose first wave went to a subset waits for
// its quorum before it asks every server that has not answered. It must sit
// past the tail of a loaded quorum round-trip, not inside it: at 5 ms,
// 2.4–4 % of the calls of a saturated 2-core host widened while merely slow
// and election p95 got worse (48.8 → 54.9…83.6 ms); at 20 ms and at 50 ms,
// 0 of ≈160 k did. A fault plan's own retransmit period replaces it
// (SetRetransmit): the plan knows how fast its losses must heal.
const WidenAfter = 50 * time.Millisecond

// Schedule decides whom one caller's communicate calls ask, and when they
// ask again: first a quorum plus ThriftySlack servers on a ring walk, every
// unanswered server once a tick passes without a quorum, everyone at once
// on every later call, and — where messages can be lost — further ticks,
// selective, backed off and jittered. Delivery and replies are the
// substrate's: it hands each wave a send function, tells a tick who has
// answered, and counts the quorum itself. Safety rests on that line — a
// call returns on ⌊n/2⌋+1 distinct stores whoever was asked, and a server
// never asked is one whose message the model delays forever; the schedule
// owes only liveness, by getting a widened call to everyone.
//
// A Schedule belongs to the caller's goroutine. One call is Begin, a wait
// that selects on C and answers it with Tick, then End.
type Schedule struct {
	n     int
	first int  // where every ring walk starts
	self  int  // never asked: the caller is its own first quorum member; −1 = none
	want  int  // size of a thrifty first wave
	wide  bool // first waves go to everyone: small n, or a call has widened

	retransmit time.Duration // resend period of a call already sent to everyone; 0 = no such tick
	widenTick  time.Duration // how long a thrifty first wave waits before widening
	tmr        *time.Timer   // the tick, reused across calls; nil until one arms it
	jit        uint64        // xorshift64 jitter state

	// The call in progress.
	thrifty bool             // its first wave went to a subset and it has not widened
	tick    <-chan time.Time // tmr.C while tmr runs for it, else nil
	period  time.Duration    // its current resend period
	resends int              // its ticks since it was sent to everyone
}

// NewSchedule returns the schedule of one caller among n servers, its ring
// walks starting at first. self is the caller's index when it is one of the
// n — never asked, and the quorum's first member unasked — or −1 when
// callers and servers are different parties. retransmit > 0 keeps every
// call ticking at that period (a lossy substrate's reliability layer)
// without widening sooner than WidenAfter: the spares already cover a lost
// message or two. seed starts the jitter stream; callers that could tick in
// phase pass different seeds.
func NewSchedule(n, first, self int, retransmit time.Duration, seed uint64) Schedule {
	others, want := n, n/2+1+ThriftySlack
	if self >= 0 {
		others, want = others-1, want-1
	}
	return Schedule{
		n: n, first: first % n, self: self, want: want,
		// Up to quorum+slack servers the first wave is all of them.
		wide:       others <= want,
		retransmit: retransmit,
		widenTick:  max(retransmit, WidenAfter),
		jit:        seed,
	}
}

// SetRetransmit makes d both the resend period and the widen tick: a fault
// plan's retransmit period, required for liveness under partitions, flaky
// links and crash-recovery, since the algorithms themselves never resend.
func (s *Schedule) SetRetransmit(d time.Duration) { s.retransmit, s.widenTick = d, d }

// Wide reports whether first waves go to everyone.
func (s *Schedule) Wide() bool { return s.wide }

// wave asks up to want servers, walking the ring from first and passing
// over the caller itself, servers marked in skip (nil marks none) and
// servers send refuses, and returns how many it asked.
func (s *Schedule) wave(want int, skip []bool, send func(j int) bool) int {
	sent := 0
	for i, j := 0, s.first; i < s.n && sent < want; i++ {
		if j != s.self && (skip == nil || !skip[j]) && send(j) {
			sent++
		}
		if j++; j == s.n {
			j = 0
		}
	}
	return sent
}

// Begin sends a call's first wave and arms its tick. send(j) puts the
// request on its way to server j and reports whether it went out; a refusal
// (a link known dead) extends the walk along the ring. Begin returns the
// number of requests sent.
func (s *Schedule) Begin(send func(j int) bool) int {
	s.thrifty, s.period, s.resends = !s.wide, s.retransmit, 0
	want, tick := s.n, s.retransmit
	if s.thrifty {
		want, tick = s.want, s.widenTick
	}
	sent := s.wave(want, nil, send)
	if tick > 0 {
		// Made once, re-armed per call: go 1.23+ Reset and Stop leave no
		// stale tick behind.
		if d := s.jitter(tick); s.tmr == nil {
			s.tmr = time.NewTimer(d)
		} else {
			s.tmr.Reset(d)
		}
		s.tick = s.tmr.C
	}
	return sent
}

// C is the call's tick; nil (never ready) when none is armed: the call has
// asked everyone and the substrate loses nothing.
func (s *Schedule) C() <-chan time.Time { return s.tick }

// Tick answers a fired C: it sends again, to every server not marked in
// answered, asked before or not. For a thrifty call that is the widen, and
// the schedule stays wide — whatever silenced the set is likely still
// there, so a failure costs the caller one tick, not one per call. It
// returns the requests sent and the tick's ordinal: 0 for the widen, k for
// the k-th resend of a call already sent to everyone.
//
// With a retransmit period the tick is re-armed, doubling up to ×64, plus
// jitter. A blanket fixed-period rebroadcast amplifies itself on a
// loss-free substrate — a call merely slow under load re-floods all n
// servers every tick and slows the others past theirs — and unjittered
// timers synchronize into resend bursts (the udp collapse T15 measured at
// conc=64). Selective, backed-off, desynchronized resends still carry a call
// across partitions, flaky links and crash-recovery windows; the substrate
// dedups the duplicate replies by sender.
func (s *Schedule) Tick(answered []bool, send func(j int) bool) (sent, resend int) {
	if s.thrifty {
		s.thrifty, s.wide = false, true
	} else {
		s.resends++
	}
	sent = s.wave(s.n, answered, send)
	if s.retransmit == 0 {
		s.tick = nil // everyone has now been asked, and nothing is lost
	} else {
		if s.period < s.retransmit<<6 {
			s.period *= 2
		}
		s.tmr.Reset(s.jitter(s.period))
	}
	return sent, s.resends
}

// End stops the call's tick.
func (s *Schedule) End() {
	if s.tick != nil {
		s.tmr.Stop()
		s.tick = nil
	}
}

// jitter stretches d by a uniform 0–25 %, advancing the xorshift64 stream.
// Strictly upward on purpose: spreading the phase is what breaks resend
// synchronization, and firing early would add spurious duplicates on calls
// that were about to complete anyway.
func (s *Schedule) jitter(d time.Duration) time.Duration {
	x := s.jit
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	s.jit = x
	return d + d*time.Duration(x%256)/1024
}
