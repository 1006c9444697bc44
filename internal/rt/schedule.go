package rt

import (
	"cmp"
	"time"
)

// ThriftySlack is how many servers beyond the quorum electd's first wave
// asks. A call needs ⌊n/2⌋+1 answers, so asking all n buys nothing but the
// ⌈n/2⌉−1 replies it then throws away; asking exactly a quorum makes every
// call wait for its slowest member. At n=32 on 2 cores, 19 requests per
// call against 32 cost −26 % messages and −32…−40 % CPU per election over
// loopback TCP, with no call widening. Over sockets the exact quorum
// (slack 0) put `solo-tcp-n32` p95 31.1 → 38.1 ms on a loaded host, and
// read level on an idle one (docs/ELECTD.md has the sweep). The price of
// any slack is the order statistic: a slow server inside the set is waited
// for, where asking everyone would have routed around it. The chan
// substrate passes slack 0: its widen tick follows an RTT estimate, so a
// silent peer costs it a few milliseconds, not WidenAfter, and a call two
// fewer mailbox hand-offs and replies.
const ThriftySlack = 2

// WidenAfter is how long a call whose first wave went to a subset waits for
// its quorum before it asks every server that has not answered, under
// electd's fixed rule, and the cap of an observed tick (RTT). It must sit
// past the tail of a loaded quorum round-trip, not inside it: at 5 ms,
// 2.4–4 % of the calls of a saturated 2-core host widened while merely slow
// and election p95 got worse (48.8 → 54.9…83.6 ms); at 20 ms and at 50 ms,
// 0 of ≈160 k did. A fault plan's own retransmit period replaces it
// (SetRetransmit): the plan knows how fast its losses must heal.
const WidenAfter = 50 * time.Millisecond

// Schedule decides whom one caller's communicate calls ask, and when they
// ask again: first a quorum plus a substrate's slack on a ring walk, every
// unanswered server once a tick passes without a quorum, and further ticks,
// selective, backed off and jittered — resends where messages can be lost,
// link checks where they cannot.
// Delivery is the substrate's: it hands each wave a send function and each
// reply to the call's Tally, which counts the quorum.
// Safety rests on that line — a call returns on ⌊n/2⌋+1 distinct stores
// whoever was asked, and a server never asked is one whose message the
// model delays forever; the schedule owes only liveness, by getting a
// widened call to everyone.
//
// Two widen rules, one per substrate. Without an estimate (electd) the tick
// is WidenAfter and a widen is sticky: every later call of the caller asks
// everyone at once. With one (chan, an RTT shared by the system's callers)
// the tick is the estimate's, and a widen costs one more call to everyone,
// the probe: the servers outside the probe's quorum become suspects, which
// later first waves pass over, and those waves stay the size of the
// quorum.
//
// A Schedule belongs to the caller's goroutine. One call is Begin, then
// Wait, then Done once the quorum is in (End on a call abandoned without
// one).
type Schedule struct {
	n     int
	first int  // where every ring walk starts
	self  int  // never asked: the caller is its own first quorum member; −1 = none
	want  int  // size of a thrifty first wave
	need  int  // answers that make a quorum: ⌊n/2⌋+1, less the caller's own
	wide  bool // first waves go to everyone: small n, or a call has widened under the fixed rule
	probe bool // the next call, or the one in progress, is the probe: one widened under the observed rule

	rtt        *RTT          // the observed widen rule's estimate; nil = the fixed rule
	retransmit time.Duration // resend period of a call already sent to everyone; 0 = no such tick
	widenTick  time.Duration // the fixed rule's widen tick, or a plan's period
	tmr        *time.Timer   // the tick, reused across calls; nil until one arms it
	jit        uint64        // xorshift64 jitter state
	widens     int           // calls that widened, over the schedule's life

	// suspect marks the servers outside the last probe's quorum, which first
	// waves pass over while enough others remain (observed rule only; nil
	// or none marked until a probe ends).
	suspect []bool

	// The call in progress.
	thrifty bool             // its first wave went to a subset and it has not widened
	t0      time.Time        // when its first wave went out (observed rule only)
	fire    <-chan time.Time // tmr.C while tmr runs for it, else nil
	period  time.Duration    // its current resend period
	resends int              // its ticks since it was sent to everyone
	heard   int              // answers in hand at its last tick
	took    int              // requests its last wave put on their way
	ans     []bool           // the tick's copy of the answered set; nil until a tick needs it
}

// NewSchedule returns the schedule of one caller among n servers, its ring
// walks starting at first and its first waves asking slack servers beyond
// the quorum. self is the caller's index when it is one of the n — never
// asked, and the quorum's first member unasked — or −1 when callers and
// servers are different parties. rtt selects the widen rule: nil for the
// fixed one, else the estimate the observed one ticks on and feeds.
// retransmit > 0 keeps every call ticking at that period (a lossy
// substrate's reliability layer) without widening sooner than WidenAfter:
// the spares already cover a lost message or two. seed starts the jitter
// stream; callers that could tick in phase pass different seeds.
func NewSchedule(n, first, self, slack int, rtt *RTT, retransmit time.Duration, seed uint64) Schedule {
	var s Schedule
	s.Reset(n, first, self, slack, rtt, retransmit, seed)
	return s
}

// Reset makes s what NewSchedule with the same arguments returns, keeping
// only what its calls would make again: the tick timer, stopped, and the
// arrays of the answered copy and the suspect marks (none marked) when they
// are n long. A caller that outlives its runs resets its schedule instead of
// building one; a call still in progress, one its caller unwound from, is
// dropped with its tick.
func (s *Schedule) Reset(n, first, self, slack int, rtt *RTT, retransmit time.Duration, seed uint64) {
	if s.tmr != nil {
		s.tmr.Stop() // go 1.23+: no stale tick survives a Stop
	}
	tmr, ans, suspect := s.tmr, s.ans, s.suspect
	if len(ans) != n {
		ans = nil
	}
	if len(suspect) == n {
		clear(suspect)
	} else {
		suspect = nil
	}
	others, want, need := n, n/2+1+slack, n/2+1
	if self >= 0 {
		others, want, need = others-1, want-1, need-1
	}
	*s = Schedule{
		n: n, first: first % n, self: self, want: want, need: need,
		// Up to quorum+slack servers the first wave is all of them.
		wide:       others <= want,
		rtt:        rtt,
		retransmit: retransmit,
		widenTick:  max(retransmit, WidenAfter),
		jit:        seed,
		tmr:        tmr,
		ans:        ans,
		suspect:    suspect,
	}
}

// SetRetransmit makes d both the resend period and the widen tick: a fault
// plan's retransmit period, required for liveness under partitions, flaky
// links and crash-recovery, since the algorithms themselves never resend.
func (s *Schedule) SetRetransmit(d time.Duration) { s.retransmit, s.widenTick = d, d }

// Wide reports whether every first wave goes to everyone: n is within
// quorum+slack, or a call has widened under the fixed rule. The observed
// rule's probe is one call, and does not count.
func (s *Schedule) Wide() bool { return s.wide }

// Widens reports how many of the schedule's calls have widened.
func (s *Schedule) Widens() int { return s.widens }

// wave asks up to want servers, walking the ring from first and passing
// over the caller itself, servers send refuses and — when marks is not nil —
// servers whose mark is not ask, and returns how many it asked.
func (s *Schedule) wave(want int, marks []bool, ask bool, send func(j int) bool) int {
	sent := 0
	for i, j := 0, s.first; i < s.n && sent < want; i++ {
		if j != s.self && (marks == nil || marks[j] == ask) && send(j) {
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
// (a link known dead) extends the walk along the ring, and so does a
// suspect, which is asked only when too few others remain. Begin returns
// the number of requests sent.
func (s *Schedule) Begin(send func(j int) bool) int {
	s.thrifty, s.period, s.resends, s.heard = !s.wide && !s.probe, s.base(), 0, 0
	want, tick := s.n, s.period
	if s.thrifty {
		want, tick = s.want, s.widenTick
		if s.rtt != nil {
			if s.retransmit == 0 {
				tick = s.rtt.Tick()
			}
			s.t0 = time.Now()
		}
	}
	sent := s.wave(want, s.suspect, false, send)
	if sent < want && s.suspect != nil {
		sent += s.wave(want-sent, s.suspect, true, send)
	}
	s.took = sent
	// Made once, re-armed per call: go 1.23+ Reset and Stop leave no stale
	// tick behind.
	if d := s.jitter(tick); s.tmr == nil {
		s.tmr = time.NewTimer(d)
	} else {
		s.tmr.Reset(d)
	}
	s.fire = s.tmr.C
	return sent
}

// base is a call's first resend period: the retransmit period, or on a
// substrate without one the widen tick, at which a call already sent to
// everyone checks its links.
func (s *Schedule) base() time.Duration { return cmp.Or(s.retransmit, s.widenTick) }

// Wait waits out the call Begin sent, whose replies t counts: true once
// the call is complete, its token taken; false when the call gives up. Each
// tick copies t's answered set (under t's lock), asks again (tick) and
// reports the requests sent and the tick's ordinal to ticked. The token
// wins over a tick ready at the same time (the goroutine ran late, as after
// a host stall): a widen there is waste.
//
// A call gives up on what it observes; in the model the caller is then a
// crash. With a resend period it gives up at a tick: its period has reached
// the cap and the cap-long wait just ended brought no new answer — the
// seventh tick of a call nobody answers, 126 periods (plus jitter) after its
// first. Without one, nothing it sent is lost but to a dead link, and a
// link that refuses a send is dead: the call gives up once its last wave
// has walked every server (a first wave the refusals left short, or a tick)
// and the servers that answered plus those whose link took that wave are
// fewer than a quorum. Giving up closes t's call; one that completed as it
// gave up is complete, and Wait reports it so.
func (s *Schedule) Wait(t answers, send func(j int) bool, ticked func(sent, resend int)) bool {
	done := t.token()
	for {
		if s.retransmit == 0 && s.heard+s.took < s.need {
			s.End()
			return t.giveUp()
		}
		select {
		case <-done:
			return true
		case <-s.fire:
			select {
			case <-done:
				return true
			default:
			}
			if s.ans == nil {
				s.ans = make([]bool, s.n)
			}
			heard := t.heard(s.ans)
			if s.retransmit > 0 && s.period == s.retransmit<<6 && heard == s.heard {
				s.fire = nil // fired and drained: nothing is left to stop
				return t.giveUp()
			}
			s.heard = heard
			ticked(s.tick(s.ans, send))
		}
	}
}

// RidesOut is how short a silence must be for a call resending every d to
// outlast it, if the call had waited at most 31 periods when it began: 32
// periods. Wait can first give up after the call's sixth tick, no sooner
// than 63 periods in; that resend goes out after such a silence, and its
// answers have the cap-long wait, 64 periods, to arrive in.
func RidesOut(d time.Duration) time.Duration { return d << 5 }

// tick answers a fired tick: it sends again, to every server not marked in
// answered, asked before or not. For a thrifty call that is the widen.
// Under the fixed rule the schedule then stays wide — whatever silenced the
// set is likely still there, so a failure costs the caller one tick, not
// one per call; under the observed rule the next call is the probe, which
// finds out whom to pass over (Done). It returns the requests sent and the
// tick's ordinal: 0 for the widen, k for the k-th resend of a call already
// sent to everyone.
//
// The tick is re-armed, doubling up to ×64, plus jitter: with a retransmit
// period from that period, and on a reliable substrate from the widen tick,
// where each tick checks the links of a call already sent to everyone (a
// link that died with a request on it refuses the next one) and asks again
// whoever has been slow. A blanket fixed-period rebroadcast amplifies
// itself on a loss-free substrate — a call merely slow under load re-floods all n
// servers every tick and slows the others past theirs — and unjittered
// timers synchronize into resend bursts (the udp collapse T15 measured at
// conc=64). Selective, backed-off, desynchronized resends still carry a call
// across partitions, flaky links and crash-recovery windows; the substrate
// dedups the duplicate replies by sender.
func (s *Schedule) tick(answered []bool, send func(j int) bool) (sent, resend int) {
	if s.thrifty {
		s.thrifty = false
		s.widens++
		if s.rtt == nil {
			s.wide = true
		}
	} else {
		s.resends++
	}
	sent = s.wave(s.n, answered, false, send)
	s.took = sent
	if s.period < s.base()<<6 {
		s.period *= 2
	}
	s.tmr.Reset(s.jitter(s.period))
	return sent, s.resends
}

// End stops the call's tick.
func (s *Schedule) End() {
	if s.fire != nil {
		s.tmr.Stop()
		s.fire = nil
	}
}

// Done ends a call that reached its quorum, read off its tally: the
// servers whose answers made it up. Under the observed rule a call that never
// widened feeds its time to the estimate — a widened one does not (Karn's
// rule) — and the probe's quorum becomes the set later first waves keep to:
// every server outside it is a suspect until the next probe. The probe asks
// everyone at once, so it needs no tick to find them: dead or cut-off
// servers stay outside its quorum, and so does one that went dark after
// answering the widened call's first wave. A server that was merely late
// is passed over while enough others remain.
func (s *Schedule) Done(t answers) {
	s.End()
	switch {
	case s.rtt == nil:
	case s.probe: // this call was the probe
		if s.suspect == nil {
			s.suspect = make([]bool, s.n)
		}
		for j, a := range t.answered() {
			s.suspect[j] = !a && j != s.self
		}
		s.probe = false
	case s.thrifty:
		s.rtt.Observe(time.Since(s.t0))
	case !s.wide: // it widened: the next call is the probe
		s.probe = true
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
