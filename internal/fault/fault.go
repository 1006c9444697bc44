// Package fault is the scenario engine of the live backend: declarative
// descriptions of the degraded conditions the paper's model allows — crash
// faults and adversarial message delay — materialized into concrete per-run
// injection plans for internal/live.
//
// The paper's adversary may delay any message arbitrarily and crash up to
// ⌈n/2⌉−1 processors (Section 2); the discrete-event backend realizes that
// adversary exactly, one scheduling decision at a time. The live backend has
// no scheduler to subvert — the OS interleaves goroutines for real — so this
// package attacks it the only way the model permits: by injecting real
// wall-clock latency and real crashes into the channel-backed quorum,
// without touching algorithm code.
//
// A Scenario describes one adversarial environment:
//
//   - crash schedules: up to ⌈n/2⌉−1 processors stop at randomized times
//     (a crashed processor's server drops every request unanswered and its
//     algorithm goroutine is killed at its next backend interaction);
//   - crash recovery: victims' replica halves rejoin at planned times — the
//     participant stays dead (a crash is forever in the model), but its
//     server answers quorum traffic again, so more than ⌈n/2⌉−1 crashes
//     are survivable as long as enough replicas come back;
//   - network partitions: a timed window during which the processor set is
//     split in two and every cross-side link drops its messages; a healing
//     partition ends at a planned time, a non-healing one starves the
//     minority side's clients of a quorum forever;
//   - per-link flaky loss: an asymmetric drop probability per directed
//     (src, dst) link, applied to requests as they are sent and to replies
//     as they are delivered;
//   - per-link delay distributions: fixed, uniform, or heavy-tailed
//     (Pareto) latency added to every quorum message on send;
//   - slow processors: designated processors pay an extra delay on every
//     outgoing message and local coin flip;
//   - reordering: a fraction of messages take an extra randomized delay,
//     explicitly shuffling delivery order relative to program order.
//
// Scenario.Plan materializes a Scenario for one (n, seed) run: victims,
// crash and rejoin times, partition sides, drop matrices and slow sets are
// drawn deterministically from the seed, so a campaign over sharded seeds
// explores the scenario's space reproducibly. Plan.Profile turns a plan
// into one participant's hooks (loss, delay, resend period, no-quorum
// abort, crash check): the one seam through which a plan reaches either
// live substrate's quorum traffic.
//
// The electability contract: a scenario that does not set NoQuorumOK claims
// every client can always (eventually) assemble a majority quorum — Validate
// enforces that its permanent faults stay under ⌈n/2⌉−1, and a run ending
// without a decision is invalid. A NoQuorumOK scenario may starve clients
// (a non-healing partition's minority side, permanent loss); the backends
// then unwind exactly the starved participants with a typed NoQuorumError —
// Plan.Electable decides, per client, which outcome is the valid one. The
// paper's safety guarantees (unique winner among survivors, at least one
// sift survivor) must hold under every scenario this package can express;
// the conformance suite in internal/live checks that under the race
// detector, and cmd/livesim's chaos grid sweeps the full cross product.
package fault

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"
)

// DistKind selects the shape of a delay distribution.
type DistKind int

const (
	// None: no delay (the zero Dist).
	None DistKind = iota
	// Fixed: exactly Base on every sample.
	Fixed
	// Uniform: Base plus a uniform draw from [0, Jitter).
	Uniform
	// Pareto: Base plus a heavy-tailed Pareto draw with scale Jitter and
	// tail index Alpha — small Alpha (1 < α ≤ 2) gives the occasional
	// extreme straggler that dominates the latency tail.
	Pareto
)

func (k DistKind) String() string {
	switch k {
	case None:
		return "none"
	case Fixed:
		return "fixed"
	case Uniform:
		return "uniform"
	case Pareto:
		return "pareto"
	default:
		return "unknown"
	}
}

// DefaultCap bounds every delay sample whose distribution has an unbounded
// tail and no explicit Cap. It keeps heavy-tailed runs finite: a live run
// must quiesce before Shutdown can close the mailboxes.
const DefaultCap = 25 * time.Millisecond

// Dist is a latency distribution. The zero value samples zero delay.
type Dist struct {
	// Kind selects the shape.
	Kind DistKind
	// Base is the minimum delay of every sample.
	Base time.Duration
	// Jitter is the uniform width (Uniform) or Pareto scale (Pareto).
	Jitter time.Duration
	// Alpha is the Pareto tail index; values ≤ 1 have infinite mean and
	// are clamped to just above 1.
	Alpha float64
	// Cap clamps every sample (0 = DefaultCap for Pareto, uncapped for the
	// bounded kinds).
	Cap time.Duration
}

// Sample draws one delay. rng must be owned by the calling goroutine.
func (d Dist) Sample(rng *rand.Rand) time.Duration {
	var v time.Duration
	switch d.Kind {
	case None:
		return 0
	case Fixed:
		v = d.Base
	case Uniform:
		v = d.Base
		if d.Jitter > 0 {
			v += time.Duration(rng.Int63n(int64(d.Jitter)))
		}
	case Pareto:
		alpha := d.Alpha
		if alpha <= 1 {
			alpha = 1.05
		}
		// Inverse-CDF Pareto with minimum 0: Jitter·(u^(−1/α) − 1).
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		v = d.Base + time.Duration(float64(d.Jitter)*(math.Pow(u, -1/alpha)-1))
		cap := d.Cap
		if cap == 0 {
			cap = DefaultCap
		}
		if v > cap {
			v = cap
		}
		return v
	}
	if d.Cap > 0 && v > d.Cap {
		v = d.Cap
	}
	return v
}

// Active reports whether the distribution can produce a nonzero delay.
func (d Dist) Active() bool { return d.Kind != None && (d.Base > 0 || d.Jitter > 0) }

// CrashMax is the sentinel Scenario.Crashes value meaning "as many crashes
// as the model allows": MaxCrashes(n), resolved at Plan time.
const CrashMax = -1

// SlowThirdOfN is the sentinel Scenario.SlowProcs value meaning "one third
// of the system (rounded up)", resolved at Plan time.
const SlowThirdOfN = -1

// MinorityMax is the sentinel PartitionSpec.Minority value meaning "the
// largest minority the model tolerates": MaxCrashes(n), resolved at Plan
// time.
const MinorityMax = -1

// AllLinks is the sentinel Scenario.LossLinks value meaning "every directed
// link", resolved at Plan time.
const AllLinks = -1

// MaxCrashes is the paper's fault bound ⌈n/2⌉−1: any more crashes and a
// majority quorum becomes unreachable, so communicate could block forever.
func MaxCrashes(n int) int { return (n - 1) / 2 }

// DefaultCrashWindow spreads crash times when a Scenario sets none. It sits
// inside the wall-clock span of benchmark-scale elections so crashes land
// mid-protocol rather than after the decision.
const DefaultCrashWindow = 2 * time.Millisecond

// DefaultRetransmitTick paces the quorum waits' retransmission loop when a
// plan needs one (partitions, loss, recovery) and the scenario sets no
// explicit Retransmit period. Requests are idempotent register reads and
// writes, so retransmitting is safe; the tick just has to be short against
// the fault windows it rides out.
const DefaultRetransmitTick = 2 * time.Millisecond

// NoQuorumGrace is how long after a client provably loses its last path to
// a majority (Plan.StarveAt) the backends wait before unwinding it with a
// NoQuorumError. The grace absorbs replies already in flight at the starve
// instant; it only delays runs that genuinely end in a no-quorum outcome.
const NoQuorumGrace = 60 * time.Millisecond

// ClientSide controls which side of a partition the participants land on.
// Participants are, by the backends' convention, the K lowest processor
// ids; the drawing policies below use that to force clients onto a side
// without the plan having to know K.
type ClientSide int

const (
	// SideAny draws the minority uniformly from all n processors; clients
	// may land on either side.
	SideAny ClientSide = iota
	// SideMajority draws the minority from the highest processor ids, so
	// low-id participants (clients) stay on the majority side whenever
	// K ≤ ⌈n/2⌉.
	SideMajority
	// SideMinority seeds the minority with processor 0 (always a
	// participant), isolating at least one client from the majority.
	SideMinority
)

// PartitionSpec declaratively describes a network partition: during
// [Start, Heal) the processor set is split into a minority and a majority
// side, and every message crossing the split is dropped. Heal == 0 means
// the partition never heals — the minority side's clients are then starved
// of a quorum forever, which requires the scenario to set NoQuorumOK.
type PartitionSpec struct {
	// Start is when the partition opens, relative to the run start.
	Start time.Duration
	// Heal is when it closes; 0 = never. A healing partition must satisfy
	// Heal > Start.
	Heal time.Duration
	// Minority is the number of processors on the small side, in
	// [1, ⌈n/2⌉−1] (MinorityMax resolves to that bound) — the majority side
	// always keeps a full quorum of replicas.
	Minority int
	// Clients picks the side the participants land on; see ClientSide.
	Clients ClientSide
}

// NoQuorumError unwinds a participant whose quorum waits can never again
// complete — a client on the wrong side of a non-healing partition, or one
// whose live links fell below a majority for good. The backends recover it
// around the participant's goroutine and report the processor in
// Result.NoQuorum; it is the typed "explicit no-quorum outcome" of the
// electability contract, never a silent hang and never a second winner.
type NoQuorumError struct {
	// Proc is the starved participant.
	Proc int
}

func (e *NoQuorumError) Error() string {
	return fmt.Sprintf("fault: processor %d starved of a majority quorum (partitioned or disconnected for good)", e.Proc)
}

// Scenario declaratively describes one adversarial environment for a live
// run. The zero value is the fault-free scenario (no injection at all).
type Scenario struct {
	// Name labels the scenario in campaign reports and CLI output.
	Name string

	// Crashes is the number of processors to crash, at most ⌈n/2⌉−1
	// (CrashMax resolves to exactly that bound) unless RecoverAfter is set —
	// recovering replicas may exceed the bound, since the bound only limits
	// *permanent* crashes. Victims are drawn uniformly from all n
	// processors at Plan time.
	Crashes int
	// CrashWindow bounds the randomized crash times: each victim stops at
	// a uniform time in [0, CrashWindow). 0 = DefaultCrashWindow.
	CrashWindow time.Duration

	// RecoverAfter, when positive, schedules every crash victim's replica
	// to rejoin RecoverAfter (plus a uniform draw from [0, RecoverJitter))
	// after its crash time: the server half answers quorum traffic again —
	// live backend mailboxes reopen, electd servers restart and their
	// listeners and client connections are redialed — while the
	// participant half stays dead, as the model demands.
	RecoverAfter time.Duration
	// RecoverJitter randomizes the rejoin times; see RecoverAfter.
	RecoverJitter time.Duration

	// Partition, when set, splits the system for a window; see
	// PartitionSpec.
	Partition *PartitionSpec

	// LossProb is the per-message drop probability of each flaky directed
	// link, in [0, 1]. Requests are dropped as they are sent, replies as
	// they are delivered (Profile.Drop, Profile.ReplyDrop), so the loss is
	// asymmetric per (src, dst) direction.
	LossProb float64
	// LossLinks is the number of directed (src, dst) links afflicted,
	// drawn uniformly at Plan time (AllLinks = every link, counts beyond
	// n·(n−1) are clamped). LossProb and LossLinks must be set together.
	LossLinks int

	// NoQuorumOK declares that the scenario may legitimately starve some
	// clients of a quorum forever (a non-healing partition's minority
	// side, total loss on too many links): starved participants then
	// unwind with a typed NoQuorumError instead of a decision, and a run
	// is valid if every other participant still agrees on at most one
	// winner. Without it the scenario claims electability — Validate
	// rejects configurations whose permanent faults could exceed ⌈n/2⌉−1
	// from any client's point of view.
	NoQuorumOK bool

	// Retransmit overrides the quorum waits' retransmission period for
	// plans that need one (0 = DefaultRetransmitTick).
	Retransmit time.Duration

	// Link is the per-message delay distribution applied to every quorum
	// request on send (the round trip's latency is modelled on the forward
	// path, keeping servers reply-never-block).
	Link Dist

	// SlowProcs designates that many processors (drawn at Plan time;
	// SlowThirdOfN resolves to ⌈n/3⌉) as throttled: every outgoing message
	// and every local coin flip pays an extra Slow delay.
	SlowProcs int
	// Slow is the throttled processors' extra delay distribution.
	Slow Dist

	// ReorderProb is the probability that a message takes an extra Reorder
	// delay, shuffling delivery order relative to program order.
	ReorderProb float64
	// Reorder is the extra delay of reordered messages.
	Reorder Dist
}

// Active reports whether the scenario injects anything at all.
func (s Scenario) Active() bool {
	return s.Crashes != 0 || s.Link.Active() ||
		s.Partition != nil ||
		(s.LossProb > 0 && s.LossLinks != 0) ||
		(s.SlowProcs != 0 && s.Slow.Active()) ||
		(s.ReorderProb > 0 && s.Reorder.Active())
}

// LinkOnly reports whether every fault the scenario injects lives on the
// links or inside this run's own processors — partitions, loss, delays,
// slow sets, reordering — with no crashes. Link-only scenarios are safe on
// a shared multiplexed cluster: the cuts and drops are applied at the
// per-election client seams, so sibling elections never feel them, whereas
// a crash would fail a server every election depends on.
func (s Scenario) LinkOnly() bool { return s.Crashes == 0 }

// Validate checks the scenario against a system of size n.
func (s Scenario) Validate(n int) error {
	if n < 1 {
		return fmt.Errorf("fault: system size %d must be at least 1", n)
	}
	if s.Crashes != CrashMax {
		if s.Crashes < 0 {
			return fmt.Errorf("fault: crash count %d must be ≥ 0 (or CrashMax)", s.Crashes)
		}
		if s.Crashes > n {
			return fmt.Errorf("fault: %d crashes exceed system size %d", s.Crashes, n)
		}
		if max := MaxCrashes(n); s.Crashes > max && s.RecoverAfter <= 0 {
			return fmt.Errorf("fault: %d crashes exceed the model's bound ⌈n/2⌉−1 = %d at n=%d (a majority quorum must stay reachable; set RecoverAfter to exceed the bound with recovering replicas)",
				s.Crashes, max, n)
		}
	}
	if s.RecoverAfter < 0 || s.RecoverJitter < 0 {
		return fmt.Errorf("fault: negative recovery timing (after %v, jitter %v)", s.RecoverAfter, s.RecoverJitter)
	}
	if s.RecoverAfter > 0 && s.Crashes == 0 {
		return fmt.Errorf("fault: RecoverAfter without crashes has nothing to recover")
	}
	if p := s.Partition; p != nil {
		if p.Start < 0 || p.Heal < 0 {
			return fmt.Errorf("fault: negative partition window [%v, %v)", p.Start, p.Heal)
		}
		if p.Heal > 0 && p.Heal <= p.Start {
			return fmt.Errorf("fault: partition heals at %v, before it starts at %v", p.Heal, p.Start)
		}
		m := p.Minority
		if m == MinorityMax {
			m = MaxCrashes(n)
		}
		if m < 1 {
			return fmt.Errorf("fault: partition minority %d must be ≥ 1 (n=%d is too small to split)", p.Minority, n)
		}
		if max := MaxCrashes(n); m > max {
			return fmt.Errorf("fault: partition minority %d exceeds ⌈n/2⌉−1 = %d at n=%d (the majority side must keep a quorum of replicas)",
				m, max, n)
		}
	}
	if s.LossProb < 0 || s.LossProb > 1 {
		return fmt.Errorf("fault: loss probability %v outside [0, 1]", s.LossProb)
	}
	if (s.LossProb > 0) != (s.LossLinks != 0) {
		return fmt.Errorf("fault: LossProb (%v) and LossLinks (%d) must be set together", s.LossProb, s.LossLinks)
	}
	if s.LossLinks != AllLinks && s.LossLinks < 0 {
		return fmt.Errorf("fault: flaky-link count %d must be ≥ 0 (or AllLinks)", s.LossLinks)
	}
	if s.Retransmit < 0 {
		return fmt.Errorf("fault: negative retransmit period %v", s.Retransmit)
	}
	if !s.NoQuorumOK {
		// The electability claim: no client may ever lose its last path to
		// a majority for good. Temporary faults (healing partitions,
		// recovering crashes, sub-1 loss ridden out by retransmission) are
		// fine; permanent ones must stay within the crash bound even when
		// they all land on one client's side of the split.
		if s.Partition != nil && s.Partition.Heal == 0 {
			return fmt.Errorf("fault: a non-healing partition starves its minority side's clients; set NoQuorumOK")
		}
		if s.LossProb >= 1 {
			return fmt.Errorf("fault: total loss (LossProb 1) can sever a client's last quorum path; set NoQuorumOK")
		}
		permanent := 0
		if s.RecoverAfter <= 0 {
			permanent = s.Crashes
			if permanent == CrashMax {
				permanent = MaxCrashes(n)
			}
		}
		minority := 0
		if s.Partition != nil {
			minority = s.Partition.Minority
			if minority == MinorityMax {
				minority = MaxCrashes(n)
			}
		}
		if max := MaxCrashes(n); permanent+minority > max {
			return fmt.Errorf("fault: %d permanent crashes plus a partition minority of %d exceed ⌈n/2⌉−1 = %d at n=%d — a client could starve during the window; set NoQuorumOK or make the faults temporary",
				permanent, minority, max, n)
		}
	}
	if s.SlowProcs != SlowThirdOfN && s.SlowProcs < 0 {
		return fmt.Errorf("fault: slow-processor count %d must be ≥ 0 (or SlowThirdOfN)", s.SlowProcs)
	}
	if s.SlowProcs > n {
		return fmt.Errorf("fault: %d slow processors exceed system size %d", s.SlowProcs, n)
	}
	if s.ReorderProb < 0 || s.ReorderProb > 1 {
		return fmt.Errorf("fault: reorder probability %v outside [0, 1]", s.ReorderProb)
	}
	if s.CrashWindow < 0 {
		return fmt.Errorf("fault: negative crash window %v", s.CrashWindow)
	}
	return nil
}

// Crash schedules one processor's failure: Proc stops at wall-clock time At
// after the run starts.
type Crash struct {
	Proc int
	At   time.Duration
}

// Recovery schedules one crashed processor's replica rejoin: Proc's server
// half answers again from wall-clock time At after the run starts. The
// participant half stays dead — the model has no resurrection.
type Recovery struct {
	Proc int
	At   time.Duration
}

// PartitionPlan is a PartitionSpec materialized for one run: the concrete
// window and side assignment.
type PartitionPlan struct {
	// Start and End bound the window [Start, End) during which cross-side
	// messages are dropped; End == 0 means the partition never heals.
	Start, End time.Duration
	// Minority flags the processors on the small side.
	Minority []bool
}

// Plan is a Scenario materialized for one run: concrete victims, crash and
// rejoin times, partition sides, drop matrices and slow sets, drawn
// deterministically from (n, seed). A nil *Plan is the fault-free plan.
type Plan struct {
	// Scenario is the description this plan realizes.
	Scenario Scenario
	// N is the system size the plan was drawn for.
	N int
	// Crashes lists the victims and their randomized crash times.
	Crashes []Crash
	// Recoveries lists the victims' replica rejoin times, one per crash
	// when the scenario sets RecoverAfter, empty otherwise.
	Recoveries []Recovery
	// Partition is the materialized partition window and sides, nil when
	// the scenario has none.
	Partition *PartitionPlan
	// Drop maps a directed link (src·N + dst) to its per-message drop
	// probability; links absent from the map are lossless.
	Drop map[int]float64
	// Slow flags the throttled processors.
	Slow []bool
}

// Plan materializes the scenario for one run of n processors. It returns
// (nil, nil) for an inactive scenario, so the backend's fault-free hot path
// stays branch-on-nil cheap.
func (s Scenario) Plan(n int, seed int64) (*Plan, error) {
	if err := s.Validate(n); err != nil {
		return nil, err
	}
	if !s.Active() {
		return nil, nil
	}
	// A dedicated PRNG: plan drawing must not perturb the run's coin-flip
	// streams, which the backend derives from the same seed.
	rng := rand.New(rand.NewSource(seed ^ 0x5DEECE66D))
	pl := &Plan{Scenario: s, N: n}

	crashes := s.Crashes
	if crashes == CrashMax {
		crashes = MaxCrashes(n)
	}
	window := s.CrashWindow
	if window == 0 {
		window = DefaultCrashWindow
	}
	if crashes > n {
		crashes = n
	}
	if crashes > 0 {
		for _, victim := range rng.Perm(n)[:crashes] {
			pl.Crashes = append(pl.Crashes, Crash{
				Proc: victim,
				At:   time.Duration(rng.Int63n(int64(window))),
			})
		}
	}
	if s.RecoverAfter > 0 {
		for _, cr := range pl.Crashes {
			at := cr.At + s.RecoverAfter
			if s.RecoverJitter > 0 {
				at += time.Duration(rng.Int63n(int64(s.RecoverJitter)))
			}
			pl.Recoveries = append(pl.Recoveries, Recovery{Proc: cr.Proc, At: at})
		}
	}

	slow := s.SlowProcs
	if slow == SlowThirdOfN {
		slow = (n + 2) / 3
	}
	if slow > n {
		slow = n
	}
	if slow > 0 && s.Slow.Active() {
		pl.Slow = make([]bool, n)
		for _, i := range rng.Perm(n)[:slow] {
			pl.Slow[i] = true
		}
	}

	if p := s.Partition; p != nil {
		m := p.Minority
		if m == MinorityMax {
			m = MaxCrashes(n)
		}
		part := &PartitionPlan{Start: p.Start, End: p.Heal, Minority: make([]bool, n)}
		switch p.Clients {
		case SideMinority:
			// Processor 0 is always a participant; the rest of the minority
			// is drawn from everyone else.
			part.Minority[0] = true
			for _, i := range rng.Perm(n - 1)[:m-1] {
				part.Minority[i+1] = true
			}
		case SideMajority:
			// Draw from the top half of the id space: the minority bound
			// ⌈n/2⌉−1 never exceeds the ⌊n/2⌋ ids there, so low-id
			// participants stay on the majority side.
			high := n - (n+1)/2
			for _, i := range rng.Perm(high)[:m] {
				part.Minority[(n+1)/2+i] = true
			}
		default: // SideAny
			for _, i := range rng.Perm(n)[:m] {
				part.Minority[i] = true
			}
		}
		pl.Partition = part
	}

	if s.LossProb > 0 && s.LossLinks != 0 {
		links := n * (n - 1)
		cnt := s.LossLinks
		if cnt == AllLinks || cnt > links {
			cnt = links
		}
		pl.Drop = make(map[int]float64, cnt)
		for _, idx := range rng.Perm(links)[:cnt] {
			// Enumerate directed pairs (src, dst), src ≠ dst: index
			// src·(n−1)+r with the diagonal skipped.
			src, r := idx/(n-1), idx%(n-1)
			dst := r
			if r >= src {
				dst = r + 1
			}
			pl.Drop[src*n+dst] = s.LossProb
		}
	}
	return pl, nil
}

// IsSlow reports whether processor i is throttled under this plan.
func (pl *Plan) IsSlow(i int) bool {
	return pl != nil && pl.Slow != nil && pl.Slow[i]
}

// sendDelay samples the injected delay for one message from processor
// "from" to processor "to": link latency, plus the slow-processor tax when
// either endpoint is throttled, plus the occasional reorder delay. rng must
// be owned by the sending goroutine.
func (pl *Plan) sendDelay(rng *rand.Rand, from, to int) time.Duration {
	d := pl.Scenario.Link.Sample(rng)
	if pl.IsSlow(from) || pl.IsSlow(to) {
		d += pl.Scenario.Slow.Sample(rng)
	}
	if p := pl.Scenario.ReorderProb; p > 0 && rng.Float64() < p {
		d += pl.Scenario.Reorder.Sample(rng)
	}
	return d
}

// delays reports whether sendDelay can return anything but zero.
func (pl *Plan) delays() bool {
	s := pl.Scenario
	return s.Link.Active() || pl.Slow != nil || (s.ReorderProb > 0 && s.Reorder.Active())
}

// StepDelay samples the local-step throttle of processor proc (nonzero only
// for slow processors): the pause it pays at each coin flip.
func (pl *Plan) StepDelay(rng *rand.Rand, proc int) time.Duration {
	if pl == nil || !pl.IsSlow(proc) {
		return 0
	}
	return pl.Scenario.Slow.Sample(rng)
}

// CutAt reports whether the (from, to) link is severed by the partition at
// the given elapsed run time: the endpoints sit on opposite sides and the
// window is open. Self-links and same-side links are never cut.
func (pl *Plan) CutAt(from, to int, elapsed time.Duration) bool {
	if pl == nil || pl.Partition == nil {
		return false
	}
	p := pl.Partition
	if p.Minority[from] == p.Minority[to] {
		return false
	}
	return elapsed >= p.Start && (p.End == 0 || elapsed < p.End)
}

// DropProb returns the flaky-loss probability of the directed (from, to)
// link; 0 for lossless links.
func (pl *Plan) DropProb(from, to int) float64 {
	if pl == nil || pl.Drop == nil {
		return 0
	}
	return pl.Drop[from*pl.N+to]
}

// dropMsg decides the fate of one message on the directed (from, to) link
// at the given elapsed run time: true means the message is lost — severed
// by the partition window or eaten by the link's flaky loss. A Profile
// samples it per message, on requests as they are sent and on replies as
// they are delivered (with from = the replying server), which is what makes
// the loss direction-asymmetric. rng must be owned or locked by the calling
// goroutine.
func (pl *Plan) dropMsg(rng *rand.Rand, from, to int, elapsed time.Duration) bool {
	if pl.CutAt(from, to, elapsed) {
		return true
	}
	p := pl.DropProb(from, to)
	return p > 0 && rng.Float64() < p
}

// hasLinkFaults reports whether the plan can drop messages at all
// (partition or flaky links): profiles carry loss hooks only when it does.
func (pl *Plan) hasLinkFaults() bool {
	return pl.Partition != nil || len(pl.Drop) > 0
}

// needsRetransmit reports whether quorum waits must retransmit to stay
// live under this plan: with partitions, flaky links or crash-recovery, a
// request (or its reply) can be lost while its server is — or becomes —
// perfectly able to answer, and the algorithms themselves never resend.
// Pure crash/delay plans keep the retransmission machinery off: quorums
// route around permanently dead servers without it.
func (pl *Plan) needsRetransmit() bool {
	return pl.hasLinkFaults() || len(pl.Recoveries) > 0
}

// retransmitTick is the quorum waits' resend period under this plan.
func (pl *Plan) retransmitTick() time.Duration {
	if pl.Scenario.Retransmit > 0 {
		return pl.Scenario.Retransmit
	}
	return DefaultRetransmitTick
}

// RecoveryOf returns processor proc's replica rejoin time, if one is
// planned.
func (pl *Plan) RecoveryOf(proc int) (time.Duration, bool) {
	if pl == nil {
		return 0, false
	}
	for _, rc := range pl.Recoveries {
		if rc.Proc == proc {
			return rc.At, true
		}
	}
	return 0, false
}

// lostForever reports whether the directed path client → server can ever
// carry a quorum exchange again, and if not, from which elapsed time on it
// is gone: a permanently crashed server (no recovery planned), a
// cross-side link of a non-healing partition, or total loss in either
// direction. Temporary faults — healing partitions, recovering crashes,
// sub-1 loss — are survivable by retransmission and never count.
func (pl *Plan) lostForever(client, server int) (time.Duration, bool) {
	if client == server {
		// A processor always reaches its own replica (the chan backend's
		// local quorum member, the owned cluster's paired server); if that
		// replica crashed, so did the client, and starvation is moot.
		return 0, false
	}
	at := time.Duration(math.MaxInt64)
	lost := false
	if p := pl.Partition; p != nil && p.End == 0 && p.Minority[client] != p.Minority[server] {
		at, lost = p.Start, true
	}
	if pl.DropProb(client, server) >= 1 || pl.DropProb(server, client) >= 1 {
		at, lost = 0, true
	}
	if _, recovers := pl.RecoveryOf(server); !recovers {
		for _, cr := range pl.Crashes {
			if cr.Proc == server {
				if cr.At < at {
					at = cr.At
				}
				lost = true
			}
		}
	}
	return at, lost
}

// StarveAt returns the elapsed run time from which client is permanently
// cut off from every majority quorum — fewer than ⌊n/2⌋+1 servers remain
// reachable-forever — and whether that ever happens. The runners arm their
// no-quorum abort timers at StarveAt + NoQuorumGrace; a client with no
// starve time always (eventually) completes every quorum call.
func (pl *Plan) StarveAt(client int) (time.Duration, bool) {
	if pl == nil {
		return 0, false
	}
	quorum := pl.N/2 + 1
	var losses []time.Duration
	for j := 0; j < pl.N; j++ {
		if at, lost := pl.lostForever(client, j); lost {
			losses = append(losses, at)
		}
	}
	if pl.N-len(losses) >= quorum {
		return 0, false
	}
	sort.Slice(losses, func(i, j int) bool { return losses[i] < losses[j] })
	// The loss that tips the reachable-forever count below quorum: after
	// k losses, n−k servers remain, so the (n−quorum+1)-th loss starves.
	return losses[pl.N-quorum], true
}

// Electable reports whether client can always (eventually) assemble a
// majority quorum under this plan. A !Electable client is exactly one the
// runner will abort with a NoQuorumError; a run in which an Electable
// participant fails to decide is invalid.
func (pl *Plan) Electable(client int) bool {
	_, starved := pl.StarveAt(client)
	return !starved
}
