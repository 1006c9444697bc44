package core

import (
	"math"

	"repro/internal/rt"
)

// statusReg names the status register array of a sift instance.
func statusReg(inst string) string { return inst + "/status" }

// The statuses without an ℓ list, boxed once for the package: a register
// value is immutable, so every propagate and every store may share one, and
// a sift pays no allocation to publish them. A heterogeneous priority status
// carries the participant's own ℓ list and is boxed per sift.
var (
	commitStatus rt.Value = Status{Stat: Commit}
	lowStatus    rt.Value = Status{Stat: LowPri}
	highStatus   rt.Value = Status{Stat: HighPri}
)

// PoisonPill executes one instance of the basic PoisonPill technique
// (Figure 1) for the participant behind c, using register namespace inst.
//
// The participant first takes the poison pill — it commits to flipping a
// coin and propagates the Commit status to a quorum (lines 2-3) — then flips
// 1 with probability 1/√n (line 4), adopts low or high priority (lines 5-6),
// propagates the new status (line 7) and collects the statuses seen by a
// quorum (line 8). A low-priority participant dies if some processor j is
// seen committed or with high priority in some view while no view shows j
// with low priority (lines 9-11); everyone else survives (line 12).
//
// Guarantees (Claims 3.1, 3.2): if all participants return, at least one
// survives, and the expected number of survivors is O(√n) under any
// adaptive-adversary schedule.
func PoisonPill(c rt.Comm, inst string, s *State) Outcome {
	// The paper fixes the bias to 1/√n (line 4); Section 3.2 proves this
	// choice optimal for the basic technique.
	return PoisonPillBiased(c, inst, 1/math.Sqrt(float64(c.Proc().N())), s)
}

// PoisonPillBiased is PoisonPill with an explicit probability of flipping 1.
// The survivor guarantee (Claim 3.1) holds for any bias; the O(√n) survivor
// bound (Claim 3.2) is specific to 1/√n. Exposed for the tournament
// baseline, whose two-contender matches use the natural fair bias 1/2.
func PoisonPillBiased(c rt.Comm, inst string, prob float64, s *State) Outcome {
	return PoisonPillOn(c, statusReg(inst), prob, s)
}

// PoisonPillOn is PoisonPillBiased on the status register reg, named by the
// caller — for a protocol that keeps its sifts' names (SubNames).
func PoisonPillOn(c rt.Comm, reg string, prob float64, s *State) Outcome {
	p := c.Proc()

	s.setStage(StageCommit)
	c.Propagate(reg, commitStatus) // lines 2-3

	s.setStage(StageFlip)
	s.Flip = -1
	coin := p.Flip(prob) // line 4
	s.Flip = coin

	mine := lowStatus // line 5
	if coin == 1 {
		mine = highStatus // line 6
	}
	s.setStage(StagePriority)
	c.Propagate(reg, mine)  // line 7
	views := c.Collect(reg) // line 8
	s.setStage(StageDecideSift)

	outcome := Survive
	if coin == 0 { // line 9
		if s.scratch.existsStrongWithoutLow(p.N(), views) { // line 10
			outcome = Die // line 11
		}
	}
	s.noteSift(outcome)
	return outcome // line 12
}

// existsStrongWithoutLow evaluates the death condition of Fig 1 line 10:
// ∃ processor j such that some view shows j in {Commit, High-Pri} and no
// view shows j with Low-Pri.
func (sc *siftScratch) existsStrongWithoutLow(n int, views []rt.View) bool {
	marks := sc.table(n)
	for _, v := range views {
		for _, e := range v.Entries {
			st, ok := e.Val.(Status)
			if !ok || !known(e.Owner, n) {
				continue
			}
			switch st.Stat {
			case Commit, HighPri:
				marks[e.Owner].in = true // strong
			case LowPri:
				marks[e.Owner].low = true
			}
		}
	}
	return someInWithoutLow(marks)
}

// HetPoisonPill executes one instance of the Heterogeneous PoisonPill
// (Figure 2) for the participant behind c, using register namespace inst.
//
// After committing (lines 14-15) the participant collects the set ℓ of
// processors it has seen participate (lines 16-17) and derives its coin bias
// from |ℓ|: probability 1 when alone, ln|ℓ|/|ℓ| otherwise (lines 18-19).
// The flip (line 20) decides its priority; the priority is augmented with ℓ
// and propagated (lines 21-23). After collecting again (line 24), a
// low-priority participant computes L — the union of every ℓ list it
// observed plus every processor with a non-⊥ status in its views (lines
// 26-27) — and dies if some j ∈ L has no view reporting low priority
// (lines 28-29); otherwise it survives (line 30).
//
// Guarantees (Lemmas 3.6, 3.7): at least one participant survives, the
// expected number of low-priority survivors is O(log k) and the expected
// number of high-priority survivors is O(log² k) for k participants, under
// any adaptive-adversary schedule.
func HetPoisonPill(c rt.Comm, inst string, s *State) Outcome {
	return HetPoisonPillWithBias(c, inst, PaperBias, s)
}

// BiasFunc maps the observed participant count |ℓ| to the probability of
// flipping 1 (high priority). Figure 2 lines 18-19 use PaperBias; the bias
// is the design choice the paper's Section 3.2 analysis turns on, so the
// ablation experiments swap it out.
type BiasFunc func(ell int) float64

// PaperBias is the paper's choice: 1 for a lone participant, ln|ℓ|/|ℓ|
// otherwise, which makes the probability of |U| processors all flipping 0 at
// most (1 − ln|U|/|U|)^|U| = O(1/|U|) (Claim 3.5).
func PaperBias(ell int) float64 {
	if ell <= 1 {
		return 1
	}
	return math.Log(float64(ell)) / float64(ell)
}

// SqrtBias reduces the heterogeneous round to an adaptive basic PoisonPill:
// flipping 1 with probability 1/√|ℓ| re-creates the Ω(√n) survivor floor of
// Section 3.2 (ablation).
func SqrtBias(ell int) float64 {
	if ell <= 1 {
		return 1
	}
	return 1 / math.Sqrt(float64(ell))
}

// InverseBias flips 1 with probability 1/|ℓ|: too low — the expected number
// of high-priority survivors drops to O(1), but the probability that a large
// prefix flips all zeros (and survives) becomes constant, so low-priority
// survivors blow up (ablation).
func InverseBias(ell int) float64 {
	if ell <= 1 {
		return 1
	}
	return 1 / float64(ell)
}

// FairBias ignores the view and flips a fair coin: half the participants
// keep high priority and survive (ablation).
func FairBias(int) float64 { return 0.5 }

// HetPoisonPillWithBias is HetPoisonPill with a caller-supplied bias
// function; see BiasFunc.
func HetPoisonPillWithBias(c rt.Comm, inst string, bias BiasFunc, s *State) Outcome {
	return hetPoisonPill(c, statusReg(inst), bias, s)
}

// hetPoisonPill is HetPoisonPillWithBias on the status register reg, named
// by the caller: an election takes each round's from its State's Names.
func hetPoisonPill(c rt.Comm, reg string, bias BiasFunc, s *State) Outcome {
	p := c.Proc()

	s.setStage(StageCommit)
	c.Propagate(reg, commitStatus)                  // lines 14-15
	views := c.Collect(reg)                         // line 16
	ell := s.scratch.participantsSeen(p.N(), views) // line 17
	s.Ell = len(ell)

	prob := bias(len(ell)) // lines 18-19
	s.setStage(StageFlip)
	s.Flip = -1
	coin := p.Flip(prob) // line 20
	s.Flip = coin

	mine := Status{Stat: LowPri, List: ell} // line 21
	if coin == 1 {
		mine = Status{Stat: HighPri, List: ell} // line 22
	}
	s.setStage(StagePriority)
	c.Propagate(reg, mine) // line 23
	views = c.Collect(reg) // line 24
	s.setStage(StageDecideSift)

	outcome := Survive
	if coin == 0 { // line 25
		if s.scratch.someInLWithoutLow(p.N(), views) { // lines 26-28
			outcome = Die // line 29
		}
	}
	s.noteSift(outcome)
	return outcome // line 30
}

// participantsSeen implements Fig 2 line 17: the sorted list of processors
// with a non-⊥ status in some view. The list becomes part of the
// participant's priority status, which the stores adopt, so it is a fresh
// allocation — made once, at its final size.
func (sc *siftScratch) participantsSeen(n int, views []rt.View) []rt.ProcID {
	marks, count := sc.table(n), 0
	for _, v := range views {
		for _, e := range v.Entries {
			if known(e.Owner, n) && !marks[e.Owner].in {
				marks[e.Owner].in = true // seen
				count++
			}
		}
	}
	if count == 0 {
		return nil
	}
	out := make([]rt.ProcID, 0, count)
	for j, m := range marks {
		if m.in {
			out = append(out, rt.ProcID(j))
		}
	}
	return out
}

// someInLWithoutLow evaluates the death condition of Fig 2 lines 26-28:
// build L as the union of all observed ℓ lists (line 26) and all processors
// with non-⊥ statuses (line 27), and report whether some j ∈ L has no view
// with a Low-Pri status (line 28).
func (sc *siftScratch) someInLWithoutLow(n int, views []rt.View) bool {
	marks := sc.table(n)
	// The same (owner, seq) cell appears in up to a quorum of views with an
	// identical ℓ list; walk each distinct cell version once. Within one
	// sift instance an owner writes at most twice (Commit, then priority),
	// so two slots per owner suffice.
	for _, v := range views {
		for _, e := range v.Entries {
			st, ok := e.Val.(Status)
			if !ok || !known(e.Owner, n) {
				continue
			}
			if st.Stat == LowPri {
				marks[e.Owner].low = true
			}
			sp := &marks[e.Owner].seqs
			switch {
			case sp.a == e.Seq || sp.b == e.Seq:
				continue
			case sp.a == 0:
				sp.a = e.Seq
			case sp.b == 0:
				sp.b = e.Seq
			}
			marks[e.Owner].in = true // in L, line 27
			for _, q := range st.List {
				if known(q, n) {
					marks[q].in = true // in L, line 26
				}
			}
		}
	}
	return someInWithoutLow(marks)
}

// someInWithoutLow reports whether some processor is marked in and not
// low: strong and never Low-Pri (Fig 1 line 10), or in L and never Low-Pri
// (Fig 2 line 28).
func someInWithoutLow(marks []siftMark) bool {
	for _, m := range marks {
		if m.in && !m.low {
			return true
		}
	}
	return false
}

// siftScratch is the n-sized table the sifting decisions fill, one mark
// per processor. It lives on the participant's State from one sift to the
// next, so a warm sift allocates none; each decision takes it cleared.
type siftScratch []siftMark

// siftMark is what one decision has found out about one processor.
type siftMark struct {
	in   bool    // strong (Fig 1 line 10), seen (Fig 2 line 17) or in L (Fig 2 lines 26-27)
	low  bool    // shown with Low-Pri in some view
	seqs seqPair // its status cell versions already walked (Fig 2 lines 26-27)
}

// seqPair holds up to two sequence numbers of one owner's status cell.
type seqPair struct{ a, b uint64 }

// table returns the scratch resliced to n cleared marks, reallocating only
// when its capacity is short.
func (sc *siftScratch) table(n int) []siftMark {
	if cap(*sc) < n {
		*sc = make(siftScratch, n)
	} else {
		*sc = (*sc)[:n]
		clear(*sc)
	}
	return *sc
}

// known reports whether id names one of the n processors. On the socket
// paths views come off the wire, where an owner or listed id outside [0, n)
// is corrupt or hostile input — an electd server stores any owner below
// regstore.MaxOwners and the codec accepts ids up to wire.MaxID. Such an id
// names no processor, so the decisions skip it: the survivor arguments
// (Claim 3.1, Lemma 3.6) speak only of processors.
func known(id rt.ProcID, n int) bool { return uint(id) < uint(n) }
