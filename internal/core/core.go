// Package core implements the leader-election algorithms of Alistarh,
// Gelashvili and Vladu, "How to Elect a Leader Faster than a Tournament"
// (PODC 2015): the PoisonPill technique (Figure 1), the Heterogeneous
// PoisonPill (Figure 2), and the final O(log* k)-time, O(kn)-message leader
// election built from a doorway (Figure 5), pre-rounds (Figure 4) and rounds
// of heterogeneous PoisonPill (Figure 6).
//
// All algorithms run on top of the rt.Comm communicate primitive — the
// runtime seam implemented by both the simulated backend (internal/sim +
// internal/quorum) and the real-goroutine backend (internal/live) — and are
// direct translations of the paper's pseudocode; doc comments cite the
// figure line numbers they implement. Each participant publishes a *State
// through rt.Procer.Publish so that the strong adaptive adversary (on the
// sim backend) can inspect algorithm progress — stage, round, coin flips —
// exactly as the model allows.
package core

import (
	"repro/internal/rt"
)

// Outcome is the result of one sifting round (PoisonPill or heterogeneous
// PoisonPill): the participant either survives into the next round or drops
// out of contention.
type Outcome int

const (
	// Survive: the participant remains in contention.
	Survive Outcome = iota + 1
	// Die: the participant drops out (and will lose the election).
	Die
)

func (o Outcome) String() string {
	switch o {
	case Survive:
		return "SURVIVE"
	case Die:
		return "DIE"
	default:
		return "undecided"
	}
}

// Decision is the result of leader election, and of its internal doorway and
// pre-round sub-protocols (which may also report Proceed).
type Decision int

const (
	// Proceed: the sub-protocol did not decide; continue.
	Proceed Decision = iota + 1
	// Win: the participant is the unique leader.
	Win
	// Lose: the participant is not the leader.
	Lose
)

func (d Decision) String() string {
	switch d {
	case Proceed:
		return "PROCEED"
	case Win:
		return "WIN"
	case Lose:
		return "LOSE"
	default:
		return "undecided"
	}
}

// StatKind is a participant's priority state within one sifting round.
type StatKind int

const (
	// Commit: the participant has taken the poison pill — it is committed
	// to flipping a coin but the outcome is not yet visible (Fig 1 line 2).
	Commit StatKind = iota + 1
	// LowPri: the participant flipped 0 (Fig 1 line 5).
	LowPri
	// HighPri: the participant flipped 1 — the antidote (Fig 1 line 6).
	HighPri
)

func (s StatKind) String() string {
	switch s {
	case Commit:
		return "Commit"
	case LowPri:
		return "Low-Pri"
	case HighPri:
		return "High-Pri"
	default:
		return "⊥"
	}
}

// Status is the register value a participant propagates during a sifting
// round. List is the ℓ list of the heterogeneous variant (Fig 2 lines
// 21-22): the participants whose non-⊥ status the writer had observed when
// it flipped. It is nil in the basic technique.
type Status struct {
	Stat StatKind
	List []rt.ProcID
}

// WireSize implements rt.WireSizer with the status's exact encoded body
// size under the internal/wire codec: one stat byte, the list length and
// each listed processor id as uvarints.
func (s Status) WireSize() int {
	n := 1 + rt.UvarintSize(uint64(len(s.List)))
	for _, id := range s.List {
		n += rt.UvarintSize(uint64(id))
	}
	return n
}

// Stage identifies where in the protocol a participant currently is; it is
// part of the adversary-visible State.
type Stage int

const (
	// StageInit: published, not yet inside any sub-protocol.
	StageInit Stage = iota + 1
	// StageDoorway: executing the doorway (Fig 5).
	StageDoorway
	// StagePreRound: executing a pre-round (Fig 4).
	StagePreRound
	// StageCommit: poison pill taken; propagating/collecting Commit.
	StageCommit
	// StageFlip: paused at the sift coin flip.
	StageFlip
	// StagePriority: propagating priority and collecting statuses.
	StagePriority
	// StageDecideSift: evaluating the survive/die condition.
	StageDecideSift
	// StageDone: the algorithm returned.
	StageDone
)

func (s Stage) String() string {
	switch s {
	case StageInit:
		return "init"
	case StageDoorway:
		return "doorway"
	case StagePreRound:
		return "preround"
	case StageCommit:
		return "commit"
	case StageFlip:
		return "flip"
	case StagePriority:
		return "priority"
	case StageDecideSift:
		return "decide"
	case StageDone:
		return "done"
	default:
		return "unknown"
	}
}

// State is the adversary-visible protocol state of one participant. The
// strong adaptive adversary reads it through sim.Kernel.Published; scheduling
// strategies use Round/Stage/Sifts to build phase-by-phase schedules and
// Flip to react to coin flips.
type State struct {
	// Algorithm names the protocol publishing this state.
	Algorithm string
	// Stage is the participant's current protocol stage.
	Stage Stage
	// Round is the current election round (0 outside rounds).
	Round int
	// Sifts counts completed sifting instances.
	Sifts int
	// Flip is the coin of the sift in progress: -1 before the flip.
	Flip int
	// Ell is |ℓ| for the heterogeneous sift in progress (0 if unknown).
	Ell int
	// Progress increases at every stage transition (monotone counter for
	// schedule construction).
	Progress int
	// Decided and Decision report the election outcome once reached.
	Decided  bool
	Decision Decision
	// LastOutcome is the outcome of the most recent sift.
	LastOutcome Outcome

	// RoundHook, when set, is called at every Round transition with the
	// new round number, on the participant's algorithm goroutine. It is
	// observability plumbing (the live backends use it to stamp election
	// spans with their round) and must not touch protocol state.
	RoundHook func(round int)

	// scratch is the sifting decisions' table, reused across sifts.
	scratch siftScratch
	// names are the register names of the election instance the state last
	// ran, subs those of its sub-instances (SubNames).
	names Names
	subs  []subNames
}

// SetRound records a round transition, notifying RoundHook if installed.
// Algorithms use it instead of assigning Round directly so observers see
// every transition.
func (s *State) SetRound(r int) {
	s.Round = r
	if s.RoundHook != nil {
		s.RoundHook(r)
	}
}

// NewState publishes a fresh State on p and returns it.
func NewState(p rt.Procer, algorithm string) *State {
	s := new(State)
	s.Reset(p, algorithm)
	return s
}

// Reset makes s what NewState(p, algorithm) builds and publishes it on p,
// keeping what the participant's next runs would build again: the sifting
// table and the register names it has cached. A backend that keeps one
// State per processor resets it for each run; nothing of the run before
// may still be reading or writing it.
func (s *State) Reset(p rt.Procer, algorithm string) {
	*s = State{Algorithm: algorithm, Stage: StageInit, Flip: -1, scratch: s.scratch, names: s.names, subs: s.subs}
	p.Publish(s)
}

// setStage records a stage transition.
func (s *State) setStage(st Stage) {
	s.Stage = st
	s.Progress++
}

// noteSift records a completed sift instance.
func (s *State) noteSift(o Outcome) {
	s.LastOutcome = o
	s.Sifts++
	s.Progress++
}

// decide records the final election decision.
func (s *State) decide(d Decision) {
	s.Decided = true
	s.Decision = d
	s.setStage(StageDone)
}

// SetDecided records a final decision from protocols outside this package
// (e.g. the tournament baseline) that reuse State for adversary visibility.
func (s *State) SetDecided(d Decision) { s.decide(d) }

// SiftCount reports completed sift instances; adversary strategies probe for
// this method through a small interface to build phase-by-phase schedules.
func (s *State) SiftCount() int { return s.Sifts }

// CurrentRound reports the election round in progress; adversary strategies
// probe for this method to target the furthest-ahead participant.
func (s *State) CurrentRound() int { return s.Round }
