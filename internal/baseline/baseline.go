// Package baseline implements the comparison algorithms discussed by
// "How to Elect a Leader Faster than a Tournament":
//
//   - the tournament-tree leader election of Afek, Gafni, Tromp and Vitányi
//     [AGTV92], the decades-old Θ(log n)-time upper bound the paper beats
//     (Tournament);
//   - the naive sifting strawman from the paper's introduction — flip a
//     visible coin, then drop if somebody flipped 1 — which the adaptive
//     adversary defeats by scheduling all 0-flippers to finish their phase
//     before any 1-flipper is seen (NaiveSift);
//   - the random-scan renaming of [AAG+10], where each processor tries names
//     in uniformly random order; it is message-light but takes Ω(n) time for
//     a late processor (RandomScanRename).
//
// All baselines run on the same kernel, quorum layer and (for tournament
// matches) SSW round racing as the paper's algorithm, so comparisons measure
// the algorithms, not the substrate.
package baseline

import (
	"strconv"

	"repro/internal/core"
	"repro/internal/rt"
)

// NaiveSift is the strawman sifting round from the paper's introduction:
// flip a biased coin (1 with probability 1/√n), tell everyone, collect, and
// die if you flipped 0 while somebody else is seen with a 1.
//
// Unlike PoisonPill there is no commit state hiding the flip: the adaptive
// adversary sees every coin before its owner communicates, so it can
// schedule all 0-flippers to complete their phase before any 1-flipper
// propagates — and then nobody dies. The paper's Section 1 uses exactly this
// failure to motivate the poison-pill mechanism.
func NaiveSift(c rt.Comm, inst string, prob float64, s *core.State) core.Outcome {
	p := c.Proc()
	reg := inst + "/flip"

	s.Stage = core.StageFlip
	coin := p.Flip(prob)
	s.Flip = coin

	s.Stage = core.StagePriority
	c.Propagate(reg, coin)
	views := c.Collect(reg)

	s.Stage = core.StageDecideSift
	outcome := core.Survive
	if coin == 0 {
		self := p.ID()
	scan:
		for _, v := range views {
			for _, e := range v.Entries {
				if e.Owner != self {
					if flip, ok := e.Val.(int); ok && flip == 1 {
						outcome = core.Die
						break scan
					}
				}
			}
		}
	}
	s.LastOutcome = outcome
	s.Sifts++
	return outcome
}

// matchInst names the register namespace of the match at a tournament level
// and bracket group.
func matchInst(inst string, level, group int) string {
	return inst + "/m/" + strconv.Itoa(level) + "/" + strconv.Itoa(group)
}

// matchRounds bounds the SSW race of a single two-contender match; the race
// terminates in expected O(1) rounds, and the budget only exists to surface
// scheduler bugs as an explicit panic rather than an endless run.
const matchRounds = 1 << 20

// playMatch races the participant against (at most one) opponent from the
// sibling subtree on the match's registers names, using the paper's own
// round mechanism: PreRound decides Win when the contender is two rounds
// ahead of everything it can see and Lose when it is behind (Figure 4 /
// [SSW91]); between rounds, a two-participant basic PoisonPill with fair
// coin bias sifts the pair so the race makes progress. A walkover (no
// opponent ever shows up) is decided by the R < r−1 rule after two rounds,
// exactly like a solo election.
func playMatch(c rt.Comm, names *core.Names, s *core.State) core.Decision {
	for r := 1; r <= matchRounds; r++ {
		s.SetRound(r)
		d := core.PreRoundOn(c, names.Round(), r, s)
		if d != core.Proceed {
			return d
		}
		// Fair-bias pair sift: at least one of the two survives (Claim 3.1
		// holds for any participant count), and with constant probability
		// exactly one does, so the race decides in expected O(1) rounds.
		if pairSift(c, names.SiftStatus(r), s) == core.Die {
			return core.Lose
		}
	}
	panic("baseline: tournament match failed to decide within its round budget")
}

// pairSift is the basic PoisonPill round with probability 1/2 (the natural
// bias for two contenders) on a match-private status register.
func pairSift(c rt.Comm, reg string, s *core.State) core.Outcome {
	return core.PoisonPillOn(c, reg, 0.5, s)
}

// Tournament runs the [AGTV92] tournament-tree leader election for the
// participant behind c. Leaf positions are the processor IDs; the winner of
// the match at level l proceeds to level l+1, for ⌈log₂ n⌉ levels. A global
// doorway preserves linearizability, as in the paper's construction.
//
// With the SSW race as the two-processor decision procedure, each match
// costs expected O(1) communicate calls, so a contender performs expected
// Θ(log n) communicate calls — the bound the paper's algorithm improves to
// O(log* k).
func Tournament(c rt.Comm, inst string) core.Decision {
	s := core.NewState(c.Proc(), "tournament")
	return TournamentWithState(c, inst, s)
}

// TournamentWithState is Tournament with a caller-supplied published state.
func TournamentWithState(c rt.Comm, inst string, s *core.State) core.Decision {
	if core.Doorway(c, inst, s) == core.Lose {
		s.SetDecided(core.Lose)
		return core.Lose
	}
	n := c.Proc().N()
	levels := 0
	for 1<<levels < n {
		levels++
	}
	pos := int(c.Proc().ID())
	for l := 0; l < levels; l++ {
		group := pos >> (l + 1)
		// The match's register names are kept on s, one match per level,
		// as an election's are: a warm tournament builds none.
		if d := playMatch(c, s.SubNames(inst, l, group, matchInst), s); d == core.Lose {
			s.SetDecided(core.Lose)
			return core.Lose
		}
	}
	s.SetDecided(core.Win)
	return core.Win
}
