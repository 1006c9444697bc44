package core

import (
	"strconv"

	"repro/internal/rt"
)

// doorReg and roundReg name the shared registers of one election instance.
func doorReg(inst string) string  { return inst + "/door" }
func roundReg(inst string) string { return inst + "/round" }

// siftStatusReg names the status register of round r's heterogeneous
// PoisonPill, statusReg of the round's own sift namespace
// ("HeterogeneousPoisonPill protocols for different rounds are completely
// disjoint from each other", Section A.1), built with one allocation.
func siftStatusReg(inst string, r int) string {
	return inst + "/sift/" + strconv.Itoa(r) + "/status"
}

// Doorway executes the doorway procedure (Figure 5). The participant
// collects the door flag from a quorum (line 56) and loses immediately if
// any view reports a closed door (lines 57-58); otherwise it closes the door
// itself and propagates that to a quorum (lines 59-60) before proceeding
// (line 61).
//
// The doorway makes the election linearizable (Lemma A.3): no participant
// can lose before the eventual winner's invocation has started.
func Doorway(c rt.Comm, inst string, s *State) Decision {
	s.setStage(StageDoorway)
	reg := doorReg(inst)
	views := c.Collect(reg) // line 56
	for _, v := range views {
		if len(v.Entries) > 0 { // some Doors[j] = true, lines 57-58
			return Lose
		}
	}
	c.Propagate(reg, true) // lines 59-60
	return Proceed         // line 61
}

// PreRound executes the pre-round procedure (Figure 4) for round r. The
// participant records and propagates its round (lines 45-46), collects the
// rounds of others (line 47) and computes R, the maximum round of any other
// processor in any view (line 48). Following [SSW91]: if r < R it loses
// (lines 49-50), if R < r−1 it wins (lines 51-52), otherwise it proceeds
// (line 53).
func PreRound(c rt.Comm, inst string, r int, s *State) Decision {
	return preRound(c, roundReg(inst), r, s)
}

// preRound is PreRound on the round register reg, named by the caller: an
// election builds the name once, not once per round.
func preRound(c rt.Comm, reg string, r int, s *State) Decision {
	s.setStage(StagePreRound)
	c.Propagate(reg, r)     // lines 45-46
	views := c.Collect(reg) // line 47

	self := c.Proc().ID()
	maxOther := 0 // rounds start at 1; 0 stands for "no other round seen"
	for _, v := range views {
		for _, e := range v.Entries {
			if e.Owner == self {
				continue // line 48 takes the max over j ≠ i
			}
			if rv, ok := e.Val.(int); ok && rv > maxOther {
				maxOther = rv
			}
		}
	}
	switch {
	case r < maxOther: // lines 49-50
		return Lose
	case maxOther < r-1: // lines 51-52
		return Win
	default:
		return Proceed // line 53
	}
}

// LeaderElectWithState executes the complete leader-election algorithm
// (Figure 6) for the participant behind c on election instance inst,
// publishing its progress in s — one State per processor, which protocols
// that embed elections (renaming, tournaments) reuse across them. It
// returns Win for exactly one participant and Lose for every other.
//
// The participant passes through the doorway (lines 63-64), then repeats:
// pre-round (line 66), returning if the round numbers already decide the
// outcome (lines 67-68); otherwise one round of heterogeneous PoisonPill
// (line 69), losing if it dies (line 70), and advancing to the next round
// otherwise (line 71).
//
// Guarantees (Theorem A.5): the election is linearizable; with at most
// ⌈n/2⌉−1 crashes every non-faulty participant returns with probability 1;
// with k participants the expected maximum number of communicate calls per
// processor is O(log* k) and the expected total number of messages is
// O(kn).
func LeaderElectWithState(c rt.Comm, inst string, s *State) Decision {
	// Reset per-election fields: embedding protocols (renaming) reuse one
	// published State across several elections.
	s.Decided = false
	s.Decision = 0
	s.SetRound(0)
	if Doorway(c, inst, s) == Lose { // lines 63-64
		s.decide(Lose)
		return Lose
	}
	round := roundReg(inst)
	for r := 1; ; r++ { // lines 65, 71-72
		s.SetRound(r)
		d := preRound(c, round, r, s) // line 66
		if d == Win || d == Lose {    // lines 67-68
			s.decide(d)
			return d
		}
		if hetPoisonPill(c, siftStatusReg(inst, r), PaperBias, s) == Die { // line 69
			s.decide(Lose) // line 70
			return Lose
		}
	}
}
