package core

import (
	"repro/internal/rt"
)

// Doorway executes the doorway procedure (Figure 5). The participant
// collects the door flag from a quorum (line 56) and loses immediately if
// any view reports a closed door (lines 57-58); otherwise it closes the door
// itself and propagates that to a quorum (lines 59-60) before proceeding
// (line 61).
//
// The doorway makes the election linearizable (Lemma A.3): no participant
// can lose before the eventual winner's invocation has started. The door
// register's name is the one s keeps for inst (Names).
func Doorway(c rt.Comm, inst string, s *State) Decision {
	return doorway(c, s.names.of(inst).Door(), s)
}

// doorway is Doorway on the door register reg.
func doorway(c rt.Comm, reg string, s *State) Decision {
	s.setStage(StageDoorway)
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
// (line 53). The round register's name is the one s keeps for inst (Names).
func PreRound(c rt.Comm, inst string, r int, s *State) Decision {
	return PreRoundOn(c, s.names.of(inst).Round(), r, s)
}

// PreRoundOn is PreRound on the round register reg, named by the caller —
// for a protocol that keeps the names of several instances (SubNames).
func PreRoundOn(c rt.Comm, reg string, r int, s *State) Decision {
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
	names := s.names.of(inst)
	if doorway(c, names.Door(), s) == Lose { // lines 63-64
		s.decide(Lose)
		return Lose
	}
	round := names.Round()
	for r := 1; ; r++ { // lines 65, 71-72
		s.SetRound(r)
		d := PreRoundOn(c, round, r, s) // line 66
		if d == Win || d == Lose {      // lines 67-68
			s.decide(d)
			return d
		}
		if hetPoisonPill(c, names.SiftStatus(r), PaperBias, s) == Die { // line 69
			s.decide(Lose) // line 70
			return Lose
		}
	}
}
