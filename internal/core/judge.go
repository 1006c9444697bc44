package core

import (
	"fmt"

	"repro/internal/rt"
)

// JudgeElection checks one election of participants 0…k−1 against its
// test-and-set contract. decisions holds the participants that returned; a
// participant that crashed or aborted is absent. The election is valid when
// every returned participant decided WIN or LOSE, at most one won (Lemma
// A.2), and one did if all k returned (Theorem A.5): with a participant
// missing, the linearized winner may be the one that never returned. It
// returns the winner, or −1 when nobody won.
func JudgeElection(k int, decisions map[rt.ProcID]Decision) (rt.ProcID, error) {
	winner, seen := rt.ProcID(-1), 0
	for id := rt.ProcID(0); int(id) < k; id++ {
		d, ok := decisions[id]
		if !ok {
			continue
		}
		seen++
		switch d {
		case Win:
			if winner >= 0 {
				return -1, fmt.Errorf("safety violation: participants %d and %d both won", winner, id)
			}
			winner = id
		case Lose:
		default:
			return -1, fmt.Errorf("participant %d returned %v", id, d)
		}
	}
	if seen != len(decisions) {
		return -1, fmt.Errorf("%d decisions from participants outside [0, %d)", len(decisions)-seen, k)
	}
	if winner < 0 && seen == k {
		return -1, fmt.Errorf("all %d participants returned and none won", k)
	}
	return winner, nil
}

// JudgeSift checks one PoisonPill round (basic, Figure 1, or heterogeneous,
// Figure 2) of participants 0…k−1. outcomes holds the participants that
// returned. The round is valid when every returned participant survived or
// died, and at least one survived if all k returned (Claim 3.1). It returns
// the number of survivors. The contract is PoisonPill's alone: the naive
// sifting strawman, whose every participant can die, has none to check.
func JudgeSift(k int, outcomes map[rt.ProcID]Outcome) (int, error) {
	survivors, seen := 0, 0
	for id := rt.ProcID(0); int(id) < k; id++ {
		o, ok := outcomes[id]
		if !ok {
			continue
		}
		seen++
		switch o {
		case Survive:
			survivors++
		case Die:
		default:
			return survivors, fmt.Errorf("participant %d returned %v", id, o)
		}
	}
	if seen != len(outcomes) {
		return survivors, fmt.Errorf("%d outcomes from participants outside [0, %d)", len(outcomes)-seen, k)
	}
	if survivors == 0 && seen == k {
		return 0, fmt.Errorf("safety violation: all %d participants died (Claim 3.1)", k)
	}
	return survivors, nil
}
