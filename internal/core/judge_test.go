package core

import (
	"strings"
	"testing"

	"repro/internal/rt"
)

// TestJudgeElection: one case per clause the election judge checks, plus
// the valid outcomes, among them the winnerless election with a participant
// missing.
func TestJudgeElection(t *testing.T) {
	cases := []struct {
		name      string
		decisions map[rt.ProcID]Decision
		winner    rt.ProcID
		want      string // substring of the error; "" means valid
	}{
		{"one winner", map[rt.ProcID]Decision{0: Lose, 1: Win, 2: Lose}, 1, ""},
		{"winnerless, one missing", map[rt.ProcID]Decision{0: Lose, 2: Lose}, -1, ""},
		{"nobody returned", map[rt.ProcID]Decision{}, -1, ""},
		{"two winners", map[rt.ProcID]Decision{0: Win, 1: Lose, 2: Win}, -1, "0 and 2 both won"},
		{"undecided return", map[rt.ProcID]Decision{0: Win, 1: Proceed}, -1, "participant 1 returned PROCEED"},
		{"all returned, none won", map[rt.ProcID]Decision{0: Lose, 1: Lose, 2: Lose}, -1, "none won"},
		{"outsider", map[rt.ProcID]Decision{0: Win, 7: Lose}, -1, "outside [0, 3)"},
	}
	for _, c := range cases {
		w, err := JudgeElection(3, c.decisions)
		if (err == nil) != (c.want == "") || err != nil && !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want %q", c.name, err, c.want)
		}
		if w != c.winner {
			t.Errorf("%s: winner %d, want %d", c.name, w, c.winner)
		}
	}
}

// TestJudgeSift: the same for the PoisonPill round's judge.
func TestJudgeSift(t *testing.T) {
	cases := []struct {
		name      string
		outcomes  map[rt.ProcID]Outcome
		survivors int
		want      string
	}{
		{"two survivors", map[rt.ProcID]Outcome{0: Survive, 1: Die, 2: Survive}, 2, ""},
		{"all died, one missing", map[rt.ProcID]Outcome{0: Die, 1: Die}, 0, ""},
		{"all returned, all died", map[rt.ProcID]Outcome{0: Die, 1: Die, 2: Die}, 0, "Claim 3.1"},
		{"undecided return", map[rt.ProcID]Outcome{0: Survive, 1: 0}, 1, "participant 1 returned undecided"},
		{"outsider", map[rt.ProcID]Outcome{0: Survive, 3: Die}, 1, "outside [0, 3)"},
	}
	for _, c := range cases {
		s, err := JudgeSift(3, c.outcomes)
		if (err == nil) != (c.want == "") || err != nil && !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want %q", c.name, err, c.want)
		}
		if s != c.survivors {
			t.Errorf("%s: %d survivors, want %d", c.name, s, c.survivors)
		}
	}
}
