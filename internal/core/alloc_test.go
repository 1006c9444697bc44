//go:build !race

package core

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/rt"
)

// The per-call allocation budgets of the election code itself, with the
// communicate calls answered by a stub that allocates nothing: what a warm
// participant pays on any backend on top of its messages. Run without the
// race detector, as the other budgets are.
const (
	// doorwayAllocs: one warm Doorway. Measured 1: the door register's name.
	doorwayAllocs = 1
	// preRoundAllocs: one warm PreRound. Measured 1: the round register's
	// name, which an election builds once for all its rounds.
	preRoundAllocs = 1
	// hetSiftAllocs: one warm HetPoisonPill over 32 seen participants.
	// Measured 3: the status register's name, ℓ (allocated once at its final
	// size; appending it from nil took 6 at 32) and the boxed priority
	// status carrying it — both stay fresh because the stores adopt them.
	// The sifting tables are scratch on State, Commit a boxed constant. It
	// was 13.
	hetSiftAllocs = 3
	// roundAllocs: one round of an election (Fig 6 lines 66-71: PreRound and
	// one heterogeneous sift) beyond its first. Measured 3: the round's sift
	// register name, ℓ and the priority status. It was 14.
	roundAllocs = 3
)

// budgetN is the system size of the stub: a quorum of 17 views of 32
// entries each, as one call of a 32-processor election sees.
const budgetN = 32

// stubProc is a processor of budgetN whose coin always shows 0, so every
// sift runs its decision over the views.
type stubProc struct{ rng *rand.Rand }

func (p stubProc) ID() rt.ProcID    { return 0 }
func (p stubProc) N() int           { return budgetN }
func (p stubProc) Rand() *rand.Rand { return p.rng }
func (p stubProc) Pause()           {}
func (p stubProc) Flip(float64) int { return 0 }
func (p stubProc) Publish(any)      {}

// stubComm answers every call from canned quorum views: the door register
// reads open, the round register shows every other processor in the round
// the caller last propagated (so it proceeds) until lastRound, and behind
// it (so it wins) after; every status register shows all 32 processors
// with low priority and a full ℓ list (so a sift survives). It allocates
// nothing per call.
type stubComm struct {
	proc      stubProc
	lastRound int
	round     int // the caller's last propagated round
	door      []rt.View
	rounds    []rt.View
	statuses  []rt.View
	roundCell []rt.Entry // the round register's cells, shared by its views
}

func newStubComm(lastRound int) *stubComm {
	c := &stubComm{proc: stubProc{rng: rand.New(rand.NewSource(1))}, lastRound: lastRound}
	q := c.QuorumSize()
	list := make([]rt.ProcID, budgetN)
	status := make([]rt.Entry, budgetN)
	c.roundCell = make([]rt.Entry, budgetN)
	for i := range list {
		list[i] = rt.ProcID(i)
		status[i] = rt.Entry{Owner: rt.ProcID(i), Seq: 2, Val: Status{Stat: LowPri, List: list}}
		c.roundCell[i] = rt.Entry{Owner: rt.ProcID(i), Seq: 1}
	}
	for from := 0; from < q; from++ {
		c.door = append(c.door, rt.View{From: rt.ProcID(from)})
		c.rounds = append(c.rounds, rt.View{From: rt.ProcID(from), Entries: c.roundCell})
		c.statuses = append(c.statuses, rt.View{From: rt.ProcID(from), Entries: status})
	}
	return c
}

func (c *stubComm) Proc() rt.Procer { return c.proc }
func (c *stubComm) QuorumSize() int { return budgetN/2 + 1 }

func (c *stubComm) Propagate(reg string, val rt.Value) {
	if r, ok := val.(int); ok {
		c.round = r
	}
}

func (c *stubComm) Collect(reg string) []rt.View {
	switch {
	case strings.HasSuffix(reg, "/door"):
		return c.door
	case strings.HasSuffix(reg, "/round"):
		others := c.round
		if c.round > c.lastRound {
			others = 0 // everyone else is behind: the caller wins
		}
		for i := range c.roundCell {
			c.roundCell[i].Val = others // a round below 256 boxes without allocating
		}
		return c.rounds
	default:
		return c.statuses
	}
}

func TestCallAllocBudgets(t *testing.T) {
	c := newStubComm(0)
	s := NewState(c.Proc(), "leaderelect")
	for _, tc := range []struct {
		name   string
		budget int
		call   func()
	}{
		{"Doorway", doorwayAllocs, func() {
			if Doorway(c, "elect", s) != Proceed {
				t.Fatal("the doorway is open: must proceed")
			}
		}},
		{"PreRound", preRoundAllocs, func() {
			c.lastRound = 1 << 30
			if PreRound(c, "elect", 3, s) != Proceed {
				t.Fatal("everyone else is in round 3 too: must proceed")
			}
		}},
		{"HetPoisonPill", hetSiftAllocs, func() {
			if HetPoisonPill(c, "elect/sift/3", s) != Survive || s.Ell != budgetN {
				t.Fatalf("all %d seen with low priority: must survive (ℓ = %d)", budgetN, s.Ell)
			}
		}},
	} {
		tc.call() // sizes the scratch
		got := testing.AllocsPerRun(200, tc.call)
		t.Logf("warm %s: %v allocs", tc.name, got)
		if got > float64(tc.budget) {
			t.Errorf("warm %s: %v allocs, budget %d", tc.name, got, tc.budget)
		}
	}
}

// TestRoundAllocBudget runs whole elections of 1 and of 9 rounds against
// the stub: the difference is 8 rounds of Fig 6, name building included.
func TestRoundAllocBudget(t *testing.T) {
	election := func(rounds int) float64 {
		c := newStubComm(rounds)
		s := NewState(c.Proc(), "leaderelect")
		run := func() {
			if LeaderElectWithState(c, "elect", s) != Win || s.Round != rounds+1 {
				t.Fatalf("an election set to run %d rounds won in round %d", rounds, s.Round)
			}
		}
		run()
		return testing.AllocsPerRun(100, run)
	}
	one, nine := election(1), election(9)
	perRound := (nine - one) / 8
	t.Logf("%v allocs per election round (%v over 9 rounds, %v over 1)", perRound, nine, one)
	if perRound > roundAllocs {
		t.Fatalf("%v allocs per election round (%v over 9 rounds, %v over 1), budget %d", perRound, nine, one, roundAllocs)
	}
}
