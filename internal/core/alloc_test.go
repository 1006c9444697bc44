//go:build !race

package core

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/rt"
)

// The per-call allocation budgets of the election code itself, with the
// communicate calls answered by a stub that allocates nothing: what a warm
// participant pays on any backend on top of its messages. Run without the
// race detector, as the other budgets are.
const (
	// doorwayAllocs: one warm Doorway. Measured 0: the door register's
	// name is the one the State keeps (Names). It was 1.
	doorwayAllocs = 0
	// preRoundAllocs: one warm PreRound. Measured 0: the round register's
	// name is kept too. It was 1.
	preRoundAllocs = 0
	// hetSiftAllocs: one warm HetPoisonPill over 32 seen participants.
	// Measured 3: the status register's name, ℓ (allocated once at its final
	// size; appending it from nil took 6 at 32) and the boxed priority
	// status carrying it — both stay fresh because the stores adopt them.
	// The sifting tables are scratch on State, Commit a boxed constant. It
	// was 13.
	hetSiftAllocs = 3
	// roundAllocs: one round of an election (Fig 6 lines 66-71: PreRound and
	// one heterogeneous sift) beyond its first. Measured 2: ℓ and the
	// priority status. The round's sift register name is the State's
	// (Names), built at the instance's first election on it. It was 3, and
	// 14 before the sifting scratch.
	roundAllocs = 2
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

// TestRegisterNamesUnchanged: the names a State keeps are byte for byte
// the ones the protocols have always used — the wire, the sim's golden
// runs and every store key depend on them — for the door, the round
// register and rounds 1…256 of the sifts, across the instance changes of a
// renaming (a fresh instance per name competed for), and for the
// tournament's matches (SubNames). A warm lookup, under an instance string
// built again with equal bytes as a renaming builds it, allocates nothing.
func TestRegisterNamesUnchanged(t *testing.T) {
	const rounds = 256
	s := NewState(stubProc{}, "rename/elect")
	check := func(inst string) {
		t.Helper()
		nm := s.names.of(inst)
		if got, want := nm.SiftStatus(7), inst+"/sift/7/status"; got != want { // a round before its predecessors
			t.Fatalf("%s: round 7 status %q, want %q", inst, got, want)
		}
		if got, want := nm.Door(), inst+"/door"; got != want {
			t.Fatalf("%s: door %q, want %q", inst, got, want)
		}
		if got, want := nm.Round(), inst+"/round"; got != want {
			t.Fatalf("%s: round %q, want %q", inst, got, want)
		}
		for r := 1; r <= rounds; r++ {
			if got, want := nm.SiftStatus(r), inst+"/sift/"+strconv.Itoa(r)+"/status"; got != want {
				t.Fatalf("%s: round %d status %q, want %q", inst, r, got, want)
			}
		}
	}
	renamingInst := func(u int) string { return "rename/elect/" + strconv.Itoa(u) }
	for _, u := range []int{5, 2, 31, 17, 9} {
		check(renamingInst(u))
	}
	again := renamingInst(9) // equal bytes, another string
	warm := func() {
		nm := s.names.of(again)
		nm.Door()
		nm.Round()
		for r := 1; r <= rounds; r++ {
			nm.SiftStatus(r)
		}
	}
	if got := testing.AllocsPerRun(100, warm); got != 0 {
		t.Fatalf("warm lookup of %d names: %v allocs, want 0", rounds+2, got)
	}
	check("elect")

	match := func(inst string, level, group int) string {
		return inst + "/m/" + strconv.Itoa(level) + "/" + strconv.Itoa(group)
	}
	for _, lv := range []struct{ level, group int }{{0, 3}, {1, 1}, {2, 0}, {0, 3}, {0, 2}} {
		nm := s.SubNames("tourn", lv.level, lv.group, match)
		want := match("tourn", lv.level, lv.group)
		if nm.Round() != want+"/round" || nm.SiftStatus(3) != want+"/sift/3/status" {
			t.Fatalf("match %v: round %q, round 3 status %q; want them under %q", lv, nm.Round(), nm.SiftStatus(3), want)
		}
	}
	warmMatch := func() {
		for l := range 3 {
			nm := s.SubNames("tourn", l, 7>>(l+1), match)
			nm.Round()
			nm.SiftStatus(4)
		}
	}
	warmMatch()
	if got := testing.AllocsPerRun(100, warmMatch); got != 0 {
		t.Fatalf("warm lookup of a tournament's match names: %v allocs, want 0", got)
	}
}
