// Package renaming implements the strong (tight) renaming algorithm of
// Alistarh, Gelashvili and Vladu (Section 4, Figure 3): n processors acquire
// distinct names 1..n in expected O(log² n) time and O(n²) messages by
// repeatedly picking a uniformly random name they see as uncontended and
// competing for it in a per-name leader election.
//
// Contention information is a register array "contended": each processor's
// cell holds the (monotonically growing) set of names it knows to be
// contended, encoded as a bitset. A name is contended when any cell's set
// contains it — matching the paper's Contended[j] boolean array, which any
// processor may set to true.
package renaming

import (
	"fmt"
	"maps"
	"slices"
	"strconv"

	"repro/internal/core"
	"repro/internal/rt"
)

// NameSet is a bitset over names 1..n (bit i-1 ↔ name i). It is the register
// value processors propagate; once propagated it must not be mutated, so all
// updates go through Clone-and-set.
type NameSet []uint64

// NewNameSet returns an empty set with capacity for n names.
func NewNameSet(n int) NameSet { return make(NameSet, (n+63)/64) }

// Has reports whether name u (1-based) is in the set.
func (s NameSet) Has(u int) bool {
	i := u - 1
	w := i / 64
	if w >= len(s) {
		return false
	}
	return s[w]&(1<<(i%64)) != 0
}

// set adds name u (1-based) in place; unexported because shared sets are
// immutable — use Clone first.
func (s NameSet) set(u int) {
	i := u - 1
	s[i/64] |= 1 << (i % 64)
}

// Clone returns a mutable copy.
func (s NameSet) Clone() NameSet { return append(NameSet(nil), s...) }

// With returns a copy of s with name u added.
func (s NameSet) With(u int) NameSet {
	out := s.Clone()
	out.set(u)
	return out
}

// Union returns a copy of s with all of t's names added, or s itself when t
// adds nothing.
func (s NameSet) Union(t NameSet) NameSet {
	changed := false
	for w := range t {
		if t[w]&^s[w] != 0 {
			changed = true
			break
		}
	}
	if !changed {
		return s
	}
	out := s.Clone()
	for w := range t {
		out[w] |= t[w]
	}
	return out
}

// Count returns the number of names in the set.
func (s NameSet) Count() int {
	c := 0
	for _, w := range s {
		for ; w != 0; w &= w - 1 {
			c++
		}
	}
	return c
}

// WireSize implements rt.WireSizer with the set's exact encoded body size
// under the internal/wire codec: the word count as a uvarint plus eight
// bytes per bitset word.
func (s NameSet) WireSize() int { return rt.UvarintSize(uint64(len(s))) + 8*len(s) }

// State is the adversary- and experiment-visible progress of one renaming
// participant.
type State struct {
	// Iterations counts started while-loop iterations (Fig 3 line 32).
	Iterations int
	// Contending is the name currently being competed for (0 if none).
	Contending int
	// Picks lists every name the participant competed for, in order; the
	// contention-distribution experiments (F3) derive per-name contender
	// counts from it.
	Picks []int
	// Acquired is the returned name (0 until decided).
	Acquired int
	// Election is the published state of the embedded leader elections.
	Election *core.State
}

// contendedReg is the register array holding contention sets.
const contendedReg = "rename/contended"

// electInst names the leader-election instance for one name.
func electInst(u int) string { return "rename/elect/" + strconv.Itoa(u) }

// GetName executes the renaming algorithm (Figure 3) for the participant
// behind c and returns its acquired name in [1, n].
//
// Each loop iteration collects contention information from a quorum (line
// 33), merges it (lines 34-36), propagates the merged set (line 37), picks
// a uniformly random name it still sees as uncontended (line 38), marks it
// contended (line 39), competes for it in that name's leader election (line
// 40), propagates the contention (line 41) and returns the name upon winning
// (lines 42-43).
//
// Guarantees (Lemma A.6, Theorems 4.2 and A.13): no two processors return
// the same name; with fewer than half the processors faulty every non-faulty
// participant returns with probability 1; expected message complexity is
// O(n²) and expected time complexity O(log² n).
func GetName(c rt.Comm, s *State) int {
	p := c.Proc()
	n := p.N()
	es := &core.State{Algorithm: "rename/elect", Stage: core.StageInit, Flip: -1}
	s.Election = es
	p.Publish(s)

	mine := NewNameSet(n) // Contended[n] = {false}, all-local view
	for {                 // line 32
		s.Iterations++
		views := c.Collect(contendedReg) // line 33
		for _, v := range views {        // lines 34-36
			for _, e := range v.Entries {
				if set, ok := e.Val.(NameSet); ok {
					mine = mine.Union(set)
				}
			}
		}
		c.Propagate(contendedReg, mine) // line 37

		spot := pickUncontended(p, n, mine) // line 38
		if spot == 0 {
			// Every name looks contended in this (transient) view; names
			// are freed only logically as elections resolve, so re-collect.
			// Termination follows from Lemma A.6: eventually some name the
			// participant can win is visible as uncontended.
			continue
		}
		mine = mine.With(spot) // line 39
		s.Contending = spot
		s.Picks = append(s.Picks, spot)

		outcome := core.LeaderElectWithState(c, electInst(spot), es) // line 40
		c.Propagate(contendedReg, mine)                              // line 41
		s.Contending = 0
		if outcome == core.Win { // lines 42-43
			s.Acquired = spot
			return spot
		}
	}
}

// pickUncontended implements line 38: a uniformly random name among those
// the caller's view reports uncontended, or 0 when none remain.
func pickUncontended(p rt.Procer, n int, contended NameSet) int {
	free := n - contended.Count()
	if free <= 0 {
		return 0
	}
	idx := p.Rand().Intn(free)
	for u := 1; u <= n; u++ {
		if contended.Has(u) {
			continue
		}
		if idx == 0 {
			return u
		}
		idx--
	}
	return 0
}

// JudgeNames checks one renaming in a system of n processors against tight
// renaming's contract (Section 4): every participant that returned holds a
// name in [1, n] that no other holds. names holds the participants that
// returned.
func JudgeNames(n int, names map[rt.ProcID]int) error {
	holder := make(map[int]rt.ProcID, len(names))
	for _, id := range slices.Sorted(maps.Keys(names)) {
		u := names[id]
		if u < 1 || u > n {
			return fmt.Errorf("participant %d returned name %d outside [1, %d]", id, u, n)
		}
		if prev, dup := holder[u]; dup {
			return fmt.Errorf("safety violation: participants %d and %d both returned name %d", prev, id, u)
		}
		holder[u] = id
	}
	return nil
}
