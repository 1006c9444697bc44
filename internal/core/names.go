package core

import "strconv"

// Names are the register names of one election instance: its door (Fig 5),
// its round register (Fig 4) and the status register of each round's
// heterogeneous PoisonPill, the round's own sift namespace
// ("HeterogeneousPoisonPill protocols for different rounds are completely
// disjoint from each other", Section A.1). Each name is built at its first
// use and kept: a participant's State holds the names of the instance it
// last ran, so its next election of that instance builds none.
type Names struct {
	inst        string
	door, round string
	sift        []string // sift[r-1] is round r's status register
}

// of points the names at instance inst. They are rebuilt only when inst is
// another instance than the one they name, as it is at every election of a
// renaming; a string of equal bytes is the same instance.
func (nm *Names) of(inst string) *Names {
	if nm.inst != inst {
		nm.inst, nm.door, nm.round = inst, "", ""
		clear(nm.sift)
		nm.sift = nm.sift[:0]
	}
	return nm
}

// Door names the instance's door register: inst/door.
func (nm *Names) Door() string {
	if nm.door == "" {
		nm.door = nm.inst + "/door"
	}
	return nm.door
}

// Round names the instance's round register: inst/round.
func (nm *Names) Round() string {
	if nm.round == "" {
		nm.round = nm.inst + "/round"
	}
	return nm.round
}

// SiftStatus names the status register of round r's sift, r ≥ 1:
// inst/sift/r/status, each built with one allocation.
func (nm *Names) SiftStatus(r int) string {
	for len(nm.sift) < r {
		nm.sift = append(nm.sift, nm.inst+"/sift/"+strconv.Itoa(len(nm.sift)+1)+"/status")
	}
	return nm.sift[r-1]
}

// subNames are the names of one sub-instance, with the key they were built
// for.
type subNames struct {
	parent string
	key    int
	names  Names
}

// SubNames returns the names of the sub-instance of inst that level and key
// identify, kept on s one per level: a protocol that runs an election-shaped
// instance at each of its levels (the tournament's matches) builds their
// names once. name builds the sub-instance's own name from (inst, level,
// key); it is called only when the level's kept names are of another parent
// or key.
func (s *State) SubNames(inst string, level, key int, name func(inst string, level, key int) string) *Names {
	for len(s.subs) <= level {
		s.subs = append(s.subs, subNames{key: -1})
	}
	sn := &s.subs[level]
	if sn.parent != inst || sn.key != key {
		sn.parent, sn.key = inst, key
		sn.names.of(name(inst, level, key))
	}
	return &sn.names
}
