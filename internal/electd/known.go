package electd

import (
	"hash/maphash"
	"sync"

	"repro/internal/rt"
)

// knownViews is one server link's memory of the views the pool holds from
// that server: for each (election, register), the tag and entries of the
// last full view of it the link received. A same reply naming the tag
// stands for exactly those entries (see Pool.handle). The router fills it
// from every tagged view the link delivers — only a stream's views are
// tagged, so a datagram link's table stays empty — Cluster.RemoveElection
// clears a finished election's rows, and a Redial starts the link with an
// empty one.
//
// It is a fixed table of knownSlots views in knownSets sets, a key living
// in the set its hash picks and a new key taking that set's least recently
// used slot, so it never allocates and a lookup compares knownWays keys. Only
// the link's read loop and RemoveElection use it, so one mutex guards it. A
// view the table lets go costs at most a full view, or a re-ask when a
// same reply names it (Pool.reask); least-recently-used keeps the
// registers a running election still reads. The entries it holds are
// shared immutables (wire.DecodeShared's contract), never written or
// recycled, so keeping a reference is all remembering them costs; what
// the table pins is bounded by its slots.
type knownViews struct {
	mu    sync.Mutex
	slot  [knownSlots]knownView
	clock uint64 // stamps slot use, for least-recently-used replacement
}

// knownSlots sizes the table: 32 views per link, 2 KiB — the pool's whole
// cost in live heap, n links of it. An election reads about a dozen
// registers, two or three of them at a time, so 32 keeps the live ones of
// the handful of elections a pool runs at once over the same servers; 64
// measured no more same replies on either TCP workload of the benchmark
// (8 s runs) and cost solo-tcp-n32 +0.18 MB (+5 %) of heap_live_mb.
const (
	knownSets  = 4
	knownWays  = 8
	knownSlots = knownSets * knownWays
)

var knownSeed = maphash.MakeSeed()

// set returns the slots a key of election whose register name hashes to h
// (maphash with knownSeed, of the name as a string or as bytes alike) may
// live in.
func (k *knownViews) set(election, h uint64) []knownView {
	i := (h ^ election*0x9E3779B97F4A7C15) % knownSets * knownWays
	return k.slot[i : i+knownWays]
}

// knownView is one remembered view: the tag it arrived under — 0 marks an
// empty slot — and the entries that tag stands for.
type knownView struct {
	election uint64
	reg      string
	used     uint64
	tag      uint64
	entries  []rt.Entry
}

// find returns the slot of set holding (election, reg), or nil, marking
// it used. The caller holds k.mu.
func (k *knownViews) find(set []knownView, election uint64, reg string) *knownView {
	for i := range set {
		if v := &set[i]; v.tag != 0 && v.election == election && v.reg == reg {
			k.touch(v)
			return v
		}
	}
	return nil
}

// touch marks v used now. The caller holds k.mu.
func (k *knownViews) touch(v *knownView) {
	k.clock++
	v.used = k.clock
}

// named returns the view held under tag — a tag names one encoding of the
// server's process — with the (election, register) it is a view of.
func (k *knownViews) named(tag uint64) (v knownView, ok bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	for i := range k.slot {
		if k.slot[i].tag == tag {
			k.touch(&k.slot[i])
			return k.slot[i], true
		}
	}
	return knownView{}, false
}

// has reports whether the table holds tag for (election, reg).
func (k *knownViews) has(election uint64, reg []byte, tag uint64) bool {
	set := k.set(election, maphash.Bytes(knownSeed, reg))
	k.mu.Lock()
	defer k.mu.Unlock()
	for i := range set {
		if v := &set[i]; v.tag == tag && v.election == election && v.reg == string(reg) {
			k.touch(v)
			return true
		}
	}
	return false
}

// put remembers a full view of (election, reg) that arrived under tag,
// replacing whatever view of it the table held.
func (k *knownViews) put(election uint64, reg string, tag uint64, entries []rt.Entry) {
	set := k.set(election, maphash.String(knownSeed, reg))
	k.mu.Lock()
	v := k.find(set, election, reg)
	if v == nil {
		v = &set[0]
		for i := range set {
			if set[i].used < v.used {
				v = &set[i]
			}
		}
	}
	*v = knownView{election: election, reg: reg, tag: tag, entries: entries}
	k.touch(v)
	k.mu.Unlock()
}

// forget clears every view of election.
func (k *knownViews) forget(election uint64) {
	k.mu.Lock()
	for i := range k.slot {
		if k.slot[i].election == election {
			k.slot[i] = knownView{}
		}
	}
	k.mu.Unlock()
}
