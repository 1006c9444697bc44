package adversary

import (
	"repro/internal/sim"
)

// Bubble is the adversarial construction from the message-complexity lower
// bound (Theorem B.2 / Corollary B.3): a set S of participants is placed in
// a "bubble" — all of a member's incoming and outgoing messages are
// suspended in a buffer — and a member is freed only once at least
// `Threshold` of its messages are buffered. The theorem shows that since no
// processor can decide without communication, every bubbled processor must
// eventually be freed, which forces it to send or receive Θ(n) messages;
// with |S| = Θ(k) the total is Ω(kn).
//
// The experiment (T8) runs leader election and renaming under this strategy
// and checks that each freed member indeed accumulated ≥ Threshold messages
// and that total messages are Ω(kn).
type Bubble struct {
	// Members is the bubbled set; NewBubble picks the first ⌈k/4⌉
	// participants by default.
	members map[sim.ProcID]bool
	// threshold is the buffered-message count that frees a member
	// (the theorem's n/4).
	threshold int

	ff          filteredFair
	initialized bool
	freed       map[sim.ProcID]bool
	// FreedCounts records, per freed member, how many messages were
	// buffered at release time (for the Ω(n) per-member check).
	FreedCounts map[sim.ProcID]int
	sinceCheck  int
}

// NewBubble builds the bubble strategy with the theorem's parameters:
// members = first ⌈k/4⌉ participants (chosen at the first scheduling
// decision), threshold = ⌈n/4⌉ buffered messages.
func NewBubble() *Bubble {
	return &Bubble{
		members:     make(map[sim.ProcID]bool),
		freed:       make(map[sim.ProcID]bool),
		FreedCounts: make(map[sim.ProcID]int),
	}
}

// bubbled reports whether a processor is currently inside the bubble.
func (b *Bubble) bubbled(id sim.ProcID) bool {
	return b.members[id] && !b.freed[id]
}

// allow holds every message to or from a bubbled member.
func (b *Bubble) allow(m *sim.Message) bool {
	return !b.bubbled(m.From) && !b.bubbled(m.To)
}

// buffered counts the suspended messages of one member (incoming plus
// outgoing in-flight).
func (b *Bubble) buffered(k *sim.Kernel, id sim.ProcID) int {
	n := 0
	k.EachInflightTo(id, func(*sim.Message) bool { n++; return true })
	k.EachInflightFrom(id, func(*sim.Message) bool { n++; return true })
	return n
}

// Next implements sim.Adversary.
func (b *Bubble) Next(k *sim.Kernel) sim.Action {
	if !b.initialized {
		b.initialized = true
		parts := k.Participants()
		size := (len(parts) + 3) / 4
		for _, id := range parts[:size] {
			b.members[id] = true
		}
		if b.threshold == 0 {
			b.threshold = (k.N() + 3) / 4
		}
	}
	// Periodically check the release condition (an exact per-send hook is
	// not needed: the count only grows).
	b.sinceCheck++
	if b.sinceCheck >= 16 {
		b.sinceCheck = 0
		for id := range b.members {
			if b.freed[id] {
				continue
			}
			if n := b.buffered(k, id); n >= b.threshold {
				b.freed[id] = true
				b.FreedCounts[id] = n
			}
		}
	}
	if a := b.ff.next(k, b.allow); a != nil {
		return a
	}
	// Nothing deliverable outside the bubble: the run cannot finish until
	// the remaining members are freed. Free the member with the most
	// buffered traffic (the model requires eventual delivery; the theorem's
	// count argument has already been served by then).
	var best sim.ProcID
	bestCount := -1
	for id := range b.members {
		if b.freed[id] {
			continue
		}
		if n := b.buffered(k, id); n > bestCount {
			best, bestCount = id, n
		}
	}
	if bestCount >= 0 {
		b.freed[best] = true
		b.FreedCounts[best] = bestCount
		return b.ff.next(k, b.allow)
	}
	return sim.Halt{}
}
