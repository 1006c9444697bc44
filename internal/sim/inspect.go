package sim

import "math/rand"

// This file is the adaptive adversary's window into the system: the strong
// adversary of Section 2 "can examine the system state, including the
// outcomes of random coin flips, and adjust the scheduling accordingly".
// Every query is read-only.

// Started reports whether processor id's protocol invocation has begun.
func (k *Kernel) Started(id ProcID) bool {
	s := k.procs[id].state
	return s == stateBlocked || s == stateDone || (s == stateCrashed && k.procs[id].algo != nil)
}

// Ready reports whether processor id is a spawned participant whose
// invocation has not yet been started.
func (k *Kernel) Ready(id ProcID) bool { return k.procs[id].state == stateReady }

// Done reports whether processor id's algorithm has returned.
func (k *Kernel) Done(id ProcID) bool { return k.procs[id].state == stateDone }

// Crashed reports whether processor id has failed.
func (k *Kernel) Crashed(id ProcID) bool { return k.procs[id].state == stateCrashed }

// Resumable reports whether a Step of processor id would resume its
// algorithm right now (parked with a satisfied — or absent — wait
// condition).
func (k *Kernel) Resumable(id ProcID) bool {
	p := k.procs[id]
	return p.state == stateBlocked && (p.wait == nil || p.wait())
}

// Steppable reports whether a Step of processor id would do any work:
// non-empty mailbox or a resumable algorithm.
func (k *Kernel) Steppable(id ProcID) bool {
	p := k.procs[id]
	if p.state == stateCrashed {
		return false
	}
	return len(p.mailbox) > 0 || k.Resumable(id)
}

// MailboxLen returns the number of delivered-but-unconsumed messages at
// processor id.
func (k *Kernel) MailboxLen(id ProcID) int { return len(k.procs[id].mailbox) }

// Participants lists the processors that were spawned with algorithms, in ID
// order.
func (k *Kernel) Participants() []ProcID {
	out := make([]ProcID, 0, k.participants)
	for _, p := range k.procs {
		if p.algo != nil {
			out = append(out, p.id)
		}
	}
	return out
}

// UnfinishedParticipants returns the number of participants that have
// neither returned nor crashed.
func (k *Kernel) UnfinishedParticipants() int {
	return k.participants - k.doneCount - k.crashedAlgos
}

// Published returns the adversary-visible state registered by processor id's
// algorithm via Proc.Publish, or nil.
func (k *Kernel) Published(id ProcID) any { return k.procs[id].published }

// LastFlip returns the value of processor id's most recent coin flip and the
// total number of flips it has performed. count is 0 before the first flip.
func (k *Kernel) LastFlip(id ProcID) (value, count int) {
	p := k.procs[id]
	return p.lastFlip, p.flipCount
}

// YieldCount reports how many times processor id's algorithm has parked at
// a yield point. Schedule explorers use it to advance algorithms one yield
// at a time.
func (k *Kernel) YieldCount(id ProcID) int { return k.procs[id].yieldCount }

// InflightCount returns the number of in-flight (sent, undelivered)
// messages.
func (k *Kernel) InflightCount() int { return len(k.liveIDs) }

// OldestInflight returns the globally oldest in-flight message ID.
func (k *Kernel) OldestInflight() (MsgID, bool) { return k.global.front(k.alive) }

// OldestInflightTo returns the oldest in-flight message addressed to
// processor id.
func (k *Kernel) OldestInflightTo(id ProcID) (MsgID, bool) {
	return k.toProc[id].front(k.alive)
}

// RandomInflight returns a uniformly random in-flight message ID, using the
// supplied PRNG. ok is false when nothing is in flight.
func (k *Kernel) RandomInflight(rng *rand.Rand) (MsgID, bool) {
	if len(k.liveIDs) == 0 {
		return 0, false
	}
	return k.liveIDs[rng.Intn(len(k.liveIDs))], true
}

// Inflight returns the message with the given ID, or nil if it is not in
// flight. The adversary may read the payload; it must not mutate it.
func (k *Kernel) Inflight(id MsgID) *Message { return k.msgs[id] }

// EachInflight visits every in-flight message in send order until fn returns
// false.
func (k *Kernel) EachInflight(fn func(*Message) bool) {
	k.global.each(k.alive, func(id MsgID) bool {
		return fn(k.msgs[id])
	})
}

// EachInflightTo visits the in-flight messages addressed to id, oldest
// first, until fn returns false.
func (k *Kernel) EachInflightTo(id ProcID, fn func(*Message) bool) {
	k.toProc[id].each(k.alive, func(mid MsgID) bool {
		return fn(k.msgs[mid])
	})
}

// EachInflightFrom visits the in-flight messages sent by id, oldest first,
// until fn returns false.
func (k *Kernel) EachInflightFrom(id ProcID, fn func(*Message) bool) {
	k.fromProc[id].each(k.alive, func(mid MsgID) bool {
		return fn(k.msgs[mid])
	})
}

// Stats returns a snapshot of the run statistics so far. It deep-copies the
// per-processor slices; adversaries polling a single counter every action
// should use the cheap accessors below instead.
func (k *Kernel) Stats() Stats { return k.stats.clone() }

// MessagesSent returns the total number of messages sent so far (cheap).
func (k *Kernel) MessagesSent() int64 { return k.stats.MessagesSent }

// ActionCount returns the number of adversary actions applied so far
// (cheap).
func (k *Kernel) ActionCount() int64 { return k.stats.Actions }

// CommCallsOf returns processor id's communicate-call count so far (cheap).
func (k *Kernel) CommCallsOf(id ProcID) int { return k.stats.CommCalls[id] }

// FaultBudget returns how many additional crashes the model permits.
func (k *Kernel) FaultBudget() int { return k.maxFaults - k.stats.Crashes }

// FairAction exposes the kernel's built-in fair scheduling decision so
// adversary strategies can fall back to it for the parts of the schedule
// they do not care about. Returns nil when nothing is enabled.
func (k *Kernel) FairAction() Action { return k.fairAction() }

// FairActionExcludingStarts is FairAction restricted to deliveries and
// steps: it never starts a participant's invocation, leaving invocation
// timing to the adversary. Returns nil when nothing else is enabled.
func (k *Kernel) FairActionExcludingStarts() Action { return k.fairActionNoStart() }

// FairStepAction returns a fair Step action only — no deliveries, no starts
// — or nil when no processor has step work. Strategies that filter
// deliveries themselves use it to schedule computation without the kernel
// delivering embargoed messages on their behalf.
func (k *Kernel) FairStepAction() Action { return k.fairStepAction() }
