package rt

import "sync"

// Verdict is what a Tally says of one reply (Judge).
type Verdict uint8

const (
	// Stray: the reply cannot count — a straggler of another call, one past
	// the quorum, a repeat answer, a sender that is no server. Nothing drew.
	Stray Verdict = iota
	// Lost: the reply would have counted, and the loss hook dropped it.
	Lost
	// Counts: the caller Adds the reply, or Aborts the call, before it
	// unlocks — or leaves it uncounted, as a reply it cannot read.
	Counts
)

// Tally is a caller's count of its quorum calls' replies, reused call after
// call: the one answer, on every substrate, to "does this reply count, and
// is the call complete?". A call returns on need distinct senders and
// nothing else — the rule every safety proof of the paper rests on.
//
// A reply counts only while the tally is open for the reply's own call, its
// sender is one of the n servers and has not been counted, and the call is
// short of its quorum; then, once, the loss hook decides whether it died on
// the way back, as it would on a real wire. So stragglers, repeats, replies
// past the quorum and forged senders die uncounted and draw nothing, while
// a dropped sender's resent reply can still count. Call ordinals are unique
// over the tally's life, never 0, so a reopened tally refuses every reply
// to an old call.
//
// A call completes once — its need-th counted reply, or a reply that aborts
// it (electd's busy answer) before that — and its completing deliverer hands
// the caller the call's one token, into a one-slot channel the caller has
// emptied before it opens the next call: nothing blocks, and no token
// outlives its call. A call given up on is closed under the lock
// (Schedule.Wait): complete if its quorum landed as it gave up, its token
// taken, and otherwise never.
//
// The tally has no lock of its own: the lock the substrate already takes to
// route a reply guards it (the handle's on chan, the call's stripe lock on
// electd), named at Open. Judge, Add and Abort run under it, Wake after it;
// Schedule.Wait takes it to copy the answered set at a tick and to close a
// call it gives up on.
type Tally[R any] struct {
	mu   sync.Locker         // the substrate's lock, which guards all but sig
	call uint64              // the call the tally is open for; 0 = none
	need int                 // counted replies that complete a call
	seen []bool              // [sender]: counted, or aborted the call
	got  []R                 // the counted replies in arrival order, at most need
	cut  bool                // the call was aborted short of its quorum
	lose func(from int) bool // reply loss; nil = none
	sig  chan struct{}       // one slot: the completing reply's one token
}

// Reset readies t for calls that complete on need replies from n senders,
// keeping its arrays and channel when they fit and draining a token a call
// its goroutine unwound from left behind; then it is Released. No call may
// be in progress and no deliverer at work.
func (t *Tally[R]) Reset(n, need int) {
	if len(t.seen) != n || cap(t.got) < need {
		t.seen, t.got = make([]bool, n), make([]R, 0, need)
	}
	if t.sig == nil {
		t.sig = make(chan struct{}, 1)
	}
	select {
	case <-t.sig:
	default:
	}
	t.Release()
	t.need = need
}

// Release closes the tally and drops what the last call left — replies,
// answers, loss hook and lock — so a parked tally pins nothing and counts
// nothing more. The call's token must be taken, and no deliverer at work.
func (t *Tally[R]) Release() {
	clear(t.got[:cap(t.got)])
	t.Open(nil, 0, nil)
}

// Open starts counting for call, under mu — held by the caller, unless no
// deliverer can reach the tally yet — with lose as its reply-loss hook (nil:
// none). The call before must have ended: its token taken, or given up.
func (t *Tally[R]) Open(mu sync.Locker, call uint64, lose func(from int) bool) {
	t.mu, t.call, t.lose = mu, call, lose
	t.got, t.cut = t.got[:0], false
	clear(t.seen)
}

// Judge says whether a reply to call from sender from counts, drawing the
// loss hook once when it would. The caller holds the tally's lock.
func (t *Tally[R]) Judge(call uint64, from int) Verdict {
	if call == 0 || call != t.call || t.complete() || from < 0 || from >= len(t.seen) || t.seen[from] {
		return Stray
	}
	if t.lose != nil && t.lose(from) {
		return Lost
	}
	return Counts
}

// Add counts r, from sender from, whose reply Judge said Counts, and
// reports whether it completed the call: the caller then Wakes it, after
// unlocking.
func (t *Tally[R]) Add(from int, r R) bool {
	t.seen[from] = true
	t.got = append(t.got, r)
	return len(t.got) == t.need
}

// Abort completes the call short of its quorum on sender from's reply,
// which Judge said Counts: the caller Wakes it, after unlocking.
func (t *Tally[R]) Abort(from int) { t.seen[from], t.cut = true, true }

// Wake hands the caller the token of the call Add or Abort completed.
func (t *Tally[R]) Wake() { t.sig <- struct{}{} }

// Replies returns the counted replies, valid until the next Open. Read it
// once the call is complete, or under the tally's lock; Aborted too.
func (t *Tally[R]) Replies() []R { return t.got }

// Aborted reports whether the call was aborted short of its quorum.
func (t *Tally[R]) Aborted() bool { return t.cut }

func (t *Tally[R]) complete() bool { return t.cut || len(t.got) >= t.need }

// answers is what a Schedule reads of its call's Tally, whatever the
// replies' type (a method takes no type parameter): the token, a tick's
// copy of the answered set and how many answered, the give-up, and the
// answered set of a complete call.
type answers interface {
	token() <-chan struct{}
	heard(into []bool) int
	giveUp() bool
	answered() []bool
}

func (t *Tally[R]) token() <-chan struct{} { return t.sig }
func (t *Tally[R]) answered() []bool       { return t.seen }

func (t *Tally[R]) heard(into []bool) int {
	t.mu.Lock()
	copy(into, t.seen)
	t.mu.Unlock()
	heard := 0
	for _, a := range into {
		if a {
			heard++
		}
	}
	return heard
}

// giveUp closes the call and reports whether it is complete all the same —
// its quorum, or an abort, landed as it gave up — taking its token, which
// is then on the way.
func (t *Tally[R]) giveUp() bool {
	t.mu.Lock()
	done := t.complete()
	t.call = 0
	t.mu.Unlock()
	if done {
		<-t.sig
	}
	return done
}
