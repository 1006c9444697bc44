package transport

import (
	"sync"
	"sync/atomic"
)

// sendQueueDepth bounds every connection's outbound queue; a full queue
// backpressures Send, mirroring socket buffers. It equals maxCoalesce, so
// one take — the whole queue — is at most one write-loop drain.
const sendQueueDepth = maxCoalesce

// sendQueue is the one hand-off between the goroutines that send on a
// connection and the loop that drains it (a stream or UDP write loop): many
// producers, one consumer, per-producer FIFO. A put is one mutex-guarded
// append and wakes the consumer only if it is parked; a take swaps the
// whole slice out, so however many frames queued while the last write was
// in flight cost the consumer one lock and no wake-up. A held put (hold)
// appends without the wake-up, so the producers of one burst can fill the
// queue before its one drain; a kick wakes the consumer for what they held.
//
// No wake-up is lost, and none is spare. The consumer sets idle only under
// mu, after finding the queue empty and open, and only then parks on wake.
// A put appends and reads idle under the same mu, so it runs either before
// that check — the consumer sees its item — or after it, finds idle set,
// clears it and sends the token. Whoever clears idle sends exactly one
// token, and the consumer cannot set idle again before it has received
// that token, so at most one is ever outstanding: the one-slot channel
// never blocks its sender, whether or not the consumer has reached its
// receive yet. close follows the same protocol as a put, and so does kick,
// which clears idle only when items are queued. A held put leaves idle as
// it found it, so the consumer may stay parked with items queued: those
// wait for the next put, kick or close, which finds idle set and sends the
// token. A held put that fills the queue, or had to wait for room, wakes
// the consumer like a put: producers block only on a full queue, and only a
// running consumer makes room.
type sendQueue[T any] struct {
	// drop disposes of an item the queue will never deliver: one refused by
	// a closed queue, or still queued when it closes. Set before first use.
	drop func(T)

	mu     sync.Mutex
	items  []T
	idle   bool          // the consumer is parked on wake, or about to
	closed atomic.Bool   // written under mu; read loops check it lock-free
	wake   chan struct{} // one slot: the consumer's parking place
	space  sync.Cond     // producers blocked on a full queue; L is &mu
}

func newSendQueue[T any](drop func(T)) *sendQueue[T] {
	q := &sendQueue[T]{drop: drop, wake: make(chan struct{}, 1)}
	q.space.L = &q.mu
	return q
}

// put enqueues v, blocking while the queue is full, wakes the consumer if
// it is parked, and reports the depth it found. A closed queue refuses
// every item — checked under the lock, so never at random — and disposes
// of it.
func (q *sendQueue[T]) put(v T) (depth int, err error) { return q.enqueue(v, true) }

// hold is put without the wake-up: a parked consumer stays parked, and v
// waits for the next put, kick or close — unless v fills the queue, or the
// queue was full when hold came, and then it wakes the consumer as put
// does.
func (q *sendQueue[T]) hold(v T) (depth int, err error) { return q.enqueue(v, false) }

func (q *sendQueue[T]) enqueue(v T, wake bool) (depth int, err error) {
	q.mu.Lock()
	for len(q.items) >= sendQueueDepth && !q.closed.Load() {
		wake = true
		q.space.Wait()
	}
	if q.closed.Load() {
		q.mu.Unlock()
		q.drop(v)
		return 0, ErrClosed
	}
	depth = len(q.items)
	q.items = append(q.items, v)
	wake = (wake || len(q.items) == sendQueueDepth) && q.idle
	if wake {
		q.idle = false
	}
	q.mu.Unlock()
	if wake {
		q.wake <- struct{}{}
	}
	return depth, nil
}

// kick wakes the consumer if it is parked with items queued: those a hold
// left behind.
func (q *sendQueue[T]) kick() {
	q.mu.Lock()
	wake := q.idle && len(q.items) > 0
	if wake {
		q.idle = false
	}
	q.mu.Unlock()
	if wake {
		q.wake <- struct{}{}
	}
}

// take blocks until items are queued and returns all of them, in order, or
// false once the queue is closed. prev is the slice the previous take
// returned, which the caller has finished with: it is cleared — a drained
// frame's buffer belongs to the pool again, and a stale reference here
// would pin it past every GC — and becomes the queue's next backing array,
// so two arrays alternate and steady state allocates nothing.
func (q *sendQueue[T]) take(prev []T) ([]T, bool) {
	clear(prev)
	for {
		q.mu.Lock()
		if q.closed.Load() {
			q.mu.Unlock()
			return nil, false
		}
		if batch := q.items; len(batch) > 0 {
			q.items = prev[:0]
			q.mu.Unlock()
			if len(batch) == sendQueueDepth {
				q.space.Broadcast() // producers block only on a full queue
			}
			return batch, true
		}
		q.idle = true
		q.mu.Unlock()
		<-q.wake
	}
}

// close refuses every later put, releases the blocked ones and the parked
// consumer, and disposes of what was still queued. Idempotent.
func (q *sendQueue[T]) close() {
	q.mu.Lock()
	if q.closed.Load() {
		q.mu.Unlock()
		return
	}
	q.closed.Store(true)
	items := q.items
	q.items = nil
	wake := q.idle
	q.idle = false
	q.mu.Unlock()
	if wake {
		q.wake <- struct{}{}
	}
	q.space.Broadcast()
	for _, v := range items {
		q.drop(v)
	}
}
