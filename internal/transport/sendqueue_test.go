package transport

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// item is what the queue tests enqueue: producer and per-producer sequence
// number, behind a pointer so stale references are visible.
type item struct{ producer, seq int }

func newItemQueue(dropped *atomic.Int64) *sendQueue[*item] {
	return newSendQueue(func(*item) {
		if dropped != nil {
			dropped.Add(1)
		}
	})
}

// blockedPuts starts k producers on a queue the caller has filled and
// returns once all of them are parked inside put, plus the channel their
// results arrive on.
func blockedPuts(t *testing.T, q *sendQueue[*item], k int) <-chan error {
	t.Helper()
	errs := make(chan error, k)
	for i := 0; i < k; i++ {
		go func(i int) {
			_, err := q.put(&item{producer: i})
			errs <- err
		}(i)
	}
	// A producer parked in space.Wait has released mu with the queue still
	// full; poll until none of them can still be on its way there.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		select {
		case err := <-errs:
			t.Fatalf("a put into a full queue returned (%v) before any take", err)
		default:
		}
		if waiting() == k {
			return errs
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d producers blocked on the full queue", waiting(), k)
		}
	}
}

// waiting counts the goroutines parked in a sync.Cond.Wait — the blocked
// producers; nothing else in this package waits on a Cond. sync.Cond keeps
// no public count, so the goroutine dump is the only witness.
func waiting() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return bytes.Count(buf, []byte("sync.(*Cond).Wait("))
}

// TestSendQueueFIFOPerProducer: eight producers, one consumer; each
// producer's items come out in the order it put them, none lost or doubled.
func TestSendQueueFIFOPerProducer(t *testing.T) {
	const producers, each = 8, 20000
	q := newItemQueue(nil)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for s := 0; s < each; s++ {
				if _, err := q.put(&item{producer: p, seq: s}); err != nil {
					t.Errorf("put on an open queue: %v", err)
					return
				}
			}
		}(p)
	}
	next := make([]int, producers)
	var batch []*item
	for got := 0; got < producers*each; got += len(batch) {
		var ok bool
		if batch, ok = q.take(batch); !ok {
			t.Fatal("take reported an open queue closed")
		}
		if len(batch) > sendQueueDepth {
			t.Fatalf("take returned %d items, more than the queue's bound %d", len(batch), sendQueueDepth)
		}
		for _, it := range batch {
			if it.seq != next[it.producer] {
				t.Fatalf("producer %d: item %d came out where %d was due", it.producer, it.seq, next[it.producer])
			}
			next[it.producer]++
		}
	}
	wg.Wait()
}

// TestSendQueueBackpressure: the queue holds sendQueueDepth items and the
// next put blocks; one take makes room for every blocked producer, not
// just one of them.
func TestSendQueueBackpressure(t *testing.T) {
	const blocked = 5
	q := newItemQueue(nil)
	for i := 0; i < sendQueueDepth; i++ {
		if depth, err := q.put(&item{seq: i}); err != nil || depth != i {
			t.Fatalf("put %d: depth %d, %v", i, depth, err)
		}
	}
	errs := blockedPuts(t, q, blocked)
	batch, ok := q.take(nil)
	if !ok || len(batch) != sendQueueDepth {
		t.Fatalf("take returned %d items (open=%v), want the full queue of %d", len(batch), ok, sendQueueDepth)
	}
	for i := 0; i < blocked; i++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatalf("a producer released by take got %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of %d blocked producers proceeded after the take", i, blocked)
		}
	}
	if batch, ok = q.take(batch); !ok || len(batch) != blocked {
		t.Fatalf("second take returned %d items (open=%v), want the %d that were blocked", len(batch), ok, blocked)
	}
}

// TestSendQueueCloseReleasesProducers: close fails every blocked put with
// ErrClosed, refuses every later one, and disposes of each of those items
// and of everything still queued — nothing stays behind in a queue nobody
// drains.
func TestSendQueueCloseReleasesProducers(t *testing.T) {
	const blocked = 5
	var dropped atomic.Int64
	q := newItemQueue(&dropped)
	for i := 0; i < sendQueueDepth; i++ {
		q.put(&item{seq: i}) //nolint:errcheck // open queue with room
	}
	errs := blockedPuts(t, q, blocked)
	q.close()
	q.close() // idempotent
	for i := 0; i < blocked; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("a producer released by close got %v, want ErrClosed", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of %d blocked producers were released by close", i, blocked)
		}
	}
	for i := 0; i < 200; i++ {
		if _, err := q.put(&item{}); !errors.Is(err, ErrClosed) {
			t.Fatalf("put %d after close returned %v, want ErrClosed", i, err)
		}
	}
	if got, want := dropped.Load(), int64(sendQueueDepth+blocked+200); got != want {
		t.Fatalf("the closed queue disposed of %d items, want %d (queued + blocked + refused)", got, want)
	}
	if batch, ok := q.take(nil); ok || len(batch) != 0 {
		t.Fatalf("take on a closed queue returned %d items (open=%v)", len(batch), ok)
	}
}

// TestSendQueueCloseWakesConsumer: a consumer parked on an empty queue
// returns when the queue closes.
func TestSendQueueCloseWakesConsumer(t *testing.T) {
	q := newItemQueue(nil)
	done := make(chan bool)
	go func() {
		_, ok := q.take(nil)
		done <- ok
	}()
	for parked := false; !parked; runtime.Gosched() {
		q.mu.Lock()
		parked = q.idle
		q.mu.Unlock()
	}
	q.close()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("take on a closed queue reported it open")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("close did not wake the parked consumer")
	}
}

// TestSendQueueWakeups is the lost-wake-up torture: producers on other Ps
// put a million items one at a time at a consumer that parks whenever it
// finds the queue empty. Every put that found the consumer parked must
// have sent exactly one token (a second would block the producer on the
// one-slot channel, a missing one would park the consumer for good), so
// the run finishing at all is the check; under -race it is also the
// memory-order check of the idle flag and the slice hand-over.
func TestSendQueueWakeups(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	const producers, total = 2, 1_000_000
	q := newItemQueue(nil)
	var parks atomic.Int64
	for p := 0; p < producers; p++ {
		go func(p int) {
			it := &item{producer: p}
			for s := 0; s < total/producers; s++ {
				q.put(it) //nolint:errcheck // open queue
				if s%64 == 0 {
					runtime.Gosched() // let the consumer run dry and park
				}
			}
		}(p)
	}
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		var batch []*item
		for got := 0; got < total; got += len(batch) {
			q.mu.Lock()
			if len(q.items) == 0 {
				parks.Add(1) // this take will park (or race a put: close enough to count)
			}
			q.mu.Unlock()
			batch, _ = q.take(batch)
		}
	}()
	select {
	case <-finished:
	case <-time.After(120 * time.Second):
		q.mu.Lock()
		queued, idle := len(q.items), q.idle
		q.mu.Unlock()
		t.Fatalf("consumer stuck with %d items queued (idle=%v, token pending=%d): a wake-up was lost", queued, idle, len(q.wake))
	}
	if len(q.wake) != 0 {
		t.Fatal("a spare wake-up token was left behind")
	}
	if parks.Load() == 0 {
		t.Fatal("the consumer never found the queue empty: the torture exercised no wake-up")
	}
	t.Logf("%d items through %d empty-queue takes", total, parks.Load())
}

// TestSendQueueTakeDropsStaleReferences: once the consumer hands a batch
// back, neither of the queue's two backing arrays refers to its items —
// a drained frame's buffer has gone back to the pool and must not stay
// reachable from the drain slice, or it is pinned past every GC.
func TestSendQueueTakeDropsStaleReferences(t *testing.T) {
	q := newItemQueue(nil)
	var batch []*item
	for round := 0; round < 4; round++ {
		for i := 0; i <= round*3; i++ {
			q.put(&item{seq: i}) //nolint:errcheck // open queue
		}
		batch, _ = q.take(batch)
	}
	a := batch[:cap(batch)]
	q.put(&item{}) //nolint:errcheck // open queue
	batch, _ = q.take(batch)
	for i, it := range a {
		if it != nil {
			t.Fatalf("slot %d of the handed-back batch still refers to its item", i)
		}
	}
	b := batch[:cap(batch)]
	for i, it := range b[1:] {
		if it != nil {
			t.Fatalf("slot %d of the queue's other array still refers to an earlier item", i+1)
		}
	}
}

// TestSendQueueHeldTorture mixes waking puts, held puts and kicks from
// producers on four Ps with a close that the consumer issues at a random
// point of the run, or after the last item. Every item comes out exactly
// once — taken by the consumer or disposed of by the queue, never both,
// never twice — each producer's taken items are a prefix of what it put, in
// order, and the run finishing is the check that no producer stays blocked
// when held items fill the queue (a hold that filled it and left the
// consumer parked would block the next put forever) and that a kick
// delivers what was held before it.
func TestSendQueueHeldTorture(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const producers, each, rounds = 4, 3000, 24
	for round := 0; round < rounds; round++ {
		rng := rand.New(rand.NewSource(int64(round)))
		var taken, dropped [producers][each]atomic.Int32
		q := newSendQueue(func(it *item) { dropped[it.producer][it.seq].Add(1) })
		// Even rounds close once the consumer has taken a random share of
		// the items, odd rounds only after it has taken them all. Every
		// third round holds every item, so only the holds that fill the
		// queue wake the consumer before the producers' last kicks.
		closeAt := producers * each
		if round%2 == 0 {
			closeAt = rng.Intn(producers * each)
		}
		holdOnly := round%3 == 1

		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			seed := rng.Int63()
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				r := rand.New(rand.NewSource(seed))
				for s := 0; s < each; s++ {
					it := &item{producer: p, seq: s}
					switch op := r.Intn(8); {
					case holdOnly:
						q.hold(it) //nolint:errcheck // a closed queue disposes of it
					case op < 2:
						q.put(it) //nolint:errcheck // a closed queue disposes of it
					case op < 7:
						q.hold(it) //nolint:errcheck // a closed queue disposes of it
					default:
						q.hold(it) //nolint:errcheck // a closed queue disposes of it
						q.kick()
					}
					if s%128 == 0 {
						runtime.Gosched() // let the consumer run dry and park
					}
				}
				q.kick() // what this producer held goes out
			}(p)
		}

		consumed := make(chan struct{})
		go func() {
			defer close(consumed)
			next := make([]int, producers)
			var batch []*item
			got := 0
			for {
				var ok bool
				if batch, ok = q.take(batch); !ok {
					return
				}
				for _, it := range batch {
					taken[it.producer][it.seq].Add(1)
					if it.seq != next[it.producer] {
						t.Errorf("round %d: producer %d: item %d taken where %d was due", round, it.producer, it.seq, next[it.producer])
					}
					next[it.producer] = it.seq + 1
				}
				if got += len(batch); got >= closeAt {
					q.close() // disposes of what is queued before it returns
				}
			}
		}()

		finished := make(chan struct{})
		go func() {
			wg.Wait()
			close(finished)
		}()
		select {
		case <-finished:
		case <-time.After(60 * time.Second):
			q.mu.Lock()
			queued, idle := len(q.items), q.idle
			q.mu.Unlock()
			t.Fatalf("round %d: producers stuck with %d items queued (idle=%v, blocked in put=%d)", round, queued, idle, waiting())
		}
		// Every item is queued and kicked now, so the consumer takes on
		// until it closes the queue itself.
		select {
		case <-consumed:
		case <-time.After(60 * time.Second):
			q.mu.Lock()
			queued, idle := len(q.items), q.idle
			q.mu.Unlock()
			t.Fatalf("round %d: consumer parked with %d items queued (idle=%v): a held item was stranded", round, queued, idle)
		}
		for p := range taken {
			for s := range taken[p] {
				if tk, dr := taken[p][s].Load(), dropped[p][s].Load(); tk+dr != 1 {
					t.Fatalf("round %d: producer %d item %d taken %d times and dropped %d times, want once in all", round, p, s, tk, dr)
				}
			}
		}
		if len(q.wake) != 0 {
			t.Fatalf("round %d: a spare wake-up token was left behind", round)
		}
	}
}

// TestSendQueueHoldFillsAndWakes: holds into a queue whose consumer is
// parked leave it parked until a kick, except the hold that fills the
// queue, which wakes it — so sendQueueDepth+1 holds never block.
func TestSendQueueHoldFillsAndWakes(t *testing.T) {
	q := newItemQueue(nil)
	batches := make(chan int, 4)
	go func() {
		var batch []*item
		for {
			var ok bool
			if batch, ok = q.take(batch); !ok {
				close(batches)
				return
			}
			batches <- len(batch)
		}
	}()
	parked := func() {
		for idle := false; !idle; runtime.Gosched() {
			q.mu.Lock()
			idle = q.idle
			q.mu.Unlock()
		}
	}
	parked()
	for i := 0; i < 3; i++ {
		q.hold(&item{seq: i}) //nolint:errcheck // open queue with room
	}
	select {
	case n := <-batches:
		t.Fatalf("three holds woke the consumer (it took %d)", n)
	case <-time.After(20 * time.Millisecond):
	}
	q.kick()
	if n := <-batches; n != 3 {
		t.Fatalf("the kick delivered %d items, want the 3 held", n)
	}
	parked()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i <= sendQueueDepth; i++ {
			q.hold(&item{seq: i}) //nolint:errcheck // open queue
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("holds into a full queue blocked: the hold that filled it did not wake the consumer")
	}
	if n := <-batches; n != sendQueueDepth {
		t.Fatalf("the filling hold delivered %d items, want the full queue of %d", n, sendQueueDepth)
	}
	q.kick()
	if n := <-batches; n != 1 {
		t.Fatalf("the kick delivered %d items, want the 1 held after the full queue", n)
	}
	q.close()
	if _, open := <-batches; open {
		t.Fatal("the consumer took a batch after close")
	}
}
