//go:build !race

package wire

import (
	"runtime"
	"testing"
)

// The wire layer's share of the socket path's per-message allocation
// budget (ROADMAP aim 1, item b), gated in steady state. The race detector
// makes sync.Pool drop items at random, so these run without it.
const (
	// bufCycleAllocs: one GetBuf→PutBuf cycle. Measured 0 — the pool
	// stores pointer-shaped holders and recycles them.
	bufCycleAllocs = 0
	// warmViewAllocs: DecodeShared of a 32-entry status view whose values
	// the cache holds but whose tail the view memo has never seen (one
	// entry's sequence number is new every decode), the message then
	// released as Client.Collect releases it (PutMsg: the view keeps the
	// entries). Measured 1 — the entry array; the 32 statuses, their lists
	// and the register name all come from the cache, and the memo copies
	// the key into a slot buffer it already has. The cache-less Decode of
	// the same body makes 66.
	warmViewAllocs = 2
	// repeatViewAllocs: the same decode when the view repeats one the memo
	// holds. Measured 0: one hash, one compare, and the memo's entry array
	// is handed out again.
	repeatViewAllocs = 0
	// crossStreamViewAllocs: a view one read loop decoded first, arriving
	// on another. Measured 0 — the memo is process-wide, so the second
	// connection's first copy is already a repeat; with a memo per
	// connection it cost what warmViewAllocs does.
	crossStreamViewAllocs = 0
)

func TestBufPoolCycleAllocs(t *testing.T) {
	got := testing.AllocsPerRun(1000, func() {
		b := GetBuf()
		b = append(b, 1, 2, 3)
		PutBuf(b)
	})
	if got > bufCycleAllocs {
		t.Fatalf("GetBuf→PutBuf cycle: %v allocs, budget %d", got, bufCycleAllocs)
	}
}

// releaseView decodes body through the cache and releases the message as
// Client.Collect does.
func releaseView(t *testing.T, body []byte) {
	m, err := DecodeShared(body)
	if err != nil {
		t.Fatal(err)
	}
	PutMsg(m)
}

func TestWarmDecoderViewAllocs(t *testing.T) {
	// 1001 tails the memo has not seen (AllocsPerRun's warm-up run takes
	// the first), over the same 32 values.
	bodies := make([][]byte, 1001)
	base := freshSeq()
	for i := range bodies {
		bodies[i] = statusViewSeq(t, 32, base+uint64(i))
	}
	releaseView(t, statusView(t, 32)) // the values and the name
	next := 0
	got := testing.AllocsPerRun(1000, func() {
		releaseView(t, bodies[next])
		next++
	})
	if got > warmViewAllocs {
		t.Fatalf("warm decode of a new 32-entry status view: %v allocs, budget %d", got, warmViewAllocs)
	}
}

func TestRepeatViewDecodeAllocs(t *testing.T) {
	body := statusView(t, 32)
	releaseView(t, body)
	if got := testing.AllocsPerRun(1000, func() { releaseView(t, body) }); got > repeatViewAllocs {
		t.Fatalf("repeat decode of a 32-entry status view: %v allocs, budget %d", got, repeatViewAllocs)
	}
}

func TestCrossStreamViewAllocs(t *testing.T) {
	const views = 100
	releaseView(t, statusView(t, 32)) // the values, the name, a pooled message
	var mallocs uint64
	for i := range views {
		body := statusViewSeq(t, 32, freshSeq()+uint64(i))
		done := make(chan error)
		go func() { // stream A
			m, err := DecodeShared(body)
			if err == nil {
				PutMsg(m)
			}
			done <- err
		}()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		releaseView(t, body) // stream B
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
	}
	if got := mallocs / views; got > crossStreamViewAllocs {
		t.Fatalf("a view decoded on one stream, then on another: %d allocs there, budget %d", got, crossStreamViewAllocs)
	}
}
