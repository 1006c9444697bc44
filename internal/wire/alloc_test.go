//go:build !race

package wire

import "testing"

// The wire layer's share of the socket path's per-message allocation
// budget (ROADMAP aim 1, item b), gated in steady state. The race detector
// makes sync.Pool drop items at random, so these run without it.
const (
	// bufCycleAllocs: one GetBuf→PutBuf cycle. Measured 0 — the pool
	// stores pointer-shaped holders and recycles them.
	bufCycleAllocs = 0
	// warmViewAllocs: a warm Decoder decoding a 32-entry status view it has
	// seen before, the message then released as Client.Collect releases it
	// (PutMsg: the view keeps the entries). Measured 1 — the entry array;
	// the 32 statuses, their lists and the register name all come from the
	// tables. The table-less Decode of the same body makes 66.
	warmViewAllocs = 2
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

func TestWarmDecoderViewAllocs(t *testing.T) {
	body := statusView(t, 32)
	var dec Decoder
	decode := func() {
		m, err := dec.Decode(body)
		if err != nil {
			t.Fatal(err)
		}
		PutMsg(m)
	}
	decode() // first decode fills the tables
	got := testing.AllocsPerRun(1000, decode)
	if got > warmViewAllocs {
		t.Fatalf("warm decode of a 32-entry status view: %v allocs, budget %d", got, warmViewAllocs)
	}
}
