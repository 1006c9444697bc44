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
	// warmViewAllocs: a warm Decoder decoding a 32-entry status view whose
	// values it has seen before but whose tail is new to the view memo (one
	// entry's sequence number moves every decode), the message then released
	// as Client.Collect releases it (PutMsg: the view keeps the entries).
	// Measured 1 — the entry array; the 32 statuses, their lists and the
	// register name all come from the tables. The table-less Decode of the
	// same body makes 66.
	warmViewAllocs = 2
	// repeatViewAllocs: the same decode when the tail repeats the previous
	// view of that register byte for byte — a view-memo hit. Measured 0:
	// one compare, and the table's entry array is handed out again.
	repeatViewAllocs = 0
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

// warmViewDecode returns a 32-entry status view body and a function that
// decodes it on one warm Decoder and releases the message as
// Client.Collect does.
func warmViewDecode(t *testing.T) (body []byte, decode func()) {
	body = statusView(t, 32)
	var dec Decoder
	decode = func() {
		m, err := dec.Decode(body)
		if err != nil {
			t.Fatal(err)
		}
		PutMsg(m)
	}
	decode() // first decode fills the tables
	return body, decode
}

func TestWarmDecoderViewAllocs(t *testing.T) {
	body, decode := warmViewDecode(t)
	// The body ends in the last entry's one-byte sequence number and its
	// four-byte value (tag, stat, count 1, one id). Alternating that
	// sequence number makes every tail differ from the remembered one while
	// every value stays interned.
	seq := len(body) - 5
	got := testing.AllocsPerRun(1000, func() {
		body[seq] ^= 1
		decode()
	})
	if got > warmViewAllocs {
		t.Fatalf("warm decode of a changed 32-entry status view: %v allocs, budget %d", got, warmViewAllocs)
	}
}

func TestRepeatViewDecodeAllocs(t *testing.T) {
	_, decode := warmViewDecode(t)
	if got := testing.AllocsPerRun(1000, decode); got > repeatViewAllocs {
		t.Fatalf("repeat decode of a 32-entry status view: %v allocs, budget %d", got, repeatViewAllocs)
	}
}
