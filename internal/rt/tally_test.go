package rt

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// deliver is a substrate's reply path: judge and count under the lock, wake
// after it. abort makes a reply that counts abort the call instead, as
// electd's busy answer does.
func deliver[R any](mu sync.Locker, tl *Tally[R], call uint64, from int, r R, abort bool) Verdict {
	mu.Lock()
	v := tl.Judge(call, from)
	done := false
	if v == Counts {
		if abort {
			tl.Abort(from)
			done = true
		} else {
			done = tl.Add(from, r)
		}
	}
	mu.Unlock()
	if done {
		tl.Wake()
	}
	return v
}

// TestTallyContract walks one tally through the rules every substrate's
// quorum call rests on, row by row: a reply counts only while the tally is
// open for its own call, its sender is a server not yet counted and the
// call is short of its quorum; the loss hook draws once per such reply and
// never for another; a sender whose reply was lost can still count on a
// resend; a call completes once, by its quorum or an abort, with one token;
// and a call given up is closed — complete, its token taken, when the
// quorum landed as it gave up.
func TestTallyContract(t *testing.T) {
	const n, need = 9, 4
	var mu sync.Mutex
	var tl Tally[int]
	tl.Reset(n, need)
	var drew []int         // the senders the loss hook drew for, since the last row
	lost := map[int]bool{} // senders whose next draw loses
	lose := func(from int) bool {
		drew = append(drew, from)
		l := lost[from]
		delete(lost, from)
		return l
	}
	const (
		open   = iota // open the tally for call
		reply         // deliver from's reply to call
		abort         // deliver from's reply to call, aborting it if it counts
		take          // take the token
		giveUp        // give the call up; want is Counts when it is complete
	)
	abortedBy := -1 // the sender whose reply aborted the open call
	for _, r := range []struct {
		what    string
		op      int
		call    uint64
		from    int
		want    Verdict
		drew    []int // the senders drawn for
		counted []int // the senders counted after the row, in order
		tokens  int   // tokens waiting after the row
	}{
		{what: "a reply to a closed tally", op: reply, call: 1, from: 1, want: Stray},
		{what: "open call 7", op: open, call: 7},
		{what: "a first reply", op: reply, call: 7, from: 1, want: Counts, drew: []int{1}, counted: []int{1}},
		{what: "its sender again", op: reply, call: 7, from: 1, want: Stray, counted: []int{1}},
		{what: "a straggler of an earlier call", op: reply, call: 6, from: 2, want: Stray, counted: []int{1}},
		{what: "a reply to a call not opened", op: reply, call: 8, from: 2, want: Stray, counted: []int{1}},
		{what: "a reply to call 0", op: reply, call: 0, from: 2, want: Stray, counted: []int{1}},
		{what: "a sender below the servers", op: reply, call: 7, from: -1, want: Stray, counted: []int{1}},
		{what: "a sender past the servers", op: reply, call: 7, from: n, want: Stray, counted: []int{1}},
		{what: "a reply the link loses", op: reply, call: 7, from: 2, want: Lost, drew: []int{2}, counted: []int{1}},
		{what: "the lost sender's resend", op: reply, call: 7, from: 2, want: Counts, drew: []int{2}, counted: []int{1, 2}},
		{what: "one short of the quorum", op: reply, call: 7, from: 3, want: Counts, drew: []int{3}, counted: []int{1, 2, 3}},
		{what: "the quorum's last reply", op: reply, call: 7, from: 4, want: Counts, drew: []int{4}, counted: []int{1, 2, 3, 4}, tokens: 1},
		{what: "a reply past the quorum", op: reply, call: 7, from: 5, want: Stray, counted: []int{1, 2, 3, 4}, tokens: 1},
		{what: "a busy reply past the quorum", op: abort, call: 7, from: 6, want: Stray, counted: []int{1, 2, 3, 4}, tokens: 1},
		{what: "the caller takes the token", op: take, counted: []int{1, 2, 3, 4}},
		{what: "open call 8", op: open, call: 8},
		{what: "a straggler of call 7", op: reply, call: 7, from: 5, want: Stray},
		{what: "call 8's first reply", op: reply, call: 8, from: 5, want: Counts, drew: []int{5}, counted: []int{5}},
		{what: "a busy reply inside the wait", op: abort, call: 8, from: 1, want: Counts, drew: []int{1}, counted: []int{5}, tokens: 1},
		{what: "a reply after the abort", op: reply, call: 8, from: 2, want: Stray, counted: []int{5}, tokens: 1},
		{what: "a second busy reply", op: abort, call: 8, from: 3, want: Stray, counted: []int{5}, tokens: 1},
		{what: "the caller takes the abort's token", op: take, counted: []int{5}},
		{what: "open call 9", op: open, call: 9},
		{what: "call 9's first reply", op: reply, call: 9, from: 6, want: Counts, drew: []int{6}, counted: []int{6}},
		{what: "call 9 given up short", op: giveUp, counted: []int{6}},
		{what: "a reply after the give-up", op: reply, call: 9, from: 7, want: Stray, counted: []int{6}},
		{what: "open call 10", op: open, call: 10},
		{what: "call 10's reply 1", op: reply, call: 10, from: 1, want: Counts, drew: []int{1}, counted: []int{1}},
		{what: "call 10's reply 2", op: reply, call: 10, from: 2, want: Counts, drew: []int{2}, counted: []int{1, 2}},
		{what: "call 10's reply 3", op: reply, call: 10, from: 3, want: Counts, drew: []int{3}, counted: []int{1, 2, 3}},
		{what: "call 10's quorum lands as it gives up", op: reply, call: 10, from: 4, want: Counts, drew: []int{4}, counted: []int{1, 2, 3, 4}, tokens: 1},
		{what: "call 10 given up complete", op: giveUp, want: Counts, counted: []int{1, 2, 3, 4}},
		{what: "a reply after that give-up", op: reply, call: 10, from: 5, want: Stray, counted: []int{1, 2, 3, 4}},
	} {
		drew = nil
		switch r.op {
		case open:
			if r.call == 7 {
				lost[2] = true // sender 2's first reply to call 7 dies on the way
			}
			mu.Lock()
			tl.Open(&mu, r.call, lose)
			mu.Unlock()
			abortedBy = -1
		case reply, abort:
			v := deliver(&mu, &tl, r.call, r.from, r.from, r.op == abort)
			if v != r.want {
				t.Fatalf("%s: verdict %d, want %d", r.what, v, r.want)
			}
			if v == Counts && r.op == abort {
				abortedBy = r.from
			}
		case take:
			<-tl.token()
		case giveUp:
			if done := tl.giveUp(); done != (r.want == Counts) {
				t.Fatalf("%s: giveUp reports complete=%v", r.what, done)
			}
		}
		if !slices.Equal(drew, r.drew) {
			t.Fatalf("%s: the loss hook drew for %v, want %v", r.what, drew, r.drew)
		}
		if got := tl.Replies(); !slices.Equal(got, r.counted) {
			t.Fatalf("%s: counted %v, want %v", r.what, got, r.counted)
		}
		if tl.Aborted() != (abortedBy >= 0) {
			t.Fatalf("%s: aborted=%v", r.what, tl.Aborted())
		}
		for j, s := range tl.seen {
			if want := slices.Contains(r.counted, j) || j == abortedBy; s != want {
				t.Fatalf("%s: sender %d answered=%v, want %v", r.what, j, s, want)
			}
		}
		if len(tl.sig) != r.tokens {
			t.Fatalf("%s: %d tokens waiting, want %d", r.what, len(tl.sig), r.tokens)
		}
	}
	if tl.call != 0 || tl.Aborted() {
		t.Fatalf("the last call given up left the tally open for %d (aborted=%v)", tl.call, tl.Aborted())
	}
}

// TestTallyWaitTakesTheLandedToken: through Schedule.Wait, a reliable call
// whose links all refuse gives up at once — and is complete when its
// quorum landed first, its token taken; short of it, it is not.
func TestTallyWaitTakesTheLandedToken(t *testing.T) {
	const n, need = 5, 3
	refuse := func(int) bool { return false }
	for _, landed := range []int{need, need - 1} {
		var mu sync.Mutex
		var tl Tally[int]
		tl.Reset(n, need)
		tl.Open(&mu, 1, nil)
		for j := range landed {
			deliver(&mu, &tl, 1, j, j, false)
		}
		s := NewSchedule(n, 0, -1, ThriftySlack, nil, 0, 1)
		s.Begin(refuse)
		if done := s.Wait(&tl, refuse, func(int, int) { t.Fatal("a call no link takes ticked") }); done != (landed == need) || len(tl.sig) != 0 || tl.call != 0 {
			t.Fatalf("%d of %d replies in: Wait = %v with %d tokens left, tally open for %d; want %v, none, closed",
				landed, need, done, len(tl.sig), tl.call, landed == need)
		}
	}
}

// TestTallyResetDrainsAndCloses: a tally reset after a call its goroutine
// unwound from — quorum in, token waiting, still open — is closed, holds
// no token, no reply and no hook, and keeps its arrays.
func TestTallyResetDrainsAndCloses(t *testing.T) {
	var mu sync.Mutex
	var tl Tally[*int]
	tl.Reset(4, 2)
	seen, got := &tl.seen[0], &tl.got[:1][0]
	tl.Open(&mu, 3, func(int) bool { return false })
	for j := range 2 {
		deliver(&mu, &tl, 3, j, new(int), false)
	}
	tl.Reset(4, 2)
	if tl.call != 0 || len(tl.sig) != 0 || len(tl.got) != 0 || tl.got[:1][0] != nil || tl.lose != nil || tl.mu != nil || slices.Contains(tl.seen, true) {
		t.Fatalf("reset tally: open for %d, %d tokens, replies %v, hook %v, lock %v, answered %v",
			tl.call, len(tl.sig), tl.got[:2], tl.lose != nil, tl.mu != nil, tl.seen)
	}
	if &tl.seen[0] != seen || &tl.got[:1][0] != got {
		t.Fatal("Reset dropped an array it should keep")
	}
}

// TestTallyTorture races deliverers against a caller that opens call after
// call and waits out or gives up each, at GOMAXPROCS ≥ 4 (run it under
// -race). Deliverers answer the call open now, the one before it and one
// not opened yet, from servers and from senders outside them, and now and
// then abort a call, as a busy reply does. No call may count more than need
// replies, or one to another call, or one sender twice; every call the
// caller saw complete sent exactly one token and every other none; and the
// loss hook drew once per reply Judge said Counts or Lost.
//
// The lock argument: every field but sig is read and written only under mu
// (Open, Judge, Add, Abort, giveUp; Replies and the checks below once the
// caller holds the token or mu). A call sends a token only from the Add
// that brought it to need or from an Abort, each after a Counts verdict,
// which a complete call never gives — so at most one per opened call, sent
// after its unlock. The caller opens the next call only once that token is
// taken or giveUp has closed the call under mu, after which nothing counts
// toward it: no token of one call can be taken as another's.
func TestTallyTorture(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 4 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	}
	const n, need, calls, deliverers = 9, 4, 3000, 6
	var mu sync.Mutex
	var tl Tally[int]
	tl.Reset(n, need)
	var opened atomic.Uint64 // the call opened last
	var stop atomic.Bool
	// Under mu.
	wakes := make([]int, calls+2)
	draws, judged := 0, 0
	jit := uint64(1)
	lose := func(int) bool {
		draws++
		jit ^= jit << 13
		jit ^= jit >> 7
		jit ^= jit << 17
		return jit%4 == 0
	}
	var wg sync.WaitGroup
	for d := range deliverers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(d)))
			for !stop.Load() {
				call := opened.Load() + uint64(rng.Intn(3)) - 1 // the one before, this one or the next
				from := rng.Intn(n+2) - 1
				mu.Lock()
				v := tl.Judge(call, from)
				done := false
				switch v {
				case Counts:
					judged++
					if rng.Intn(32) == 0 {
						tl.Abort(from)
						done = true
					} else {
						done = tl.Add(from, int(call)*n+from)
					}
				case Lost:
					judged++
				}
				if done {
					wakes[call]++
				}
				mu.Unlock()
				if done {
					tl.Wake()
				}
				if rng.Intn(4) == 0 {
					runtime.Gosched()
				}
			}
		}()
	}
	complete := make([]bool, calls+2)
	for call := uint64(1); call <= calls; call++ {
		mu.Lock()
		tl.Open(&mu, call, lose)
		mu.Unlock()
		opened.Store(call)
		if call%3 == 0 {
			complete[call] = tl.giveUp() // races the deliverers to the quorum
		} else {
			select {
			case <-tl.token():
				complete[call] = true
			case <-time.After(10 * time.Second):
				t.Fatalf("call %d never completed", call)
			}
		}
		mu.Lock()
		got, cut := tl.Replies(), tl.Aborted()
		if len(got) > need || complete[call] != (cut || len(got) == need) {
			mu.Unlock()
			t.Fatalf("call %d: complete=%v with %d replies counted (aborted=%v), need %d", call, complete[call], len(got), cut, need)
		}
		seen := make([]bool, n)
		for _, r := range got {
			if from := r % n; uint64(r/n) != call || seen[from] {
				mu.Unlock()
				t.Fatalf("call %d counted %v: a reply to another call, or a sender twice", call, got)
			} else {
				seen[from] = true
			}
		}
		mu.Unlock()
	}
	stop.Store(true)
	wg.Wait()
	for call := 1; call <= calls; call++ {
		want := 0
		if complete[call] {
			want = 1
		}
		if wakes[call] != want {
			t.Fatalf("call %d (complete=%v) sent %d tokens, want %d", call, complete[call], wakes[call], want)
		}
	}
	if wakes[0] != 0 || wakes[calls+1] != 0 || len(tl.sig) != 0 {
		t.Fatalf("tokens for calls never opened: %d and %d; %d left waiting", wakes[0], wakes[calls+1], len(tl.sig))
	}
	if draws != judged {
		t.Fatalf("the loss hook drew %d times for %d replies judged Counts or Lost", draws, judged)
	}
}
