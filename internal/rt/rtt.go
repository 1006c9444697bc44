package rt

import (
	"sync/atomic"
	"time"
)

// WidenFloor is the shortest widen tick an observed estimate may set. Below
// it the tick lands inside one goroutine wake-up on a loaded host, and a
// call that is merely late widens: on a 2-core host a 2 ms floor widened
// about 0.05 % of a fault-free n=32 chan election's calls.
const WidenFloor = 2 * time.Millisecond

// RTT estimates how long a thrifty call takes to reach its quorum, from the
// calls that did, the way TCP times its retransmissions (RFC 6298): a
// smoothed mean srtt and a mean deviation rttvar, each sample moving them by
// 1/8 and 1/4. A schedule that holds one widens after
// clamp(srtt + 4·rttvar, WidenFloor, WidenAfter) in place of the fixed
// WidenAfter. Karn's rule keeps the estimate honest: only a call that
// completed without widening is a sample, since a widened call's quorum may
// have come from its second wave and its time measures the tick, not the
// servers.
//
// One RTT serves every caller of a system, so it is shared between
// goroutines: both figures live in one word (srtt in the high 32 bits,
// rttvar in the low, nanoseconds, saturating at ≈4.3 s) that Observe
// replaces by compare-and-swap and Tick reads with one load. A reader never
// sees one caller's srtt beside another's rttvar. The zero value is cold: it
// has no sample and ticks at WidenAfter.
type RTT struct {
	v atomic.Uint64
}

// rttMax is the largest figure a half-word holds.
const rttMax = 1<<32 - 1

// Observe feeds the estimate one call's time to its quorum.
func (e *RTT) Observe(d time.Duration) {
	r := uint64(min(max(d, 1), rttMax)) // ≥ 1 ns, so a warm word is never 0
	for {
		old := e.v.Load()
		var srtt, rttvar uint64
		if old == 0 {
			srtt, rttvar = r, r/2
		} else {
			srtt, rttvar = old>>32, old&rttMax
			dev := r - srtt
			if r < srtt {
				dev = srtt - r
			}
			rttvar = rttvar - rttvar/4 + dev/4
			srtt = srtt - srtt/8 + r/8
			srtt = max(srtt, 1)
		}
		if e.v.CompareAndSwap(old, srtt<<32|rttvar) {
			return
		}
	}
}

// Tick is the widen tick the estimate sets: srtt + 4·rttvar, clamped to
// [WidenFloor, WidenAfter]; WidenAfter while the estimate is cold.
func (e *RTT) Tick() time.Duration {
	v := e.v.Load()
	if v == 0 {
		return WidenAfter
	}
	d := time.Duration(v>>32) + 4*time.Duration(v&rttMax)
	return min(max(d, WidenFloor), WidenAfter)
}
