package sim

// Stats aggregates the complexity measures of one kernel run.
//
// MessagesSent is the paper's message-complexity metric: every point-to-point
// message, including acknowledgments, is counted once when sent. The time
// metric follows Claim 2.1: an algorithm whose processors each perform at
// most T communicate calls has time complexity O(T), so MaxCommunicateCalls
// is the reported time measure. Communicate calls are recorded by the quorum
// layer through Proc.NoteCommunicate.
type Stats struct {
	// N is the system size (total processors, participants or not).
	N int

	// Participants is the number of spawned protocol participants (the
	// paper's k).
	Participants int

	// MessagesSent counts every message sent, acknowledgments included.
	MessagesSent int64

	// PayloadBytes accumulates WireSize over all sent payloads that
	// implement WireSizer (bit-complexity accounting).
	PayloadBytes int64

	// Deliveries and Steps count the adversary's Deliver and Step actions.
	Deliveries int64
	Steps      int64

	// Starts counts protocol invocations performed so far.
	Starts int

	// Crashes counts failed processors.
	Crashes int

	// CommCalls is the number of communicate calls performed by each
	// processor (indexed by ProcID).
	CommCalls []int

	// SentBy and ReceivedBy count messages sent and delivered per processor
	// (indexed by ProcID). Used by the lower-bound experiments, which argue
	// about the per-processor send+receive load (Theorem B.2).
	SentBy     []int64
	ReceivedBy []int64

	// Actions is the total number of adversary actions applied.
	Actions int64

	// VirtualTime is the execution makespan under the paper's timing model
	// (Section 2) with t1 = t2 = 1: message delivery costs one unit, each
	// computation step one unit, and the total is the longest causal chain
	// of the scheduled execution. Claim 2.1 predicts VirtualTime = Θ(max
	// communicate calls) for quorum-based algorithms; the kernel reports
	// both so the claim itself is checkable.
	VirtualTime int64
}

// MaxCommunicateCalls returns the maximum number of communicate calls any
// single processor performed: the time-complexity measure of Claim 2.1.
func (s *Stats) MaxCommunicateCalls() int {
	maxCalls := 0
	for _, c := range s.CommCalls {
		if c > maxCalls {
			maxCalls = c
		}
	}
	return maxCalls
}

// clone returns a deep copy so callers cannot alias kernel-owned slices
// (slices are copied at API boundaries).
func (s *Stats) clone() Stats {
	out := *s
	out.CommCalls = append([]int(nil), s.CommCalls...)
	out.SentBy = append([]int64(nil), s.SentBy...)
	out.ReceivedBy = append([]int64(nil), s.ReceivedBy...)
	return out
}
