package transport

import (
	"strconv"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/wire"
)

// Process-wide wire-traffic counters, updated by every Network this package
// implements: the transport-level half of the observability subsystem. One
// atomic add per frame keeps the hot path honest; the counters are global
// (not per-connection) because the admin endpoint reports the process, and
// a per-conn breakdown would cost a registry walk per connection churn.
//
// "Frames" are wire frames as the sockets see them: a coalesced batch is
// one frame out (its sub-messages are counted by MsgsCoalesced), and byte
// counts include framing — these are transport counters, deliberately
// distinct from the payload-byte accounting the paper's bit-complexity
// numbers use (Client.Bytes, Result.Bytes), which this package never
// touches.
var stats struct {
	framesOut    atomic.Int64
	bytesOut     atomic.Int64
	framesIn     atomic.Int64
	bytesIn      atomic.Int64
	batchesOut   atomic.Int64
	coalesced    atomic.Int64
	writeCalls   atomic.Int64
	singleWrites atomic.Int64
	readCalls    atomic.Int64
}

// Stats is one read of the process's transport counters.
type Stats struct {
	// FramesOut and BytesOut count frames (batches count once) and bytes
	// handed to the write side; FramesIn and BytesIn the inbound mirror.
	FramesOut, BytesOut, FramesIn, BytesIn int64
	// BatchesOut counts the write-loop batch frames assembled and
	// MsgsCoalesced the plain frames wrapped inside them.
	BatchesOut, MsgsCoalesced int64
	// WriteCalls counts write calls (one per stream write-loop drain, on
	// a TCP socket or a Loopback pipe alike, and one per UDP datagram) and
	// ReadCalls the reads that returned data, on the same three; reads the
	// runtime retried after a socket had nothing are not counted. Only the
	// TCP and UDP counts are system calls.
	WriteCalls, ReadCalls int64
	// SingleFrameWrites counts the stream drains among WriteCalls that
	// carried exactly one frame: a write loop woken for a lone request or
	// reply, where a batch would have shared the call.
	SingleFrameWrites int64
}

// ReadStats returns the current counter values.
func ReadStats() Stats {
	return Stats{
		FramesOut:         stats.framesOut.Load(),
		BytesOut:          stats.bytesOut.Load(),
		FramesIn:          stats.framesIn.Load(),
		BytesIn:           stats.bytesIn.Load(),
		BatchesOut:        stats.batchesOut.Load(),
		MsgsCoalesced:     stats.coalesced.Load(),
		WriteCalls:        stats.writeCalls.Load(),
		ReadCalls:         stats.readCalls.Load(),
		SingleFrameWrites: stats.singleWrites.Load(),
	}
}

// RegisterMetrics exposes the transport counters on an obs registry, under
// the transport_ prefix, and beside them the hit and miss counts of the
// process-wide view memo every read loop decodes through, one series per
// memo shard (wire_view_memo_{hits,misses}_total{shard="i"}).
func RegisterMetrics(r *obs.Registry) {
	r.NewCounterFunc("transport_frames_out_total", "wire frames written (a batch counts once)", stats.framesOut.Load)
	r.NewCounterFunc("transport_bytes_out_total", "bytes written, framing included", stats.bytesOut.Load)
	r.NewCounterFunc("transport_frames_in_total", "wire frames read (a batch counts once)", stats.framesIn.Load)
	r.NewCounterFunc("transport_bytes_in_total", "frame-body bytes read", stats.bytesIn.Load)
	r.NewCounterFunc("transport_batches_out_total", "write-loop batch frames assembled", stats.batchesOut.Load)
	r.NewCounterFunc("transport_msgs_coalesced_total", "plain frames wrapped into outbound batches", stats.coalesced.Load)
	r.NewCounterFunc("transport_write_calls_total", "write calls: one per stream drain (TCP socket or loopback pipe), one per UDP datagram", stats.writeCalls.Load)
	r.NewCounterFunc("transport_single_frame_writes_total", "stream drains (TCP socket or loopback pipe) that carried exactly one frame", stats.singleWrites.Load)
	r.NewCounterFunc("transport_read_calls_total", "reads that returned data (TCP and UDP sockets, loopback pipes)", stats.readCalls.Load)
	for i := range wire.ViewMemoShards {
		shard := obs.L("shard", strconv.Itoa(i))
		r.NewCounterFunc("wire_view_memo_hits_total", "views served whole from the process-wide view memo",
			func() int64 { hits, _ := wire.ViewMemoCounts(i); return hits }, shard)
		r.NewCounterFunc("wire_view_memo_misses_total", "memoizable views the view memo did not hold, decoded in full",
			func() int64 { _, misses := wire.ViewMemoCounts(i); return misses }, shard)
	}
}

// countWrite records one write call.
func countWrite() { stats.writeCalls.Add(1) }

// countStreamWrite records one stream write-loop drain of n frames.
func countStreamWrite(n int) {
	countWrite()
	if n == 1 {
		stats.singleWrites.Add(1)
	}
}

// countRead records one read that returned data.
func countRead() { stats.readCalls.Add(1) }

// countOut records one outbound wire frame of the given size.
func countOut(size int) {
	stats.framesOut.Add(1)
	stats.bytesOut.Add(int64(size))
}

// countIn records one inbound wire frame with a body of the given size.
func countIn(size int) {
	stats.framesIn.Add(1)
	stats.bytesIn.Add(int64(size))
}

// countBatchOut records one assembled outbound batch wrapping n plain
// frames, size bytes in all (header included).
func countBatchOut(n, size int) {
	stats.batchesOut.Add(1)
	stats.coalesced.Add(int64(n))
	stats.framesOut.Add(1)
	stats.bytesOut.Add(int64(size))
}
