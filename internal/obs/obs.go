// Package obs is the observability subsystem: dependency-free metrics for
// the long-running halves of the repository behind a Registry with a
// consistent snapshot API, exposable as JSON or Prometheus text over an
// admin HTTP endpoint. A counter or gauge is read at scrape time from a
// function over state its subsystem already keeps (a sharded server's
// summed atomics, say); the one instrument with storage of its own is the
// fixed-bucket histogram.
//
// The package exists to make the paper's resource bounds *watchable* on a
// live cluster: the theorems are statements about messages, bytes and
// rounds per election, and a daemon multiplexing thousands of elections
// needs to report those quantities from the outside without perturbing
// them. Everything here is stdlib-only and allocation-free on the hot path:
// a read-at-scrape instrument adds nothing to it, and a histogram
// observation is three atomic adds, never a lock, never a map lookup — a
// histogram is resolved to a pointer at registration time and updated
// directly.
//
// Histograms are nil-safe: Observe on a nil receiver is a no-op, so
// instrumented code paths need no "metrics enabled?" branches — an
// un-wired subsystem simply holds nil histograms.
package obs

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one name/value pair qualifying a metric (e.g. server="0").
// Labels distinguish the per-replica instruments of one process; queries
// that want the process total sum across them (Snapshot.Total).
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// L is shorthand for building a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// metricKind discriminates the registry's instrument records.
type metricKind uint8

const (
	counterKind metricKind = iota
	gaugeKind
	histogramKind
)

// metric is one registered instrument: a read-at-snapshot function (fn,
// counters and gauges) or histogram state.
type metric struct {
	kind   metricKind
	name   string
	help   string
	labels []Label
	fn     func() int64
	hist   *histState
}

// Registry holds a process's instruments and takes consistent-enough
// snapshots of them (each value is read through its function or its
// histogram's atomics; the set is read under the registration lock, so a
// scrape never sees a half-registered instrument).
type Registry struct {
	mu         sync.Mutex
	metrics    []*metric
	collectors []func(*Snapshot)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

func (r *Registry) register(m *metric) {
	r.mu.Lock()
	r.metrics = append(r.metrics, m)
	r.mu.Unlock()
}

// RegisterCollector adds a snapshot-time hook that may append points to the
// snapshot — the escape hatch for metric families whose values are only
// cheap to read together (runtime memory stats, for one).
func (r *Registry) RegisterCollector(fn func(*Snapshot)) {
	r.mu.Lock()
	r.collectors = append(r.collectors, fn)
	r.mu.Unlock()
}

// NewCounterFunc registers a counter whose value is read from fn at
// snapshot time — for totals another subsystem already tracks. fn must be
// monotonic and safe to call from any goroutine.
func (r *Registry) NewCounterFunc(name, help string, fn func() int64, labels ...Label) {
	r.register(&metric{kind: counterKind, name: name, help: help, labels: labels, fn: fn})
}

// NewGaugeFunc registers a gauge read from fn at snapshot time.
func (r *Registry) NewGaugeFunc(name, help string, fn func() int64, labels ...Label) {
	r.register(&metric{kind: gaugeKind, name: name, help: help, labels: labels, fn: fn})
}

// histState is a histogram's storage: counts[i] counts observations
// v <= bounds[i] (the first matching bucket); counts[len(bounds)] is the
// overflow bucket. Observations are int64 in whatever unit the name
// documents (microseconds for latencies, plain counts for sizes).
type histState struct {
	bounds []int64
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Int64
}

// Histogram is a fixed-bucket distribution instrument.
type Histogram struct{ m *metric }

// NewHistogram registers a histogram over the given ascending bucket upper
// bounds (an implicit +Inf bucket is added). The bounds slice is retained.
func (r *Registry) NewHistogram(name, help string, bounds []int64, labels ...Label) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not ascending at %d", name, i))
		}
	}
	h := &histState{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
	m := &metric{kind: histogramKind, name: name, help: help, labels: labels, hist: h}
	r.register(m)
	return &Histogram{m: m}
}

// Observe records one value: three atomic adds, no lock. The bucket scan is
// linear — bound lists are short by design.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	st := h.m.hist
	i := 0
	for i < len(st.bounds) && v > st.bounds[i] {
		i++
	}
	st.counts[i].Add(1)
	st.count.Add(1)
	st.sum.Add(v)
}

// ExpBuckets builds count ascending bounds starting at start, each factor
// times the previous — the standard shape for latency histograms.
func ExpBuckets(start, factor int64, count int) []int64 {
	out := make([]int64, count)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Point is one counter or gauge sample in a snapshot.
type Point struct {
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	Value  int64   `json:"value"`
}

// Bucket is one self-describing histogram bucket in a snapshot: the
// bucket's inclusive upper bound, rendered the way Prometheus renders it
// ("+Inf" for the overflow bucket), and the non-cumulative count of
// observations that landed in it.
type Bucket struct {
	LE    string `json:"le"`
	Count int64  `json:"count"`
}

// HistPoint is one histogram sample in a snapshot: per-bucket (non-
// cumulative) counts, with Counts[len(Bounds)] the overflow bucket.
// Buckets carries the same data zipped into (upper bound, count) pairs so
// the JSON exposition is interpretable without knowing the instrument's
// bound table; the Prometheus exposition derives its cumulative buckets
// from Bounds/Counts as before.
type HistPoint struct {
	Name    string   `json:"name"`
	Labels  []Label  `json:"labels,omitempty"`
	Bounds  []int64  `json:"bounds"`
	Counts  []int64  `json:"counts"`
	Buckets []Bucket `json:"buckets"`
	Count   int64    `json:"count"`
	Sum     int64    `json:"sum"`
}

// fillBuckets derives the self-describing bucket pairs from Bounds and
// Counts; the slot past the last bound becomes the "+Inf" overflow.
func (p *HistPoint) fillBuckets() {
	p.Buckets = make([]Bucket, 0, len(p.Counts))
	for i, c := range p.Counts {
		le := "+Inf"
		if i < len(p.Bounds) {
			le = strconv.FormatInt(p.Bounds[i], 10)
		}
		p.Buckets = append(p.Buckets, Bucket{LE: le, Count: c})
	}
}

// Snapshot is one consistent read of a registry, in registration order.
type Snapshot struct {
	At         time.Time   `json:"at"`
	Counters   []Point     `json:"counters"`
	Gauges     []Point     `json:"gauges"`
	Histograms []HistPoint `json:"histograms"`
}

// Snapshot reads every instrument.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	metrics := make([]*metric, len(r.metrics))
	copy(metrics, r.metrics)
	collectors := make([]func(*Snapshot), len(r.collectors))
	copy(collectors, r.collectors)
	r.mu.Unlock()

	s := Snapshot{At: time.Now()}
	for _, m := range metrics {
		switch m.kind {
		case counterKind:
			s.Counters = append(s.Counters, Point{Name: m.name, Labels: m.labels, Value: m.fn()})
		case gaugeKind:
			s.Gauges = append(s.Gauges, Point{Name: m.name, Labels: m.labels, Value: m.fn()})
		case histogramKind:
			st := m.hist
			hp := HistPoint{
				Name: m.name, Labels: m.labels,
				Bounds: st.bounds,
				Counts: make([]int64, len(st.counts)),
				Count:  st.count.Load(),
				Sum:    st.sum.Load(),
			}
			for i := range st.counts {
				hp.Counts[i] = st.counts[i].Load()
			}
			hp.fillBuckets()
			s.Histograms = append(s.Histograms, hp)
		}
	}
	for _, fn := range collectors {
		fn(&s)
	}
	// Collectors build HistPoints by hand; derive their bucket pairs too
	// so every histogram in the snapshot is self-describing.
	for i := range s.Histograms {
		if s.Histograms[i].Buckets == nil {
			s.Histograms[i].fillBuckets()
		}
	}
	return s
}

// Total sums every counter and gauge point with the given name across its
// label sets — the "whole process" view of a per-replica instrument.
func (s *Snapshot) Total(name string) int64 {
	var sum int64
	for _, p := range s.Counters {
		if p.Name == name {
			sum += p.Value
		}
	}
	for _, p := range s.Gauges {
		if p.Name == name {
			sum += p.Value
		}
	}
	return sum
}

// Histogram returns the merged histogram points with the given name (bucket
// counts summed across label sets; bounds must agree, which registration
// convention guarantees). ok is false when no such histogram exists.
func (s *Snapshot) Histogram(name string) (HistPoint, bool) {
	var out HistPoint
	found := false
	for i := range s.Histograms {
		p := &s.Histograms[i]
		if p.Name != name {
			continue
		}
		if !found {
			out = HistPoint{Name: p.Name, Bounds: p.Bounds, Counts: append([]int64(nil), p.Counts...),
				Count: p.Count, Sum: p.Sum}
			found = true
			continue
		}
		for j := range p.Counts {
			out.Counts[j] += p.Counts[j]
		}
		out.Count += p.Count
		out.Sum += p.Sum
	}
	if found {
		out.fillBuckets()
	}
	return out, found
}

// Names returns the distinct metric names in the snapshot, sorted — handy
// for tests and debugging dumps.
func (s *Snapshot) Names() []string {
	seen := map[string]bool{}
	for _, p := range s.Counters {
		seen[p.Name] = true
	}
	for _, p := range s.Gauges {
		seen[p.Name] = true
	}
	for _, p := range s.Histograms {
		seen[p.Name] = true
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
