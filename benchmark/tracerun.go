package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/trace"
)

// benchSpan is one of the benchmark's own spans: an interval around a call
// it made into a layer (set-up, warm-up, one live.Elect, one ladder rung),
// on the trace clock the flight recorder's spans share. Parent is the ID of
// the span that caused it (0 for a root).
type benchSpan struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// spanLog keeps the benchmark's spans in memory until the run ends. A nil
// log records nothing, which is how the runs of record stay span-free.
type spanLog struct {
	mu    sync.Mutex
	spans []benchSpan
}

func (l *spanLog) begin(name string, parent int) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, benchSpan{ID: id, Parent: parent, Name: name, Start: trace.Now()})
	return id
}

func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	now := trace.Now()
	l.mu.Lock()
	l.spans[id-1].End = now
	l.mu.Unlock()
}

// spanTotal sums one span name: how many, their summed duration, and their
// summed self time — duration minus the part child spans cover.
type spanTotal struct {
	Name    string
	Count   int
	TotalNs int64
	SelfNs  int64
}

// totals aggregates the log by span name. Children may overlap (elections
// in flight together), so a parent's covered part is the union of its
// children's intervals.
func (l *spanLog) totals() []spanTotal {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	spans := append([]benchSpan(nil), l.spans...)
	l.mu.Unlock()
	children := map[int][]benchSpan{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	byName := map[string]*spanTotal{}
	var order []string
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered, edge int64 = 0, s.Start
		for _, k := range kids {
			from, to := max(k.Start, edge), min(k.End, s.End)
			if to > from {
				covered += to - from
				edge = to
			}
		}
		t := byName[s.Name]
		if t == nil {
			t = &spanTotal{Name: s.Name}
			byName[s.Name] = t
			order = append(order, s.Name)
		}
		t.Count++
		t.TotalNs += s.End - s.Start
		t.SelfNs += s.End - s.Start - covered
	}
	out := make([]spanTotal, len(order))
	for i, name := range order {
		out[i] = *byName[name]
	}
	return out
}

func (l *spanLog) write(path string) error {
	l.mu.Lock()
	buf, err := json.Marshal(l.spans)
	l.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// traceRing is the flight recorder's capacity on traced runs. One n=32 TCP
// election records ~50k spans, so the ring holds the last ~20 of them; the
// breakdown is computed over the elections the ring retained whole.
const traceRing = 1 << 20

// tracedRun re-runs the workload with the flight recorder attached and
// attributes its latency to internal/trace's phases. untracedP50 is the
// run of record's median, the base of the overhead ratio. The trace.File is
// written to outDir for cmd/traceview.
func tracedRun(w workload, seed int64, length time.Duration, untracedP50 float64, outDir string, spans *spanLog) (map[string]float64, *measured, error) {
	rec := trace.NewRecorder(traceRing)
	root := spans.begin("traced:"+w.Name, 0)
	defer spans.end(root)

	id := spans.begin("setUp", root)
	e, err := setUp(w, rec)
	spans.end(id)
	if err != nil {
		return nil, nil, err
	}
	defer e.close()
	id = spans.begin("warmUp", root)
	err = e.warmUp(seed, warmupCount(w, length))
	spans.end(id)
	if err != nil {
		return nil, nil, err
	}
	id = spans.begin("measure", root)
	m, err := e.measure(seed, length, spans, id)
	spans.end(id)
	if err != nil {
		return nil, nil, err
	}

	// Keep the elections whose spans the ring still holds in full: those
	// that began after the last evicted ticket. Spans no election owns (a
	// write drain batching several) count from the first kept election on.
	dropped := rec.Dropped()
	kept := map[uint64]bool{}
	var service []float64
	windowStart := int64(-1)
	for _, s := range m.samples {
		if s.err != nil || s.ticket < dropped {
			continue
		}
		kept[s.id] = true
		service = append(service, s.service.Seconds())
		if windowStart < 0 || s.begin < windowStart {
			windowStart = s.begin
		}
	}
	if len(kept) == 0 {
		return nil, nil, fmt.Errorf("traced run of %s: the ring retained no whole election", w.Name)
	}
	var window []trace.Span
	for _, sp := range rec.Spans() {
		if kept[sp.Election] || (sp.Election == 0 && sp.Start >= windowStart) {
			window = append(window, sp)
		}
	}
	file := &trace.File{
		Meta: trace.Meta{
			Name: "benchmark/" + w.Name, Transport: string(w.transport),
			N: w.n, K: w.n, Elections: len(kept), MeanElectionSec: mean(service),
		},
		Breakdown: trace.ComputeBreakdown(window, dropped),
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, nil, err
	}
	if err := trace.WriteFile(filepath.Join(outDir, "trace-"+w.Name+".json"), file); err != nil {
		return nil, nil, err
	}

	out := phaseShares(file.Breakdown, w.n)
	out["trace.coverage"] = file.Coverage()
	out["trace.dropped"] = float64(dropped)
	out["trace.overhead_p50"] = ratio(percentile(m.latencies(), 0.50), untracedP50)
	return out, m, nil
}

// phaseShares turns a breakdown into one share per phase. A timed phase's
// share is of its own layer's recorded time, so each layer's shares sum to
// 1. The two event phases have no duration: straggler is the share of the
// n replies per call dropped after quorum, retransmit the resends per call.
func phaseShares(b *trace.Breakdown, n int) map[string]float64 {
	layerNs := map[string]int64{}
	for _, ps := range b.Phases {
		layerNs[ps.Layer] += ps.TotalNs
	}
	wait, _ := b.Stat(trace.PQuorumWait.String())
	out := map[string]float64{}
	for _, p := range trace.Phases() {
		ps, _ := b.Stat(p.String())
		var share float64
		switch p {
		case trace.PStraggler:
			share = ratio(float64(ps.Count), float64(wait.Count)*float64(n))
		case trace.PRetransmit:
			share = ratio(float64(ps.Count), float64(wait.Count))
		default:
			share = ratio(float64(ps.TotalNs), float64(layerNs[ps.Layer]))
		}
		out["trace.share."+p.String()] = share
	}
	return out
}
