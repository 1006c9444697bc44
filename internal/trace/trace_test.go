package trace

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/obs"
)

func TestRecordAndSpans(t *testing.T) {
	r := NewRecorder(64)
	r.Record(7, 2, PEncode, 100, 50, 0)
	r.Record(7, 2, PQuorumWait, 150, 900, 0)
	r.Event(7, 2, PStraggler, 3)
	spans := r.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	if spans[0].Phase != PEncode || spans[0].Dur != 50 || spans[0].Election != 7 || spans[0].Round != 2 {
		t.Fatalf("bad first span: %+v", spans[0])
	}
	if spans[2].Phase != PStraggler || spans[2].Dur != 0 || spans[2].Detail != 3 {
		t.Fatalf("bad event span: %+v", spans[2])
	}
	if r.Recorded() != 3 || r.Dropped() != 0 {
		t.Fatalf("recorded=%d dropped=%d", r.Recorded(), r.Dropped())
	}
}

// TestOverflowEvictsOldest checks the ring never blocks and silently
// drops the oldest spans when it wraps.
func TestOverflowEvictsOldest(t *testing.T) {
	r := NewRecorder(16)
	const total = 100
	for i := 0; i < total; i++ {
		r.Record(uint64(i+1), 1, PMerge, int64(i), 1, 0)
	}
	spans := r.Spans()
	if len(spans) != 16 {
		t.Fatalf("got %d spans, want ring capacity 16", len(spans))
	}
	// Survivors must be exactly the newest 16, oldest first.
	for i, sp := range spans {
		want := uint64(total - 16 + i + 1)
		if sp.Election != want {
			t.Fatalf("span %d: election %d, want %d (oldest-first eviction)", i, sp.Election, want)
		}
	}
	if got := r.Dropped(); got != total-16 {
		t.Fatalf("dropped=%d, want %d", got, total-16)
	}
	if r.Recorded() != total {
		t.Fatalf("recorded=%d, want %d", r.Recorded(), total)
	}
}

// TestConcurrentRecordRace hammers the ring from many writers while a
// reader snapshots, relying on -race to flag any unsynchronized access
// and on seqlock validation to discard torn slots.
func TestConcurrentRecordRace(t *testing.T) {
	r := NewRecorder(128)
	var wg sync.WaitGroup
	const writers, per = 8, 2000
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Record(uint64(w+1), int32(i%7), Phase(1+i%int(numPhases-1)), int64(i), int64(i%97), int64(w))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			for _, sp := range r.Spans() {
				if sp.Phase == PNone || sp.Phase >= numPhases {
					t.Errorf("torn span leaked: %+v", sp)
					return
				}
				if sp.Election == 0 || sp.Election > writers {
					t.Errorf("corrupt election in span: %+v", sp)
					return
				}
			}
		}
	}()
	wg.Wait()
	<-done
	if r.Recorded() != writers*per {
		t.Fatalf("recorded=%d, want %d", r.Recorded(), writers*per)
	}
	if got := len(r.Spans()); got != 128 {
		t.Fatalf("final snapshot has %d spans, want full ring 128", got)
	}
}

// TestNilRecorderZeroAlloc locks in the disabled-tracing contract:
// recording into a nil recorder is a no-op and allocates nothing.
func TestNilRecorderZeroAlloc(t *testing.T) {
	var r *Recorder
	allocs := testing.AllocsPerRun(100, func() {
		r.Record(1, 1, PEncode, 0, 1, 0)
		r.Event(1, 1, PStraggler, 0)
	})
	if allocs != 0 {
		t.Fatalf("nil recorder allocated %.1f per op, want 0", allocs)
	}
	if r.Cap() != 0 || r.Recorded() != 0 || r.Dropped() != 0 || r.Spans() != nil {
		t.Fatal("nil recorder must report empty state")
	}
}

// TestRecordZeroAlloc locks in the enabled-path contract: appending a
// span allocates nothing.
func TestRecordZeroAlloc(t *testing.T) {
	r := NewRecorder(64)
	allocs := testing.AllocsPerRun(100, func() {
		r.Record(1, 1, PQuorumWait, 10, 20, 0)
	})
	if allocs != 0 {
		t.Fatalf("Record allocated %.1f per op, want 0", allocs)
	}
}

// synthSpans builds a deterministic seeded span population.
func synthSpans(seed int64, n int) []Span {
	rng := rand.New(rand.NewSource(seed))
	spans := make([]Span, n)
	for i := range spans {
		spans[i] = Span{
			Election: uint64(1 + rng.Intn(20)),
			Round:    int32(rng.Intn(4)),
			Phase:    Phase(1 + rng.Intn(int(numPhases)-1)),
			Start:    int64(i) * 10,
			Dur:      int64(rng.Intn(100000)),
			Detail:   int64(rng.Intn(8)),
		}
	}
	return spans
}

// TestBreakdownDeterminism checks that aggregation depends only on the
// span multiset: two identically seeded populations — one shuffled —
// produce byte-identical breakdowns.
func TestBreakdownDeterminism(t *testing.T) {
	a := synthSpans(42, 5000)
	b := synthSpans(42, 5000)
	rand.New(rand.NewSource(7)).Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
	ba := ComputeBreakdown(a, 3)
	bb := ComputeBreakdown(b, 3)
	if !reflect.DeepEqual(ba, bb) {
		t.Fatalf("breakdowns differ across identical seeded runs:\n%+v\nvs\n%+v", ba, bb)
	}
	ja, _ := json.Marshal(ba)
	jb, _ := json.Marshal(bb)
	if !bytes.Equal(ja, jb) {
		t.Fatal("breakdown JSON differs across identical seeded runs")
	}
	if ba.Spans != 5000 || ba.Dropped != 3 {
		t.Fatalf("spans=%d dropped=%d", ba.Spans, ba.Dropped)
	}
}

func TestBreakdownStats(t *testing.T) {
	spans := []Span{
		{Election: 1, Phase: PQuorumWait, Dur: 100},
		{Election: 1, Phase: PQuorumWait, Dur: 300},
		{Election: 2, Phase: PQuorumWait, Dur: 200},
		{Election: 2, Phase: PEncode, Dur: 10},
		{Election: 2, Phase: PSnapshot, Dur: 5, Detail: 1},
		{Election: 2, Phase: PSnapshot, Dur: 5, Detail: 0},
	}
	b := ComputeBreakdown(spans, 0)
	if b.Elections != 2 {
		t.Fatalf("elections=%d, want 2", b.Elections)
	}
	qw, ok := b.Stat("quorum-wait")
	if !ok || qw.Count != 3 || qw.TotalNs != 600 || qw.MeanNs != 200 || qw.P50Ns != 200 {
		t.Fatalf("bad quorum-wait stat: %+v", qw)
	}
	snap, ok := b.Stat("snapshot")
	if !ok || snap.MeanDetail != 0.5 {
		t.Fatalf("bad snapshot stat: %+v", snap)
	}
	// Client sum: (10 + 600) / 3 quorum-wait calls.
	if got := b.ClientSumNs(); got != 203 {
		t.Fatalf("client sum=%d, want 203", got)
	}
}

func TestFileRoundTripAndTable(t *testing.T) {
	spans := synthSpans(1, 500)
	f := &File{
		Meta: Meta{
			Name: "t13/tcp/n=32", Transport: "tcp", N: 32, K: 32,
			Elections: 20, MeanElectionSec: 0.033, MeanRounds: 1.5, MeanMsgs: 200,
		},
		Breakdown: ComputeBreakdown(spans, 0),
		Spans:     spans,
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := WriteFile(path, f); err != nil {
		t.Fatal(err)
	}
	g, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.Breakdown, g.Breakdown) || g.Meta != f.Meta || len(g.Spans) != len(f.Spans) {
		t.Fatal("trace file did not round-trip")
	}
	var tbl bytes.Buffer
	g.WriteTable(&tbl)
	out := tbl.String()
	for _, want := range []string{"quorum-wait", "trace-reconstructed election span", "of measured"} {
		if !bytes.Contains(tbl.Bytes(), []byte(want)) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
	var diff bytes.Buffer
	WriteDiff(&diff, g, g)
	if !bytes.Contains(diff.Bytes(), []byte("1.00x")) {
		t.Fatalf("self-diff should show 1.00x ratios:\n%s", diff.String())
	}
}

func TestChromeExport(t *testing.T) {
	spans := []Span{
		{Election: 3, Round: 1, Phase: PEncode, Start: 1000, Dur: 500},
		{Election: 3, Round: 1, Phase: PStraggler, Start: 2000, Dur: 0, Detail: 4},
		{Election: 3, Round: 1, Phase: PMerge, Start: 1500, Dur: 200},
	}
	f := &File{Meta: Meta{Name: "x"}, Breakdown: ComputeBreakdown(spans, 0), Spans: spans}
	var buf bytes.Buffer
	if err := f.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	// 3 process_name metadata events + 3 spans.
	if len(events) != 6 {
		t.Fatalf("got %d events, want 6", len(events))
	}
	var complete, instant int
	for _, e := range events {
		switch e["ph"] {
		case "X":
			complete++
		case "i":
			instant++
		}
	}
	if complete != 2 || instant != 1 {
		t.Fatalf("complete=%d instant=%d, want 2/1", complete, instant)
	}
}

// TestPhaseNamesAndParse: every phase has a name and a layer, and no two
// share a name, so a name read back from a trace file parses to one phase.
func TestPhaseNamesAndParse(t *testing.T) {
	byName := map[string]Phase{}
	for _, p := range Phases() {
		if p.String() == "unknown" || p.String() == "none" {
			t.Fatalf("phase %d has no name", p)
		}
		if p.Layer() == "" {
			t.Fatalf("phase %s has no layer", p)
		}
		if q, dup := byName[p.String()]; dup {
			t.Fatalf("phases %d and %d share the name %q", q, p, p.String())
		}
		byName[p.String()] = p
	}
}

func TestEnableMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	r := NewRecorder(32)
	r.EnableMetrics(reg)
	r.Record(1, 1, PQuorumWait, 0, 5_000_000, 0) // 5ms = 5000µs
	snap := reg.Snapshot()
	found := false
	for _, h := range snap.Histograms {
		if h.Name != "trace_phase_us" {
			continue
		}
		for _, l := range h.Labels {
			if l.Key == "phase" && l.Value == "quorum-wait" && h.Count == 1 {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("quorum-wait histogram did not receive the observation")
	}
}

func TestCoverage(t *testing.T) {
	// One election whose client spans tile [0, 33ms): the reconstructed
	// extent must match the measured 33ms latency, regardless of how the
	// time splits across phases. Server spans outside the window must not
	// stretch it.
	spans := []Span{
		{Election: 1, Phase: PEncode, Start: 0, Dur: 1e6},
		{Election: 1, Phase: PSend, Start: 1e6, Dur: 2e6},
		{Election: 1, Phase: PQuorumWait, Start: 3e6, Dur: 30e6},
		{Election: 1, Phase: PMerge, Start: 50e6, Dur: 1e6}, // server layer: ignored
	}
	f := &File{
		Meta:      Meta{MeanElectionSec: 0.033},
		Breakdown: ComputeBreakdown(spans, 0),
	}
	if got := f.Breakdown.MeanExtentNs; got != 33e6 {
		t.Fatalf("MeanExtentNs=%d, want 33e6", got)
	}
	cov := f.Coverage()
	if cov < 0.99 || cov > 1.01 {
		t.Fatalf("coverage=%f, want ~1.0", cov)
	}
}
