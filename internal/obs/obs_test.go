package obs_test

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

// TestCounterGaugeBasics: read-at-scrape instruments report what their
// functions return at each snapshot, and Total sums across label sets.
func TestCounterGaugeBasics(t *testing.T) {
	r := obs.NewRegistry()
	var reqs [2]atomic.Int64
	r.NewCounterFunc("reqs_total", "requests", reqs[0].Load, obs.L("server", "0"))
	r.NewCounterFunc("reqs_total", "requests", reqs[1].Load, obs.L("server", "1"))
	var depth int64 = 7
	r.NewGaugeFunc("depth", "queue depth", func() int64 { return depth })

	reqs[0].Add(4)
	reqs[1].Add(10)
	s := r.Snapshot()
	if got := s.Total("reqs_total"); got != 14 {
		t.Fatalf("Total(reqs_total) = %d, want 14", got)
	}
	if got := s.Total("depth"); got != 7 {
		t.Fatalf("Total(depth) = %d, want 7", got)
	}
	if got := s.Total("missing"); got != 0 {
		t.Fatalf("Total(missing) = %d, want 0", got)
	}
	reqs[1].Add(1)
	depth = 3
	s = r.Snapshot()
	if got, gauge := s.Total("reqs_total"), s.Total("depth"); got != 15 || gauge != 3 {
		t.Fatalf("second snapshot reads reqs_total %d, depth %d; want 15, 3", got, gauge)
	}
}

// TestNilInstrumentsAreNoOps: un-wired subsystems hold nil histograms and
// must be able to observe into them freely.
func TestNilInstrumentsAreNoOps(t *testing.T) {
	var h *obs.Histogram
	h.Observe(4)
}

// TestHistogramBuckets: observations land in the right buckets, the
// overflow bucket catches values beyond the last bound, and the count and
// sum cover every observation.
func TestHistogramBuckets(t *testing.T) {
	r := obs.NewRegistry()
	h := r.NewHistogram("lat_usec", "latency", []int64{10, 100, 1000})
	for _, v := range []int64{1, 5, 10, 50, 99, 500, 5000} {
		h.Observe(v)
	}
	s := r.Snapshot()
	hp, ok := s.Histogram("lat_usec")
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	wantCounts := []int64{3, 2, 1, 1} // <=10, <=100, <=1000, overflow
	for i, w := range wantCounts {
		if hp.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, hp.Counts[i], w, hp.Counts)
		}
	}
	if hp.Count != 7 || hp.Sum != 1+5+10+50+99+500+5000 {
		t.Fatalf("count=%d sum=%d", hp.Count, hp.Sum)
	}
}

// TestHistogramSelfDescribingBuckets: the snapshot's JSON exposition pairs
// every count with its upper bound ("+Inf" for the overflow), so a scrape
// is interpretable without the instrument's bound table.
func TestHistogramSelfDescribingBuckets(t *testing.T) {
	r := obs.NewRegistry()
	h := r.NewHistogram("lat_usec", "latency", []int64{10, 100, 1000})
	for _, v := range []int64{1, 5, 10, 50, 99, 500, 5000} {
		h.Observe(v)
	}
	s := r.Snapshot()
	check := func(hp obs.HistPoint, where string) {
		t.Helper()
		want := []obs.Bucket{{LE: "10", Count: 3}, {LE: "100", Count: 2}, {LE: "1000", Count: 1}, {LE: "+Inf", Count: 1}}
		if !reflect.DeepEqual(hp.Buckets, want) {
			t.Fatalf("%s buckets = %+v, want %+v", where, hp.Buckets, want)
		}
	}
	check(s.Histograms[0], "snapshot")
	merged, ok := s.Histogram("lat_usec")
	if !ok {
		t.Fatal("histogram missing")
	}
	check(merged, "merged")
	// The pairs survive a JSON round trip — the format consumers see.
	buf, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back obs.Snapshot
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	check(back.Histograms[0], "round-tripped")
}

// TestHistogramMergesAcrossLabels: Snapshot.Histogram sums same-name series.
func TestHistogramMergesAcrossLabels(t *testing.T) {
	r := obs.NewRegistry()
	h0 := r.NewHistogram("batch", "batch sizes", []int64{1, 8}, obs.L("server", "0"))
	h1 := r.NewHistogram("batch", "batch sizes", []int64{1, 8}, obs.L("server", "1"))
	h0.Observe(1)
	h1.Observe(4)
	h1.Observe(100)
	s := r.Snapshot()
	hp, ok := s.Histogram("batch")
	if !ok {
		t.Fatal("histogram missing")
	}
	if hp.Count != 3 || hp.Counts[0] != 1 || hp.Counts[1] != 1 || hp.Counts[2] != 1 {
		t.Fatalf("merged counts wrong: %+v", hp)
	}
}

// TestConcurrentUpdates: a histogram is safe under parallel writers (run
// with -race) and loses nothing, and a counter read at scrape time sees
// every update its function's state took.
func TestConcurrentUpdates(t *testing.T) {
	r := obs.NewRegistry()
	var n atomic.Int64
	r.NewCounterFunc("n_total", "", n.Load)
	h := r.NewHistogram("v", "", obs.ExpBuckets(1, 2, 10))
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				n.Add(1)
				h.Observe(int64(i % 700))
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if got := s.Total("n_total"); got != workers*per {
		t.Fatalf("counter lost updates: %d of %d", got, workers*per)
	}
	if hp, _ := s.Histogram("v"); hp.Count != workers*per {
		t.Fatalf("histogram lost updates: %d of %d", hp.Count, workers*per)
	}
}

// TestExpBuckets: geometric bound construction.
func TestExpBuckets(t *testing.T) {
	got := obs.ExpBuckets(50, 4, 5)
	want := []int64{50, 200, 800, 3200, 12800}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", got, want)
		}
	}
}

// TestJSONAndPrometheusExposition: both formats render, JSON round-trips,
// and the Prometheus text carries TYPE headers, labeled samples and
// cumulative histogram buckets ending at +Inf.
func TestJSONAndPrometheusExposition(t *testing.T) {
	r := obs.NewRegistry()
	r.NewCounterFunc("served_total", "requests served", func() int64 { return 9 }, obs.L("server", "2"))
	r.NewGaugeFunc("live", "live", func() int64 { return 4 })
	h := r.NewHistogram("lat_usec", "latency", []int64{10, 100})
	h.Observe(5)
	h.Observe(5000)
	s := r.Snapshot()

	var jbuf bytes.Buffer
	if err := s.WriteJSON(&jbuf); err != nil {
		t.Fatal(err)
	}
	var decoded obs.Snapshot
	if err := json.Unmarshal(jbuf.Bytes(), &decoded); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if decoded.Total("served_total") != 9 {
		t.Fatalf("decoded total = %d, want 9", decoded.Total("served_total"))
	}

	var pbuf bytes.Buffer
	if err := s.WritePrometheus(&pbuf); err != nil {
		t.Fatal(err)
	}
	text := pbuf.String()
	for _, want := range []string{
		"# TYPE served_total counter",
		`served_total{server="2"} 9`,
		"# TYPE live gauge",
		"live 4",
		"# TYPE lat_usec histogram",
		`lat_usec_bucket{le="10"} 1`,
		`lat_usec_bucket{le="+Inf"} 2`,
		"lat_usec_sum 5005",
		"lat_usec_count 2",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("prometheus text missing %q:\n%s", want, text)
		}
	}
}

// TestHTTPHandler: the admin endpoint serves JSON by default and the
// Prometheus text form on request; unknown formats are 400s.
func TestHTTPHandler(t *testing.T) {
	r := obs.NewRegistry()
	r.NewCounterFunc("hits_total", "", func() int64 { return 1 })
	obs.RegisterRuntime(r)
	h := obs.Handler(r)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("default content type %q", ct)
	}
	var s obs.Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &s); err != nil {
		t.Fatalf("default body not JSON: %v", err)
	}
	if s.Total("go_heap_alloc_bytes") == 0 {
		t.Fatal("runtime collector contributed nothing")
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format=prometheus", nil))
	if !strings.Contains(rec.Body.String(), "hits_total 1") {
		t.Fatalf("prometheus body missing sample:\n%s", rec.Body.String())
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format=xml", nil))
	if rec.Code != 400 {
		t.Fatalf("unknown format served %d, want 400", rec.Code)
	}
}
