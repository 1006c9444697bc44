package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/electd"
	"repro/internal/obs"
	"repro/internal/regstore"
	"repro/internal/transport"
)

// TestDemo: the all-in-one mode elects over both socket substrates, reached
// through a transport.Spec that carries nothing but the name — the same
// spec main builds from -transport.
func TestDemo(t *testing.T) {
	for _, name := range []string{transport.SpecTCP, transport.SpecUDP} {
		if err := runDemo(transport.Spec{Name: name}, 3, 4, 2, 1); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestDemoUnknownTransport: a misspelt -transport is an error that names
// it, not a silent default.
func TestDemoUnknownTransport(t *testing.T) {
	err := runDemo(transport.Spec{Name: "bogus"}, 3, 4, 1, 1)
	if err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("err = %v, want one naming the transport", err)
	}
}

// TestDemoRejectsParticipantsBeyondOwners: -demo -k 8161 asks for
// participant ids past regstore.MaxOwners, whose cells every replica would
// drop; it is an error (main exits non-zero), not an election outside the
// model.
func TestDemoRejectsParticipantsBeyondOwners(t *testing.T) {
	if err := runDemo(transport.Spec{Name: transport.SpecTCP}, 3, regstore.MaxOwners+1, 1, 1); err == nil {
		t.Fatalf("k=%d accepted", regstore.MaxOwners+1)
	}
}

// TestElectAgainstCluster: client mode dials running servers by address
// and elects on them, as a separate -elect process would.
func TestElectAgainstCluster(t *testing.T) {
	spec := transport.Spec{Name: transport.SpecTCP}
	cl, err := electd.NewClusterSpec(spec, 3, electd.ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := runElect(spec, cl.Addrs(), 4, 2, 1); err != nil {
		t.Fatal(err)
	}
}

// TestElectReportsShedElection: a replica that admits one live election
// per shard sheds most of 40 concurrent ones with busy replies. Client
// mode reports a shed election as its error and returns, instead of the
// busy reply crashing the process.
func TestElectReportsShedElection(t *testing.T) {
	spec := transport.Spec{Name: transport.SpecTCP}
	cl, err := electd.NewClusterSpec(spec, 3, electd.ClusterOptions{
		Server: electd.ServerOptions{MaxLivePerShard: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	err = runElect(spec, cl.Addrs(), 4, 40, 1)
	var busy *electd.BusyError
	if !errors.As(err, &busy) || !strings.Contains(err.Error(), "shed by a busy replica") {
		t.Fatalf("err = %v, want a shed election", err)
	}
}

// serveAdmin sends one request to the admin endpoint and returns the
// response's status and body.
func serveAdmin(t *testing.T, mux http.Handler, method, target string) (int, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(method, target, nil))
	return rec.Code, rec.Body.String()
}

// TestAdminHealthDrainMetrics: /healthz answers 200 until the server
// drains and 503 after, /drainz reports the drain state as JSON on GET and
// asks main for a drain on POST, and /metrics serves the registry.
func TestAdminHealthDrainMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	srv := electd.NewServerOpts(0, electd.ServerOptions{Metrics: reg})
	defer srv.Close()
	drainReq := make(chan struct{}, 1)
	mux := adminMux(reg, srv, drainReq, false)

	if code, _ := serveAdmin(t, mux, http.MethodGet, "/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz before a drain: %d, want 200", code)
	}
	code, body := serveAdmin(t, mux, http.MethodGet, "/drainz")
	var status struct {
		Draining  bool `json:"draining"`
		Elections int  `json:"elections"`
	}
	if err := json.Unmarshal([]byte(body), &status); code != http.StatusOK || err != nil || status.Draining {
		t.Fatalf("GET /drainz: %d %q (%v), want 200 and not draining", code, body, err)
	}
	if code, _ := serveAdmin(t, mux, http.MethodPost, "/drainz"); code != http.StatusAccepted {
		t.Fatalf("POST /drainz: %d, want 202", code)
	}
	select {
	case <-drainReq:
	default:
		t.Fatal("POST /drainz did not request a drain")
	}
	if code, _ := serveAdmin(t, mux, http.MethodPost, "/drainz"); code != http.StatusAccepted {
		t.Fatalf("a second POST /drainz: %d, want 202", code)
	}

	srv.BeginDrain()
	if code, _ := serveAdmin(t, mux, http.MethodGet, "/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz while draining: %d, want 503", code)
	}
	if _, body := serveAdmin(t, mux, http.MethodGet, "/drainz"); json.Unmarshal([]byte(body), &status) != nil || !status.Draining {
		t.Fatalf("GET /drainz while draining: %q", body)
	}
	code, body = serveAdmin(t, mux, http.MethodGet, "/metrics")
	var snap obs.Snapshot
	if err := json.Unmarshal([]byte(body), &snap); code != http.StatusOK || err != nil || len(snap.Names()) == 0 {
		t.Fatalf("/metrics: %d, %d bytes (%v), want a snapshot of the server's instruments", code, len(body), err)
	}
}

// TestAdminRuntimeTraceFileNames: /debug/rtrace/start writes a bare file
// name in the working directory and refuses, leaving the file system as it
// was, a path with a directory part, an absolute path and a name that
// already exists; a second start while a capture runs is a 409.
func TestAdminRuntimeTraceFileNames(t *testing.T) {
	dir := t.TempDir()
	t.Chdir(dir)
	mux := adminMux(obs.NewRegistry(), electd.NewServerOpts(0, electd.ServerOptions{}), make(chan struct{}, 1), true)

	if code, body := serveAdmin(t, mux, http.MethodPost, "/debug/rtrace/start?file=rt.out"); code != http.StatusOK {
		t.Fatalf("start with a bare name: %d %q", code, body)
	}
	if code, _ := serveAdmin(t, mux, http.MethodPost, "/debug/rtrace/start?file=other.out"); code != http.StatusConflict {
		t.Fatalf("a second start while capturing: %d, want 409", code)
	}
	if code, body := serveAdmin(t, mux, http.MethodPost, "/debug/rtrace/stop"); code != http.StatusOK {
		t.Fatalf("stop: %d %q", code, body)
	}
	trace, err := os.ReadFile(filepath.Join(dir, "rt.out"))
	if err != nil || len(trace) == 0 {
		t.Fatalf("the capture wrote %d bytes (%v)", len(trace), err)
	}

	existing := filepath.Join(dir, "keep.txt")
	if err := os.WriteFile(existing, []byte("keep me"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		file string
		want int
	}{
		{"../x", http.StatusBadRequest},
		{"sub/x", http.StatusBadRequest},
		{`sub\x`, http.StatusBadRequest},
		{".", http.StatusBadRequest},
		{"..", http.StatusBadRequest},
		{filepath.Join(t.TempDir(), "abs.out"), http.StatusBadRequest},
		{existing, http.StatusBadRequest},
		{"keep.txt", http.StatusConflict},
		{"rt.out", http.StatusConflict},
	} {
		target := "/debug/rtrace/start?file=" + url.QueryEscape(c.file)
		if code, body := serveAdmin(t, mux, http.MethodPost, target); code != c.want {
			t.Errorf("start with file %q: %d %q, want %d", c.file, code, body, c.want)
		}
	}
	if kept, err := os.ReadFile(existing); err != nil || string(kept) != "keep me" {
		t.Fatalf("a refused start touched an existing file: %q (%v)", kept, err)
	}
	if again, err := os.ReadFile(filepath.Join(dir, "rt.out")); err != nil || !bytes.Equal(again, trace) {
		t.Fatalf("a refused start touched the last capture (%v)", err)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 2 {
		t.Fatalf("the working directory holds %d entries (%v), want the capture and keep.txt", len(entries), err)
	}
	if code, _ := serveAdmin(t, mux, http.MethodPost, "/debug/rtrace/stop"); code != http.StatusConflict {
		t.Fatalf("stop with no capture running: %d, want 409", code)
	}
}
