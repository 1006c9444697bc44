// Command electd runs the election service: a long-lived daemon hosting the
// paper's register arrays behind majority-quorum reads and writes, and a
// client mode that runs leader elections against a set of such servers over
// TCP or UDP (-transport; servers and clients must agree). One server set
// multiplexes any number of concurrent election instances by election ID.
//
// A quorum system is n server processes; elections tolerate up to ⌈n/2⌉−1
// of them failing. Participants are pure clients — they can live anywhere
// that can dial the servers.
//
// A server is a real service, not a fixture: idle election state is
// TTL-evicted (-ttl; the protocol itself has no completion signal, since no
// participant can know whether others still need the registers), admission
// is bounded per shard (-max-live) with explicit busy replies when
// exceeded, SIGTERM and SIGINT trigger a graceful drain (stop admitting,
// finish in-flight elections, then exit — non-zero if the -drain-timeout
// passes with elections still live), and -admin serves the observability
// endpoints /metrics (JSON, or Prometheus text with ?format=prometheus),
// /healthz and /drainz. See docs/ELECTD.md for the ops guide.
//
// Start a three-server system (each in its own process, or machine):
//
//	electd -serve -id 0 -listen 127.0.0.1:7600 -admin 127.0.0.1:7700
//	electd -serve -id 1 -listen 127.0.0.1:7601 -admin 127.0.0.1:7701
//	electd -serve -id 2 -listen 127.0.0.1:7602 -admin 127.0.0.1:7702
//
// Run elections against it from a separate participant process:
//
//	electd -elect -servers 127.0.0.1:7600,127.0.0.1:7601,127.0.0.1:7602 \
//	       -k 8 -elections 100 -seed 1
//
// Or demo the whole thing in one process (servers on ephemeral loopback
// ports, participants dialling them over real sockets):
//
//	electd -demo -n 5 -k 5 -elections 10
//
// The endurance soak — hundreds of thousands of short elections over one
// long-running in-process cluster, asserting flat heap, full eviction and
// metrics consistency (the CI smoke job runs a compressed one):
//
//	electd -soak -elections 100000 -metrics-out soak-metrics.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	rtrace "runtime/trace"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/electd"
	"repro/internal/obs"
	"repro/internal/rt"
	"repro/internal/trace"
	"repro/internal/transport"
)

func main() {
	var (
		serve     = flag.Bool("serve", false, "run one quorum server (daemon mode)")
		elect     = flag.Bool("elect", false, "run elections as a client against -servers")
		demo      = flag.Bool("demo", false, "run servers and participants in one process over loopback TCP")
		soak      = flag.Bool("soak", false, "run the service-endurance soak in one process")
		id        = flag.Int("id", 0, "serve: this server's replica id")
		listen    = flag.String("listen", "127.0.0.1:0", "serve: listen address")
		admin     = flag.String("admin", "", "serve: admin HTTP address for /metrics, /healthz, /drainz (empty: off)")
		ttl       = flag.Duration("ttl", 10*time.Minute, "serve: evict election state idle longer than this (0: retain forever)")
		maxLive   = flag.Int("max-live", 4096, "serve: per-shard live election bound; above it new elections get busy replies (0: unbounded)")
		drainWait = flag.Duration("drain-timeout", 30*time.Second, "serve: graceful drain deadline on SIGTERM/SIGINT")
		pprofOn   = flag.Bool("pprof", false, "serve: expose net/http/pprof and runtime/trace start/stop under /debug on the -admin server")
		mutexFrac = flag.Int("mutex-fraction", 0, "serve: sample 1/n of mutex contention and blocking events into /debug/pprof/{mutex,block} (0: off; requires -pprof)")
		traceOn   = flag.Bool("trace", false, "serve: record per-phase server spans into a flight recorder; per-phase histograms appear in /metrics")
		servers   = flag.String("servers", "", "elect: comma-separated server addresses, in replica-id order")
		n         = flag.Int("n", 3, "demo/soak: number of quorum servers")
		k         = flag.Int("k", 4, "elect/demo/soak: participants per election")
		elections = flag.Int("elections", 1, "elect/demo/soak: number of election instances (soak default: 100000)")
		seed      = flag.Int64("seed", 1, "elect/demo: base PRNG seed")
		tspt      = flag.String("transport", "tcp", "serve/elect/demo: tcp | udp socket substrate (servers and clients must agree)")
		metricsOu = flag.String("metrics-out", "", "soak: write the final metrics snapshot JSON here")
	)
	flag.Parse()

	spec := transport.Spec{Name: *tspt}
	var err error
	switch {
	case *serve:
		err = runServe(spec, *id, *listen, *admin, *ttl, *maxLive, *drainWait, *pprofOn, *traceOn, *mutexFrac)
	case *elect:
		err = runElect(spec, strings.Split(*servers, ","), *k, *elections, *seed)
	case *demo:
		err = runDemo(spec, *n, *k, *elections, *seed)
	case *soak:
		err = runSoak(*n, *k, *elections, *metricsOu)
	default:
		err = fmt.Errorf("pick a mode: -serve, -elect, -demo or -soak")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "electd:", err)
		os.Exit(1)
	}
}

// runServe hosts one register replica until signalled, then drains. The
// error it returns — drain deadline passed, admin server died, accept loop
// died — is the process's non-zero exit.
func runServe(spec transport.Spec, id int, addr, admin string, ttl time.Duration, maxLive int, drainWait time.Duration, pprofOn, traceOn bool, mutexFrac int) error {
	if id < 0 {
		return fmt.Errorf("server id %d must be non-negative", id)
	}
	if mutexFrac > 0 {
		// Arm the runtime's contention profilers: /debug/pprof/mutex and
		// /debug/pprof/block (mounted by -pprof's pprof.Index) stay empty
		// until these rates are non-zero. Sampling 1/n of events costs the
		// sampled paths a stack capture — off by default; profiling runs
		// opt in. This is how the lock-free claim gets verified against a
		// running daemon: under steady load the mutex profile shows no
		// samples in Server.Handle (see docs/ELECTD.md).
		runtime.SetMutexProfileFraction(mutexFrac)
		runtime.SetBlockProfileRate(mutexFrac)
	}
	reg := obs.NewRegistry()
	obs.RegisterRuntime(reg)
	transport.RegisterMetrics(reg)
	// The flight recorder is opt-in: untraced servers keep the hot path
	// free of even the nil checks' branch history. With -trace, every
	// shard-wait/merge/snapshot/reply span also lands in the
	// trace_phase_us histograms /metrics exposes.
	var rec *trace.Recorder
	if traceOn {
		rec = trace.NewRecorder(1 << 18)
		rec.EnableMetrics(reg)
	}
	srv := electd.NewServerOpts(rt.ProcID(id), electd.ServerOptions{
		TTL:             ttl,
		MaxLivePerShard: maxLive,
		Metrics:         reg,
		Trace:           rec,
	})
	defer srv.Close()
	ln, err := spec.ListenAddr(addr, srv.Handle)
	if err != nil {
		return err
	}
	defer ln.Close()
	fmt.Printf("electd: server %d listening on %s/%s (ttl %v, max-live %d/shard)\n", id, spec.Name, ln.Addr(), ttl, maxLive)

	// The admin endpoint is plumbing around the service, never in the
	// quorum path: a scrape or a drain request serializes against nothing
	// the replica's Handle touches.
	drainReq := make(chan struct{}, 1)
	adminErr := make(chan error, 1)
	if admin != "" {
		hs := &http.Server{Addr: admin, Handler: adminMux(reg, srv, drainReq, pprofOn)}
		go func() { adminErr <- hs.ListenAndServe() }()
		defer hs.Close()
		fmt.Printf("electd: server %d admin endpoint on http://%s/metrics\n", id, admin)
	}

	stop := make(chan os.Signal, 2)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	tick := time.NewTicker(30 * time.Second)
	defer tick.Stop()
	for {
		select {
		case sig := <-stop:
			fmt.Printf("electd: server %d caught %v, draining (deadline %v)\n", id, sig, drainWait)
			return drainAndReport(srv, id, drainWait)
		case <-drainReq:
			fmt.Printf("electd: server %d draining on admin request (deadline %v)\n", id, drainWait)
			return drainAndReport(srv, id, drainWait)
		case err := <-adminErr:
			return fmt.Errorf("admin endpoint died: %w", err)
		case <-ln.Done():
			if err := ln.Err(); err != nil {
				return fmt.Errorf("accept loop died: %w", err)
			}
			return fmt.Errorf("listener closed unexpectedly")
		case <-tick.C:
			fmt.Printf("electd: server %d: %d requests served, %d elections live, %d evicted, %d shed\n",
				id, srv.Served(), srv.Elections(), srv.Evicted(), srv.Shed())
		}
	}
}

// drainAndReport runs the graceful drain and prints the service's final
// ledger either way; a deadline miss is the caller's non-zero exit.
func drainAndReport(srv *electd.Server, id int, drainWait time.Duration) error {
	err := srv.Drain(drainWait)
	fmt.Printf("electd: server %d shut down (%d requests served, %d elections hosted, %d evicted, %d shed)\n",
		id, srv.Served(), srv.Started(), srv.Evicted(), srv.Shed())
	return err
}

// adminMux assembles the admin endpoint: /metrics (obs snapshot, JSON or
// Prometheus text), /healthz (503 once draining, for load-balancer
// removal), /drainz (GET status; POST initiates a graceful drain). With
// pprofOn it also mounts net/http/pprof under /debug/pprof/ and the
// runtime execution tracer under /debug/rtrace/{start,stop} — both
// diagnostics around the service, never in the quorum path.
func adminMux(reg *obs.Registry, srv *electd.Server, drainReq chan<- struct{}, pprofOn bool) *http.ServeMux {
	mux := http.NewServeMux()
	if pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mountRuntimeTrace(mux)
	}
	mux.Handle("/metrics", obs.Handler(reg))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		if srv.Draining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/drainz", func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodPost:
			select {
			case drainReq <- struct{}{}:
			default: // a drain is already requested; idempotent
			}
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprintln(w, "draining")
		case http.MethodGet:
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(map[string]any{ //nolint:errcheck
				"draining":  srv.Draining(),
				"elections": srv.Elections(),
			})
		default:
			http.Error(w, "GET or POST", http.StatusMethodNotAllowed)
		}
	})
	return mux
}

// mountRuntimeTrace wires runtime/trace capture onto the admin mux:
// POST /debug/rtrace/start begins writing an execution trace to a
// server-side file (?file= overrides the path), POST /debug/rtrace/stop
// ends it and reports the file to feed `go tool trace`. Unlike
// /debug/pprof/trace this survives client disconnects, so it can bracket
// a whole soak or drain. One capture at a time; a second start is a 409.
func mountRuntimeTrace(mux *http.ServeMux) {
	var mu sync.Mutex
	var out *os.File
	mux.HandleFunc("/debug/rtrace/start", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST", http.StatusMethodNotAllowed)
			return
		}
		path := r.FormValue("file")
		if path == "" {
			path = fmt.Sprintf("electd-rtrace-%d.out", os.Getpid())
		}
		mu.Lock()
		defer mu.Unlock()
		if out != nil {
			http.Error(w, "a runtime trace is already being captured; POST /debug/rtrace/stop first", http.StatusConflict)
			return
		}
		f, err := os.Create(path)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if err := rtrace.Start(f); err != nil {
			f.Close()
			os.Remove(path)
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		out = f
		fmt.Fprintf(w, "runtime trace started: %s\n", path)
	})
	mux.HandleFunc("/debug/rtrace/stop", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST", http.StatusMethodNotAllowed)
			return
		}
		mu.Lock()
		defer mu.Unlock()
		if out == nil {
			http.Error(w, "no runtime trace running", http.StatusConflict)
			return
		}
		rtrace.Stop()
		name := out.Name()
		if err := out.Close(); err != nil {
			out = nil
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		out = nil
		fmt.Fprintf(w, "runtime trace stopped: %s (inspect with: go tool trace %s)\n", name, name)
	})
}

// runSoak runs the endurance harness (electd.Soak) in one process and
// turns its report into the exit code; the final metrics snapshot can be
// written out as the CI artifact.
func runSoak(n, k, elections int, metricsOut string) error {
	if elections <= 1 {
		elections = 100_000
	}
	rep, err := electd.Soak(electd.SoakConfig{
		N: n, K: k, Elections: elections,
		Log: func(format string, args ...any) { fmt.Printf(format+"\n", args...) },
	})
	if err != nil {
		return err
	}
	fmt.Printf("soak: %d elections (%d invalid), served %d, evicted %d, final live %d, heap %.0f → %.0f bytes\n",
		rep.Elections, rep.Invalid, rep.Served, rep.Evicted, rep.FinalLive, rep.FirstQMean, rep.LastQMean)
	if metricsOut != "" {
		f, err := os.Create(metricsOut)
		if err != nil {
			return err
		}
		werr := rep.Snapshot.WriteJSON(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return werr
		}
		fmt.Printf("soak: metrics snapshot written to %s\n", metricsOut)
	}
	return rep.Check()
}

// runElect dials the servers and runs the requested elections concurrently,
// multiplexed by election ID over one connection pool.
func runElect(spec transport.Spec, addrs []string, k, elections int, seed int64) error {
	for i := range addrs {
		addrs[i] = strings.TrimSpace(addrs[i])
	}
	if len(addrs) == 0 || addrs[0] == "" {
		return fmt.Errorf("-elect needs -servers")
	}
	// NewPool folds the spec in: on UDP that arms the pool's default
	// retransmit-and-dedup reliability layer.
	pool, err := electd.NewPool(spec, addrs, electd.PoolOptions{})
	if err != nil {
		return err
	}
	defer pool.Close()
	return runElections(pool, len(addrs), k, elections, seed)
}

// runDemo starts an in-process cluster over loopback sockets and elects on
// it.
func runDemo(spec transport.Spec, n, k, elections int, seed int64) error {
	cluster, err := electd.NewClusterSpec(spec, n, electd.ClusterOptions{})
	if err != nil {
		return err
	}
	defer cluster.Close()
	fmt.Printf("electd: %d servers (%s) on %s\n", n, spec.Name, strings.Join(cluster.Addrs(), " "))
	return runElections(cluster.Pool(), n, k, elections, seed)
}

// runElections fans the requested election instances out concurrently,
// each one Pool.Elect with k participants, and fails if any election had
// no unique winner or was shed by a busy replica.
func runElections(pool *electd.Pool, n, k, elections int, seed int64) error {
	if elections < 1 {
		return fmt.Errorf("election count %d must be positive", elections)
	}

	// Election IDs must be unique across invocations, not just within one:
	// long-lived servers keep per-ID register state, so a second `-elect`
	// run reusing IDs 1..E would collide with the first run's cells and
	// decide on stale state. A per-invocation nanosecond base keeps every
	// run in its own namespace on the shared servers.
	base := uint64(time.Now().UnixNano())
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, elections)
	for e := range elections {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := pool.Elect(base+uint64(e), k, seed+int64(e*k))
			if err != nil {
				errs[e] = fmt.Errorf("election %d: %w", e, err)
				return
			}
			fmt.Printf("election=%-4d winner=%d\n", e, res.Winner)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	fmt.Printf("%d elections, %d participants each, %d servers: %v total\n",
		elections, k, n, time.Since(start).Round(time.Millisecond))
	return nil
}
