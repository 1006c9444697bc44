package electd

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/rt"
	"repro/internal/transport"
)

// Cluster bundles a full quorum system in one process: n servers, each
// behind its own transport listener, plus a connection pool dialled to all
// of them. It is the harness the live backend's TCP mode, the campaign
// engine and the tests build on; a production deployment instead runs one
// `electd` process per server and DialPool from each client process.
type Cluster struct {
	n         int
	servers   []*Server
	listeners []transport.Listener
	pool      *Pool
	elections atomic.Uint64
}

// ClusterOptions tunes both halves of an in-process cluster: the shared
// client pool and every server's lifecycle. The same ServerOptions apply
// to all n replicas (they are one deployment); per-replica policy needs a
// hand-built cluster.
type ClusterOptions struct {
	Pool   PoolOptions
	Server ServerOptions
}

// NewCluster starts n servers on the network and dials the shared pool,
// all options at their defaults.
func NewCluster(nw transport.Network, n int) (*Cluster, error) {
	return NewClusterWith(nw, n, ClusterOptions{})
}

// NewClusterSpec starts an in-process cluster under a transport spec: the
// servers listen and the pool dials on the substrate the spec names, with
// the spec folded into the pool options exactly as NewPool does —
// including the default retransmit layer on unreliable substrates. The
// symmetric counterpart of NewPool for single-process deployments.
func NewClusterSpec(spec transport.Spec, n int, opts ClusterOptions) (*Cluster, error) {
	nw, err := spec.Network()
	if err != nil {
		return nil, err
	}
	opts.Pool = mergeSpec(spec, opts.Pool)
	if opts.Server.Trace == nil {
		opts.Server.Trace = spec.Trace
	}
	return NewClusterWith(nw, n, opts)
}

// NewClusterWith is NewCluster with the full option set, server lifecycle
// included.
func NewClusterWith(nw transport.Network, n int, opts ClusterOptions) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("electd: cluster size %d must be at least 1", n)
	}
	cl := &Cluster{n: n}
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		srv := NewServerOpts(rt.ProcID(i), opts.Server)
		ln, err := nw.Listen(srv.Handle)
		if err != nil {
			cl.Close()
			return nil, fmt.Errorf("electd: listen server %d: %w", i, err)
		}
		cl.servers = append(cl.servers, srv)
		cl.listeners = append(cl.listeners, ln)
		addrs[i] = ln.Addr()
	}
	pool, err := DialPoolOpts(nw, addrs, opts.Pool)
	if err != nil {
		cl.Close()
		return nil, err
	}
	cl.pool = pool
	return cl, nil
}

// N returns the quorum system size.
func (cl *Cluster) N() int { return cl.n }

// Addrs returns the servers' dialable addresses, indexed by server id.
func (cl *Cluster) Addrs() []string {
	out := make([]string, len(cl.listeners))
	for i, ln := range cl.listeners {
		out[i] = ln.Addr()
	}
	return out
}

// Pool returns the cluster's shared client pool.
func (cl *Cluster) Pool() *Pool { return cl.pool }

// Server returns replica id (for stats and tests).
func (cl *Cluster) Server(id rt.ProcID) *Server { return cl.servers[id] }

// NextElectionID hands out a fresh election-instance ID; concurrent
// campaigns over one shared cluster must not collide on IDs.
func (cl *Cluster) NextElectionID() uint64 { return cl.elections.Add(1) }

// NewComm returns participant p's communicate handle for one election on
// this cluster. See Pool.NewComm.
func (cl *Cluster) NewComm(p rt.Procer, election uint64, delay func(server int) time.Duration) *Client {
	return cl.pool.NewComm(p, election, delay)
}

// RemoveElection evicts one finished election instance's register state
// from every server, and the views of it the pool holds, bounding a
// long-lived shared cluster's memory. Only call it once every participant
// of the instance has returned. Removal touches only the instance's shard
// on each server, so teardown churn never blocks unrelated elections.
func (cl *Cluster) RemoveElection(election uint64) {
	for _, srv := range cl.servers {
		srv.RemoveElection(election)
	}
	cl.pool.forget(election)
}

// Crash fails server id: its replica drops requests and its listener drops
// every connection — the network expression of a processor crash. With at
// most ⌈n/2⌉−1 crashed servers every quorum call still completes.
func (cl *Cluster) Crash(id rt.ProcID) {
	if int(id) >= len(cl.servers) {
		return
	}
	cl.servers[id].Crash()
	cl.listeners[id].Crash()
}

// Restart recovers a crashed server end to end: the replica resumes
// answering (with the register state it held at the crash — see
// Server.Restart), its listener re-arms at the original address, and the
// shared pool redials it, so the recovered replica serves quorum calls
// again mid-election. The inverse of Crash; a no-op error if the
// listener's transport cannot recover.
func (cl *Cluster) Restart(id rt.ProcID) error {
	if int(id) >= len(cl.servers) {
		return fmt.Errorf("electd: restart server %d of a %d-server cluster", id, cl.n)
	}
	rec, ok := cl.listeners[id].(transport.Recoverer)
	if !ok {
		return fmt.Errorf("electd: server %d's listener (%T) cannot recover", id, cl.listeners[id])
	}
	// Replica first: the instant the listener accepts again, requests must
	// find a serving replica, not the drop-everything switch still on.
	cl.servers[id].Restart()
	if err := rec.Recover(); err != nil {
		return err
	}
	return cl.pool.Redial(int(id))
}

// BeginDrain puts every server into drain mode: new elections are refused
// with busy replies, in-flight ones keep being served. See Server.Drain
// for the full graceful-shutdown sequence.
func (cl *Cluster) BeginDrain() {
	for _, srv := range cl.servers {
		srv.BeginDrain()
	}
}

// Drain gracefully quiesces every server: stop admitting, wait for live
// elections to go idle, evicting them as they do. The timeout covers the
// whole cluster; the first deadline miss is returned (remaining servers
// still flip to draining via BeginDrain above them having been drained).
func (cl *Cluster) Drain(timeout time.Duration) error {
	cl.BeginDrain()
	deadline := time.Now().Add(timeout)
	var first error
	for _, srv := range cl.servers {
		remain := time.Until(deadline)
		if remain < 0 {
			remain = 0
		}
		if err := srv.Drain(remain); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close waits out in-flight delayed sends, then tears down the pool, every
// listener, and every server's sweeper. Call after all participants have
// returned.
func (cl *Cluster) Close() error {
	var first error
	if cl.pool != nil {
		first = cl.pool.Close()
	}
	for _, ln := range cl.listeners {
		if err := ln.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, srv := range cl.servers {
		srv.Close() //nolint:errcheck // always nil
	}
	return first
}
