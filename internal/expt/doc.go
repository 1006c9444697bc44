// Package expt is the experiment harness: it wires algorithms, adversary
// strategies and the kernel into runnable experiments, aggregates multi-seed
// sweeps, fits scaling exponents and renders the tables that `reproduce
// -scale standard -markdown` prints. Every table and claim-figure of the
// paper's evaluation has a generator here, driven by cmd/reproduce and
// bench_test.go.
//
// The harness runs on the sim backend exclusively: its experiments quantify
// the paper's claims under the model's strong adaptive adversary, where
// virtual time and deterministic replay make every number reproducible from
// a seed. Wall-clock questions — throughput, latency percentiles, behavior
// under injected faults and latency — belong to internal/campaign and the
// scenario engine of internal/fault, which run on the live backend.
package expt
