// Package rt defines the runtime seam between the leader-election
// algorithms (internal/core, internal/baseline, internal/renaming) and the
// execution backends that run them. The algorithms are written once against
// two small interfaces:
//
//   - Procer: a processor handle — identity, system size, private
//     randomness, coin flips and adversary-visible publication (the
//     Rand/Pause/Flip/Publish surface of sim.Proc; its Send and Await stay
//     concrete, for the sim quorum layer alone);
//   - Comm: the communicate primitive of Attiya, Bar-Noy and Dolev as the
//     paper uses it — Propagate and Collect against named register arrays,
//     each waiting for a majority quorum (the surface of quorum.Comm).
//
// Two backends implement the seam:
//
//   - internal/sim + internal/quorum: the deterministic discrete-event
//     kernel with a strong adaptive adversary (the paper's model, exactly);
//   - internal/live: real OS-scheduled goroutines with channel-backed
//     best-effort broadcast and majority-quorum collect (wall-clock runs
//     with genuine contention), optionally degraded by the fault/latency
//     scenarios of internal/fault.
//
// Beside the seam sits Schedule, the quorum-call schedule the deployed
// substrates share: whom a communicate call asks first, when it widens, how
// it resends. internal/live and internal/electd drive it with their own
// delivery and reply assembly; the sim kernel keeps the paper's send-to-all,
// whose exact counts are the reference.
//
// The shared data types (ProcID, Entry, View) live here so that views
// collected on either backend are interchangeable and the algorithm code is
// backend-blind. Keeping algorithms backend-blind is what lets one
// implementation be checked two ways — exhaustively against the model's
// adversary in simulation, and empirically under real contention, faults
// and latency on live hardware.
package rt
