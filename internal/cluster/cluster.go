// Package cluster is the distributed solve plane: the level-synchronous DP
// over the 2^K subset lattice sharded across worker processes. The paper's
// structure maps directly onto a coordinator/worker wire protocol — subsets
// of one popcount level are independent and synchronize only at level
// barriers — so the coordinator assigns contiguous Gosper rank ranges
// ("slices") of each level to workers, collects the computed C planes, and
// broadcasts the merged level back before advancing. Transport reuses the
// CRC-framed internal/checkpoint encoding (checkpoint.Plane), so the wire
// format inherits the file format's defensive decoding: every
// framing defect lands in checkpoint.ErrCorrupt, never in a wrong frontier.
//
// The plane is fault-tolerant by construction, extending the chaos + certify
// layers from in-process faults to node-level failures:
//
//   - Verification before merge. Every received plane must carry the FNV-1a
//     running checksum of the frozen frontier it was computed from and the
//     checksum of its p(S) values (the PR 5 ABFT checksums), and must pass
//     per-cell monotonicity plus a seeded spot-audit that recomputes sampled
//     cells from the recurrence over the coordinator's own trusted frontier.
//     A failing plane is refused, its violations are attributed to the
//     worker (certify.Violation.Node), and the slice is reassigned.
//   - Strikes and reassignment. A worker whose plane fails verification is
//     suspect: it is deprioritized for new work and removed entirely after
//     MaxStrikes. Reassigned slices retry with bounded jittered backoff.
//   - Deadlines and heartbeats. Each assignment carries a plane deadline
//     (stragglers are struck and their slices reassigned; late planes are
//     discarded as stale), and idle workers are pinged so a silent partition
//     is detected even between assignments. A worker whose connection
//     errors is removed immediately.
//   - Quorum and graceful degradation. The solve continues as long as at
//     least Quorum workers remain — down to a single worker — and fails
//     closed with ErrQuorumLost otherwise. The serving layer runs the
//     cluster engine inside the same breaker/retry/fallback chain as every
//     other engine, so quorum loss degrades to the in-process parallel and
//     sequential DPs, and every cluster answer still passes the
//     engine-independent certifier before it is cached or served.
//
// Worker logic is a pure protocol state machine (Machine, modeled on the
// ID/Handle player abstraction of mpc inversion-network tests) pumped over a
// net.Conn by RunWorker, so the same fault matrix — Honest, Offline,
// Malicious, Slow, Corrupt-plane — drives both the in-process unit tests
// (net.Pipe) and the real ttworker processes of the multi-process smoke
// harness. See docs/CLUSTER.md for the protocol and the fault matrix.
package cluster

import (
	"errors"
	"fmt"
	"log/slog"
	"time"

	"repro/internal/certify"
	"repro/internal/core"
)

// ErrQuorumLost is the sentinel for a solve that ran out of workers: fewer
// than Options.Quorum remain alive. The solve fails closed — no partial or
// unverified answer is returned — and the serving layer's fallback chain
// takes over in-process.
var ErrQuorumLost = errors.New("cluster: quorum lost")

// ErrNoWorkers is returned by Dial when no configured worker could be
// reached at all.
var ErrNoWorkers = errors.New("cluster: no workers reachable")

// QuorumError carries the context of a quorum loss: where the solve was and
// how many workers survived. errors.Is(err, ErrQuorumLost) matches it.
type QuorumError struct {
	Level  int // level the solve was computing when the quorum broke
	Live   int // workers still alive
	Quorum int // minimum required
}

func (e *QuorumError) Error() string {
	return fmt.Sprintf("cluster: quorum lost at level %d: %d worker(s) alive, need %d", e.Level, e.Live, e.Quorum)
}

func (e *QuorumError) Unwrap() error { return ErrQuorumLost }

// Options tunes a distributed solve; zero values select the defaults noted
// per field.
type Options struct {
	Slices           int           // level slices dispatched per level (default 2× workers)
	PlaneDeadline    time.Duration // per-assignment compute+return budget (default 30s)
	HandshakeTimeout time.Duration // hello → hello-ok budget per worker (default 5s)
	HeartbeatEvery   time.Duration // ping cadence to idle workers (default 1s)
	HeartbeatMiss    int           // silent heartbeat intervals before a worker is dead (default 3)
	MaxStrikes       int           // verify failures / straggles before a worker is removed (default 2)
	SliceRetries     int           // reassignments per slice beyond the first attempt (default 8)
	Quorum           int           // minimum live workers to continue (default 1)
	AuditFraction    float64       // share of each plane's cells spot-recomputed (default 0.125; >= 1 audits every cell)
	Seed             int64         // audit sampling seed (deterministic per level slice)

	Hash         string            // canonical instance hash; computed when empty
	Frontier     *core.Frontier    // resume from a restored level frontier
	Checkpointer core.Checkpointer // fired at every merged level barrier j < K
	Logger       *slog.Logger      // default slog.Default()
}

func (o Options) withDefaults(workers int) Options {
	if o.Slices <= 0 {
		o.Slices = 2 * workers
	}
	if o.PlaneDeadline <= 0 {
		o.PlaneDeadline = 30 * time.Second
	}
	if o.HandshakeTimeout <= 0 {
		o.HandshakeTimeout = 5 * time.Second
	}
	if o.HeartbeatEvery <= 0 {
		o.HeartbeatEvery = time.Second
	}
	if o.HeartbeatMiss <= 0 {
		o.HeartbeatMiss = 3
	}
	if o.MaxStrikes <= 0 {
		o.MaxStrikes = 2
	}
	if o.SliceRetries <= 0 {
		o.SliceRetries = 8
	}
	if o.Quorum <= 0 {
		o.Quorum = 1
	}
	if o.AuditFraction == 0 {
		o.AuditFraction = 0.125
	}
	if o.Logger == nil {
		o.Logger = slog.Default()
	}
	return o
}

// Stats summarizes one distributed solve for the serving layer's counters
// and for the fault-matrix assertions in tests.
type Stats struct {
	Workers        int   // workers that completed the handshake
	Planes         int64 // planes verified and merged
	PlanesRejected int64 // planes refused: framing corruption or failed verification
	Reassigned     int64 // slice reassignments, any cause
	Stragglers     int64 // assignments expired by the plane deadline
	StalePlanes    int64 // late, duplicate, or unsolicited planes discarded
	WorkersLost    int64 // workers removed: dead conn, heartbeat silence, or strikes
	AuditedCells   int64 // cells recomputed by the spot audit

	// Violations is the node-attributed evidence gathered from refused
	// planes, capped like a certify report.
	Violations []certify.Violation
}
