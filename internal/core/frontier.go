package core

import "fmt"

// The backward-induction sweep is naturally checkpointable at level
// barriers: once every subset of popcount <= j is final, the entire
// resumable state of the solve is the C frontier plus the cursor j —
// everything else (p(S), argmins, per-engine machine planes) is
// deterministically recomputable from the problem and that frontier.
// Checkpointer receives those frontiers at every barrier; Frontier carries
// one back into a solve. Nothing in the repository persists them: a crashed
// solve is re-solved, which measured faster than a resume from disk at
// every admissible K (EXPERIMENTS.md, "Checkpoint plane verdict").

// Checkpointer receives level-frontier snapshots of a DP sweep. Engines call
// CheckpointLevel after every completed level barrier j < K with a Solution
// whose C entries are final for every subset of popcount <= j; entries above
// the frontier are untrusted. The Solution is the engine's live table —
// implementations must copy what they keep and must not mutate it. Returning
// an error aborts the solve with that error (wrap persistence failures in a
// swallowing adapter if the solve should outlive them).
type Checkpointer interface {
	CheckpointLevel(level int, sol *Solution) error
}

// Frontier is a restored level frontier: C is a full 2^K table whose entries
// are final for every subset of popcount <= Level. Entries above the
// frontier carry no information and are recomputed by the resuming engine.
// Any engine resumes from any frontier: an engine that needs argmins for the
// restored levels recomputes them with Kernel.Cell.
type Frontier struct {
	Level int
	C     []uint64
}

// Validate checks the frontier's geometry against a universe of k objects.
func (f *Frontier) Validate(k int) error {
	if f == nil {
		return fmt.Errorf("core: nil frontier")
	}
	if k < 1 || k > MaxK {
		return fmt.Errorf("core: frontier universe size %d outside [1,%d]", k, MaxK)
	}
	if f.Level < 0 || f.Level > k {
		return fmt.Errorf("core: frontier level %d outside [0,%d]", f.Level, k)
	}
	if size := 1 << uint(k); len(f.C) != size {
		return fmt.Errorf("core: frontier has %d costs for a %d-object universe", len(f.C), k)
	}
	if f.C[0] != 0 {
		return fmt.Errorf("core: frontier C(∅) = %d, want 0", f.C[0])
	}
	return nil
}
