// Package chaos is the repository's fault-injection harness: small,
// deterministic wreckers that the resilience tests aim at the solvers and
// the serving path. It can kill a solve at any level barrier (Kill), make a
// serving rung fail or panic on demand (FailFirst, PanicFirst — shaped for
// serve.Config.EngineFault), and corrupt its answers (CorruptFirst, for
// serve.Config.ResultFault). Outside ttserve's -chaos-* flags, production
// code never calls it; it exists so the tests in this directory and in
// internal/serve can prove the recovery claims of docs/RESILIENCE.md instead
// of asserting them.
package chaos

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/core"
)

// ErrKilled is the sentinel a Kill checkpointer aborts a solve with. Tests
// treat it as the moral equivalent of SIGKILL: the solve stops between two
// level barriers, with every frontier up to and including Level already
// handed to the inner checkpointer.
var ErrKilled = errors.New("chaos: killed after checkpoint")

// Kill is a core.Checkpointer that delegates to Inner (in the tests, one
// that copies the frontier in memory) and then, after Inner has taken the
// frontier for Level, returns ErrKilled. Because the core/parttsolve/bvmtt
// solvers abort on a checkpointer error, this simulates a process dying
// immediately after its last saved frontier — the worst moment that still
// has to resume exactly.
type Kill struct {
	Inner core.Checkpointer // may be nil: kill without persisting anything
	Level int               // level barrier to die at
}

// CheckpointLevel implements core.Checkpointer.
func (k *Kill) CheckpointLevel(level int, sol *core.Solution) error {
	if k.Inner != nil {
		if err := k.Inner.CheckpointLevel(level, sol); err != nil {
			return err
		}
	}
	if level == k.Level {
		return fmt.Errorf("%w (level %d)", ErrKilled, level)
	}
	return nil
}

// FailFirst returns an engine-fault hook (for serve.Config.EngineFault) that
// fails the named rung's first n solve attempts with err, then heals. Other
// rungs pass through untouched — the shape needed to prove the approx
// fallback works and that a healed path serves again on its next request.
func FailFirst(engine string, n int64, err error) func(string) error {
	var calls atomic.Int64
	return func(e string) error {
		if e != engine {
			return nil
		}
		if calls.Add(1) <= n {
			return err
		}
		return nil
	}
}

// CorruptFirst returns a result-corruption hook (for serve.Config.ResultFault)
// that silently corrupts the named engine's first n answers, then heals — the
// shape needed to prove certify-before-cache keeps wrong answers out of the
// cache and off the wire.
func CorruptFirst(engine string, n int64) func(string) bool {
	var calls atomic.Int64
	return func(e string) bool {
		return e == engine && calls.Add(1) <= n
	}
}

// PanicFirst is FailFirst with a panic instead of an error return: the first
// n solve attempts on the named engine panic with msg. It proves the serving
// layer's per-solve panic isolation (a crashing engine must translate to a
// failed attempt, not a crashed process).
func PanicFirst(engine string, n int64, msg string) func(string) error {
	var calls atomic.Int64
	return func(e string) error {
		if e == engine && calls.Add(1) <= n {
			panic(msg)
		}
		return nil
	}
}
