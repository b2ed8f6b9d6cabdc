// Package chaos is the repository's fault-injection harness: small,
// deterministic wreckers that the resilience tests aim at the solvers and
// the serving path. It can kill an exact solve mid-sweep through its progress
// hook (Kill), make a serving rung fail or panic on demand (FailFirst,
// PanicFirst — shaped for serve.Config.EngineFault), and corrupt its answers
// (CorruptFirst, for serve.Config.ResultFault). Outside ttserve's -chaos-*
// flags, production code never calls it; it exists so the tests in this
// directory and in internal/serve can prove the recovery claims of
// docs/RESILIENCE.md instead of asserting them.
package chaos

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/core"
)

// ErrKilled is the error a Kill hook aborts a solve with: the moral
// equivalent of SIGKILL between two progress reports. Nothing of the solve
// survives it, so the next solve of the instance starts from scratch.
var ErrKilled = errors.New("chaos: killed mid-solve")

// Kill returns a core.Progress hook that fails the solve with ErrKilled at
// its n-th report and lets every earlier report pass. A solve of K objects
// reports K−1 times, so Kill(n) with n >= K never fires.
func Kill(n int) core.Progress {
	reports := 0
	return func(done, total uint64) error {
		if reports++; reports == n {
			return fmt.Errorf("%w (%d of %d sets done)", ErrKilled, done, total)
		}
		return nil
	}
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
