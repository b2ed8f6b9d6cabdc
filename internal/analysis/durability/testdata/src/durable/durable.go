// Seeded true positives and near-miss negatives for the durability analyzer:
// checkpoint failures must cost durability, never answers.
package durable

import (
	"context"
	"fmt"

	"checkpoint"
)

type answer struct{ cost uint64 }

// True positive: the checkpoint error becomes the solve's error — an ENOSPC
// takes down the answer.
func solveAndPersist(w *checkpoint.Writer) (*answer, error) {
	a := &answer{cost: 7}
	if err := w.CheckpointLevel(1); err != nil {
		return nil, err // want "durability error \"err\" flows into this return"
	}
	return a, nil
}

// True positive: returning the durability call directly.
func finish(w *checkpoint.Writer) error {
	return w.Discard() // want "durability error is returned"
}

// True positive: wrapping does not launder the taint.
func wrapped(w *checkpoint.Writer) error {
	err := w.CheckpointLevel(2)
	if err != nil {
		return fmt.Errorf("persist frontier: %w", err) // want "durability error \"err\" flows into this return"
	}
	return nil
}

// True positive: package-level functions taint too.
func resume(dir string) ([]string, error) {
	names, err := checkpoint.Scan(dir)
	if err != nil {
		return nil, err // want "durability error \"err\" flows into this return"
	}
	return names, nil
}

// Negative: the best-effort contract — count it, log it, return nil.
func bestEffort(w *checkpoint.Writer, dropped *int) error {
	if err := w.CheckpointLevel(1); err != nil {
		*dropped++
		return nil
	}
	return nil
}

// Near-miss negative: err is re-assigned from a non-durability source before
// the return; the value flowing out is the solver's, not the checkpointer's.
func relayered(w *checkpoint.Writer, solve func() error) error {
	err := w.CheckpointLevel(1)
	if err != nil {
		err = solve()
	}
	return err
}

// Near-miss negative: a context error returned alongside a swallowed
// durability error is cancellation, not durability.
func withCtx(ctx context.Context, w *checkpoint.Writer) error {
	if err := w.CheckpointLevel(1); err != nil {
		_ = err
	}
	return ctx.Err()
}

// Near-miss negative: inspecting the error (logging, counting) without
// returning it is exactly what best-effort wrappers do.
func counted(w *checkpoint.Writer, log func(string, error)) {
	if err := w.Discard(); err != nil {
		log("discard failed", err)
	}
}

// Negative: codec errors are corruption signals, not durability failures —
// a reader that swallowed them would resume from garbage. They may be
// returned.
func readFrontier(data []byte) ([]uint64, error) {
	frontier, err := checkpoint.Decode(data)
	if err != nil {
		return nil, fmt.Errorf("frontier rejected: %w", err)
	}
	return frontier, nil
}

// Negative: hashing is codec surface too.
func keyFor(v any) (string, error) {
	return checkpoint.ProblemHash(v)
}

// Near-miss negative: middleware that implements checkpoint.FS is the store
// itself — it must propagate durability errors to the layer that decides.
type faultFS struct{ inner checkpoint.FS }

func (f *faultFS) WriteFile(name string, data []byte) error {
	return f.inner.WriteFile(name, data)
}

func (f *faultFS) Rename(oldname, newname string) error {
	return f.inner.Rename(oldname, newname)
}
