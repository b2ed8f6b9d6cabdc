package core

import (
	"context"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/stripe"
)

// ctxStride is how many subsets a solver processes between context polls: a
// power of two large enough to keep the poll off the hot path and small
// enough that cancellation lands within microseconds of the deadline.
const ctxStride = 1 << 12

// sweepBlockHook, when non-nil, is called at the start of every block the
// sweep runs, with the block's number b and the sweep's block bits j; a
// one-range sweep is the single block (0, 0). Test-only: it lets the
// fault-injection tests panic inside a worker and prove the sweep fails
// cleanly instead of deadlocking, and lets the block-rule tests count
// blocks.
var sweepBlockHook func(b uint64, j int)

// minRangeEvals is the least work, in (set, action) evaluations, that earns
// a block of its own: handing a block to the pool costs about as much as
// this many evaluations, so the sweep cuts no block smaller. It was chosen
// from the idle one-range against two-range times in EXPERIMENTS.md ("Exact
// engine verdict"). A variable only so that the package tests can lower it
// and cut small instances into many blocks.
var minRangeEvals uint64 = 1 << 12

// blocksPerRange caps the blocks at 32 per range. More blocks balance the
// ranges no better and add barriers and hand-offs: at 2 ranges, 64 blocks
// ran K = 15–16 up to 11% faster than 256 (EXPERIMENTS.md, "Subcube block
// sweep").
const blocksPerRange = 32

// blockBits returns j, the number of top objects that cut the lattice into
// 2^j blocks: the most that leaves every block minRangeEvals evaluations
// (2^(K−j) sets of `actions` each) and makes at most blocksPerRange blocks
// per range. One range, or a j below 2, is j = 0: one block, since with
// j = 1 the two blocks of the lattice depend on each other and nothing runs
// in parallel.
func blockBits(k, ranges, actions int) int {
	if ranges <= 1 {
		return 0
	}
	j := k
	for j > 0 && (uint64(actions)<<uint(k-j) < minRangeEvals || 1<<uint(j)/blocksPerRange > ranges) {
		j--
	}
	if j < 2 {
		return 0
	}
	return j
}

// sweep is the exact sweep behind every solve: Garey's backward induction,
// one direct Kernel.Cost call per set, on subcube blocks. The top j objects
// cut the 2^K sets into 2^j blocks; block b holds the sets whose top j bits
// are b, and is swept in numeric order of its low K−j bits. Every proper
// subset of a set in block b lies in b itself, numerically smaller, or in a
// block b' ⊊ b, so once the blocks of popcount below |b| are final the
// blocks of one popcount are independent. They run popcount by popcount on
// the stripe pool, min(ranges, blocks) shards pulling blocks from a shared
// cursor: j+1 barriers in all, where the paper's ASCEND over the hypercube
// has one per dimension. With j = 0 the sweep is the plain numeric loop
// s = 1..2^K−1.
type sweep struct {
	ctx      context.Context
	kn       Kernel
	c        []uint64
	k, j     int
	progress Progress

	failed atomic.Bool // set by the first failure; blocks bail at their next poll
	once   sync.Once
	err    error
}

// run sweeps every block and returns the first failure: the context's
// error, a progress hook's error, or a panic in any block. Block 0, the
// subsets of the low K−j objects, runs on the calling goroutine and reports
// progress at done = 2^i−1 for i = 1..K−j, once every subset of the first i
// objects is final; each popcount level of blocks but the last reports at
// its barrier, so the hook runs K−1 times in all.
func (d *sweep) run(ranges int, pool *stripe.Pool) error {
	d.block(0)
	low := uint(d.k - d.j)
	var level []uint64
	done := uint64(1) // blocks final
	for p := 1; p <= d.j && !d.failed.Load(); p++ {
		level = level[:0]
		for b := uint64(1); b < 1<<uint(d.j); b++ {
			if bits.OnesCount64(b) == p {
				level = append(level, b)
			}
		}
		var next atomic.Int64
		// Run is the level barrier: the blocks of popcount p+1 read those
		// of popcount p only after every one has finished.
		pool.Run(min(ranges, len(level)), func(int) {
			for i := next.Add(1) - 1; i < int64(len(level)); i = next.Add(1) - 1 {
				d.block(level[i])
			}
		})
		done += uint64(len(level))
		if !d.failed.Load() {
			d.report(done<<low - 1)
		}
	}
	if d.failed.Load() {
		return d.err
	}
	return nil
}

func (d *sweep) fail(err error) {
	d.once.Do(func() {
		d.err = err
		d.failed.Store(true)
	})
}

// block sweeps block b, recovering a panic as the sweep's failure.
func (d *sweep) block(b uint64) {
	defer func() {
		if x := recover(); x != nil {
			d.fail(fmt.Errorf("core: solver worker panicked: %v", x))
		}
	}()
	if d.failed.Load() {
		return
	}
	if h := sweepBlockHook; h != nil {
		h(b, d.j)
	}
	low := uint(d.k - d.j)
	if b != 0 {
		d.fill(b<<low, (b+1)<<low)
		return
	}
	// The sets below 2^i are the subsets of the first i objects.
	for hi := uint64(2); hi <= 1<<low; hi <<= 1 {
		if !d.fill(hi/2, hi) || !d.report(hi-1) {
			return
		}
	}
}

// fill computes C(S) for S = lo..hi−1 in numeric order, polling the failed
// flag and the context every ctxStride sets. It reports whether the sweep
// is still running.
func (d *sweep) fill(lo, hi uint64) bool {
	kn, c := d.kn, d.c
	for ; lo < hi; lo += ctxStride {
		for s := lo; s < min(lo+ctxStride, hi); s++ {
			c[s] = kn.Cost(c, Set(s))
		}
		if d.failed.Load() {
			return false
		}
		if err := d.ctx.Err(); err != nil {
			d.fail(err)
			return false
		}
	}
	return true
}

// report passes done to the progress hook unless every set is final, and
// reports whether the sweep is still running.
func (d *sweep) report(done uint64) bool {
	all := uint64(1)<<uint(d.k) - 1
	if d.progress == nil || done >= all {
		return true
	}
	if err := d.progress(done, all); err != nil {
		d.fail(fmt.Errorf("core: progress hook at %d of %d sets: %w", done, all, err))
		return false
	}
	return true
}
