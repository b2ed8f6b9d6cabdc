package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/stripe"
)

// ctxStride is how many subsets a solver processes between context polls: a
// power of two large enough to keep the poll off the hot path and small
// enough that cancellation lands within microseconds of the deadline.
const ctxStride = 1 << 12

// sweepRangeHook, when non-nil, is called at the start of every Gosper range
// the level driver runs, and once, with the set {0}, at the start of the
// one-range sweep. Test-only: it lets the fault-injection tests panic inside
// a worker and prove the sweep fails cleanly instead of deadlocking, and lets
// the range-rule tests count the ranges of each level.
var sweepRangeHook func(start Set)

// minRangeEvals is the least work, in (set, action) evaluations, that earns
// a Gosper range of its own: handing a range to the pool and meeting it at
// the barrier costs about as much as this many evaluations, so a smaller
// level runs inline as one range. It was chosen from the idle one-range
// against two-range times in EXPERIMENTS.md ("Exact engine verdict"). A
// variable only so that the package tests can lower it and split every
// level.
var minRangeEvals uint64 = 1 << 12

// sweepOne is the exact sweep of a solve with one range: Garey's backward
// induction in numeric order, s = 1..2^K−1, one direct Kernel.Cost call per
// set. It needs no level driver, because every proper subset of S is
// numerically smaller than S. The sets below 2^j are the subsets of the
// first j objects, so all of them are final once s reaches 2^j−1; the
// progress hook runs there, for j = 1..K−1, as often as the level driver
// runs it. Numeric order beat Gosper levels visited inline on three of the
// four domains (EXPERIMENTS.md, "One-range sweep"). It polls ctx every
// ctxStride sets and returns a panic as the level driver does.
func sweepOne(ctx context.Context, kn Kernel, c []uint64, k int, progress Progress) (err error) {
	defer func() {
		if x := recover(); x != nil {
			err = fmt.Errorf("core: solver worker panicked: %v", x)
		}
	}()
	if h := sweepRangeHook; h != nil {
		h(1)
	}
	all := uint64(1)<<uint(k) - 1
	for hi := uint64(2); hi <= all+1; hi <<= 1 {
		for lo := hi / 2; lo < hi; lo += ctxStride {
			for s := lo; s < min(lo+ctxStride, hi); s++ {
				c[s] = kn.Cost(c, Set(s))
			}
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if progress != nil && hi-1 < all {
			if err := progress(hi-1, all); err != nil {
				return fmt.Errorf("core: progress hook at %d of %d sets: %w", hi-1, all, err)
			}
		}
	}
	return nil
}

// sweep is the level driver that multi-range solves run under. Subsets are
// visited level by level in popcount order: every C(S) at level j depends
// only on strictly smaller sets, so the sets of one level are independent.
// No level is materialized: each is cut into equal rank ranges of the
// Gosper sequence (numeric order within a popcount), whose starts come from
// combinadic unranking, and each range streams through its sets with
// Gosper's hack.
type sweep struct {
	k       int
	ranges  int // most Gosper rank ranges per level
	actions int // evaluations per set
	pool    *stripe.Pool
	visit   func(s Set) // fills one subset's cost
	// progress, when non-nil, runs at each level barrier but the last.
	progress Progress

	failed atomic.Bool // set by the first failure; ranges bail at their next poll
	once   sync.Once
	err    error
}

// gosperRange is one unit of work: count consecutive sets of one popcount
// level, starting at start.
type gosperRange struct {
	start uint32
	count uint64
}

func (d *sweep) fail(err error) {
	d.once.Do(func() {
		d.err = err
		d.failed.Store(true)
	})
}

// run sweeps levels 1..K. Each level gets as many ranges as it has
// multiples of minRangeEvals of work, at most d.ranges and at least one. It
// polls ctx every ctxStride subsets inside each range and at every level
// barrier, recovers a panic in any range as an error, and returns the first
// failure.
func (d *sweep) run(ctx context.Context) error {
	rs := make([]gosperRange, 0, d.ranges)
	done, all := uint64(0), uint64(1)<<uint(d.k)-1
	for level := 1; level <= d.k; level++ {
		total := binomial(d.k, level)
		n := min(uint64(d.ranges), max(1, total*uint64(d.actions)/minRangeEvals))
		chunk := (total + n - 1) / n
		rs = rs[:0]
		for lo := uint64(0); lo < total; lo += chunk {
			rs = append(rs, gosperRange{start: nthSubset(lo, level), count: min(chunk, total-lo)})
		}
		if len(rs) > 1 {
			// Run is the level barrier: level j+1 reads level j's values
			// only after every range of level j has finished.
			d.pool.Run(len(rs), func(i int) { d.walk(ctx, rs[i]) })
		} else {
			d.walk(ctx, rs[0])
		}
		if d.failed.Load() {
			return d.err
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		done += total
		if d.progress != nil && done < all {
			if err := d.progress(done, all); err != nil {
				return fmt.Errorf("core: progress hook at %d of %d sets: %w", done, all, err)
			}
		}
	}
	return nil
}

// walk visits every set of one range.
func (d *sweep) walk(ctx context.Context, rg gosperRange) {
	defer func() {
		if x := recover(); x != nil {
			d.fail(fmt.Errorf("core: solver worker panicked: %v", x))
		}
	}()
	if d.failed.Load() {
		return
	}
	if h := sweepRangeHook; h != nil {
		h(Set(rg.start))
	}
	v := rg.start
	for n := uint64(0); n < rg.count; n++ {
		if n&(ctxStride-1) == ctxStride-1 {
			if d.failed.Load() {
				return
			}
			if err := ctx.Err(); err != nil {
				d.fail(err)
				return
			}
		}
		d.visit(Set(v))
		// Gosper: next higher number with the same popcount.
		c := v & -v
		r := v + c
		v = (r^v)>>2/c | r
	}
}

// binomial returns C(n, k) for the instance sizes the DP supports (n <= 32).
func binomial(n, k int) uint64 {
	if k < 0 || k > n {
		return 0
	}
	c := uint64(1)
	for i := 0; i < k; i++ {
		c = c * uint64(n-i) / uint64(i+1)
	}
	return c
}

// nthSubset returns the subset of popcount j with `rank` predecessors in
// increasing numeric order (equivalently, in the Gosper sequence): the
// combinadic unranking that lets level ranges start anywhere without
// enumerating the level. For fixed popcount, numeric order is colex order,
// so the highest element e of the rank-m subset is the largest e with
// C(e, j) <= m.
func nthSubset(rank uint64, j int) uint32 {
	var set uint32
	for ; j > 0; j-- {
		e := j - 1
		for binomial(e+1, j) <= rank {
			e++
		}
		set |= 1 << uint(e)
		rank -= binomial(e, j)
	}
	return set
}
