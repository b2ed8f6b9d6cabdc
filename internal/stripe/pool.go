// Package stripe provides a reusable fixed-size worker pool for
// deterministic data-parallel sweeps: the raw-speed substrate behind the
// striped BVM word-plane executor (internal/bvm) and the host DP's subcube
// block sweep (internal/core), which runs the blocks of one popcount per job.
//
// The pool runs parallel-for jobs: Run(shards, fn) executes fn(0..shards-1)
// across the workers and returns only when every shard has finished — a hard
// barrier, which is exactly the merge discipline the solvers already use at
// their ABFT level barriers. Each unit of work is a pure function of its
// index, whether a shard is handed its units by index (the BVM) or pulls
// them from a shared cursor (the DP's blocks), so results are bit-identical
// for any worker count, including zero.
//
// Two properties make one process-wide pool safe to share across concurrent
// solves (the ttserve case):
//
//   - Overflow runs inline: when every worker is busy, the submitting
//     goroutine executes the shard itself instead of queueing behind other
//     jobs. Run therefore always makes progress, even with nested or deeply
//     concurrent use, and the pool can never deadlock on its own capacity.
//   - Shard panics are recovered (each unit of work is shielded, per the
//     repo's panicsafe discipline), carried to the barrier, and re-raised in
//     the submitting goroutine once all shards have finished — the same
//     blast radius a panic has in single-threaded execution, without ever
//     wedging the barrier or killing an unrelated solve's worker.
package stripe

import (
	"runtime"
	"sync"
)

// task is one shard of a Run call.
type task struct {
	fn    func(shard int)
	shard int
	wg    *sync.WaitGroup
	grab  func(v any) // records the job's first shard panic
}

// runTask executes one shard, shielding the worker (and the pool's barrier
// accounting) from a shard panic: the panic value is recorded for the
// submitting goroutine to re-raise after the barrier.
func runTask(t task) {
	defer t.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			t.grab(r)
		}
	}()
	t.fn(t.shard)
}

// Pool is a reusable set of workers executing parallel-for jobs. The zero
// value is not usable; create pools with New. A Pool is safe for concurrent
// use by multiple goroutines and is never shut down — it is sized to the
// host, not to a request, and idle workers cost only a blocked channel read.
type Pool struct {
	tasks   chan task
	workers int
}

// New builds a pool of n workers (n <= 0 selects GOMAXPROCS). The workers
// are started immediately and live for the life of the process.
func New(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	p := &Pool{tasks: make(chan task), workers: n}
	for i := 0; i < n; i++ {
		go func() {
			for t := range p.tasks {
				runTask(t)
			}
		}()
	}
	return p
}

// Workers returns the pool's worker count.
func (p *Pool) Workers() int { return p.workers }

// Run executes fn(0), .., fn(shards-1) across the pool and returns when all
// shards have completed (the barrier). Shards whose submission finds every
// worker busy run inline in the calling goroutine, so Run always completes
// even under full contention. If any shard panics, the first panic value (in
// completion order) is re-raised in the caller after the barrier; the
// remaining shards still run to completion first, so no partial write is
// ever left racing a recovering caller.
func (p *Pool) Run(shards int, fn func(shard int)) {
	if shards <= 0 {
		return
	}
	if shards == 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	var once sync.Once
	var panicked any
	grab := func(v any) { once.Do(func() { panicked = v }) }
	wg.Add(shards)
	for i := 0; i < shards; i++ {
		t := task{fn: fn, shard: i, wg: &wg, grab: grab}
		select {
		case p.tasks <- t:
		default:
			runTask(t)
		}
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// sharedPool is the process-wide default pool, sized to GOMAXPROCS at first
// use. Every solver that does not get an explicit pool stripes over this one,
// so concurrent solves share one bounded worker set instead of spawning
// goroutines per request.
var (
	sharedOnce sync.Once
	sharedPool *Pool
)

// Shared returns the process-wide pool, creating it on first use.
func Shared() *Pool {
	sharedOnce.Do(func() { sharedPool = New(0) })
	return sharedPool
}

// Range splits n units into `shards` near-equal contiguous spans and returns
// the half-open span of shard i. Deterministic in (n, shards, i) only, so a
// striped sweep partitions identically on every run and every host.
func Range(n, shards, i int) (lo, hi int) {
	if shards <= 0 {
		return 0, n
	}
	q, r := n/shards, n%shards
	lo = i*q + min(i, r)
	hi = lo + q
	if i < r {
		hi++
	}
	return lo, hi
}
