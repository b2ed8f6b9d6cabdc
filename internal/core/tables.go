package core

import (
	"math/bits"
	"sync"
)

// DP table pooling: every solver allocates its 2^K cost plane through
// per-size free lists so a serving process reaches a no-alloc steady state
// instead of handing the GC a fresh 2^K slice per request. Planes come back
// dirty and the solvers are written to tolerate that: each sweep assigns
// every cell it will later read (index 0 is reset explicitly), so no zeroing
// pass is needed. SolveMemo is the deliberate exception — its `known` bitmap
// requires zeroed memory — and keeps plain allocation.
//
// Pooling is transparent to callers that never call Release: an unreleased
// Solution is simply garbage-collected like before. Callers on the request
// path (internal/serve) call Solution.Release once the plane has been
// consumed (tree extracted, certification done) to recycle it.

// tableK returns the pool index for a table of the given length, or -1 when
// the length is not a poolable 2^k size.
func tableK(n int) int {
	if n <= 0 || n&(n-1) != 0 {
		return -1
	}
	k := bits.TrailingZeros(uint(n))
	if k > MaxK {
		return -1
	}
	return k
}

var u64Pools [MaxK + 1]sync.Pool

// getU64 returns a length-2^k uint64 table with arbitrary contents.
func getU64(k int) []uint64 {
	if v := u64Pools[k].Get(); v != nil {
		return *(v.(*[]uint64))
	}
	return make([]uint64, 1<<uint(k))
}

func putU64(t []uint64) {
	if k := tableK(len(t)); k >= 0 {
		u64Pools[k].Put(&t)
	}
}

// Release returns the solution's cost plane to the per-size pools and clears
// it. The solution (and any alias of its plane) must not be used
// afterwards. Safe on nil.
func (s *Solution) Release() {
	if s == nil {
		return
	}
	putU64(s.C)
	s.C = nil
}
