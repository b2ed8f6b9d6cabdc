package core

import (
	"cmp"
	"math/bits"
	"slices"
)

// Kernel is a Problem compiled for the recurrence's inner loop. Compile
// validates the problem once and packs everything Cell and Cost read into a
// single allocation:
//
//   - per-byte weight tables, so that p(S) = Σ_b W_b[byte_b(S)] costs one
//     lookup per byte of S (at most four, since K <= MaxK = 26) instead of
//     one add per member;
//   - one 8-byte record per action, in action order: the action's set in
//     bits 0..25, the treatment flag in bit 31, and its cost in the high
//     word (Validate bounds costs by maxInput < 2^32). The loop never
//     touches the 40-byte Action structs or their names;
//   - the same records again, stably sorted by cost, for Cost's early exit.
//
// The two loops serve different callers. Cost is for sweeps, which need
// only C(S): it prices cheapest first and stops early. Cell is for argmins
// (tree extraction, policies, Explain, and the parttsolve machine's
// frontier and ABFT mirror, which audit choices): it prices every action in
// index order so that ties go to the lowest index.
//
// A Kernel is immutable after Compile and safe for concurrent use. It
// aliases nothing in the Problem, so later edits to the Problem do not reach
// it.
type Kernel struct {
	words int      // weight-table words at the head of mem: 256 per byte of S
	n     int      // actions: records per copy
	mem   []uint64 // weight tables, the records in action order, then by cost
}

// treatBit marks a treatment in a record. It lies above every object bit, so
// s & Set(record) and s &^ Set(record) see the action's set alone.
const treatBit = 1 << 31

// Compile validates p and returns its kernel. A problem that fails Validate
// is refused: Validate bounds every weight and cost by maxInput, so t·p(S)
// is at most maxInput·(MaxK·maxInput) < 2^63, and Cell multiplies without a
// saturation guard on the strength of it (TestKernelProductBound pins the
// inequality).
func Compile(p *Problem) (*Kernel, error) {
	kn, err := compile(p)
	if err != nil {
		return nil, err
	}
	return &kn, nil
}

// compile is Compile by value, for callers that keep the kernel inside
// another object (a sweep closure) rather than paying a second allocation.
func compile(p *Problem) (Kernel, error) {
	if err := p.Validate(); err != nil {
		return Kernel{}, err
	}
	words := (p.K + 7) / 8 << 8
	n := len(p.Actions)
	mem := make([]uint64, words+2*n)
	// Table b holds the weight of every subset of objects 8b..8b+7, built
	// by doubling: the subsets containing object 8b+i are those without it
	// plus its weight.
	for b := 0; b < words>>8; b++ {
		t := mem[b<<8 : (b+1)<<8]
		for i, half := 0, 1; i < 8; i, half = i+1, half<<1 {
			var w uint64
			if j := 8*b + i; j < p.K {
				w = p.Weights[j]
			}
			for x := 0; x < half; x++ {
				t[half+x] = t[x] + w
			}
		}
	}
	recs := mem[words : words+n]
	for i, a := range p.Actions {
		recs[i] = a.Cost<<32 | uint64(a.Set)
		if a.Treatment {
			recs[i] |= treatBit
		}
	}
	// Stable, so equal costs keep action order.
	byCost := mem[words+n:]
	copy(byCost, recs)
	slices.SortStableFunc(byCost, func(a, b uint64) int { return cmp.Compare(a>>32, b>>32) })
	return Kernel{words: words, n: n, mem: mem}, nil
}

// Weight returns p(S), the total weight of the objects in s.
func (kn Kernel) Weight(s Set) uint64 {
	var sum uint64
	x := uint32(s)
	for b := 0; b < kn.words; b += 256 { // table b/256 reads byte b/256 of s
		sum += kn.mem[b|int(x&255)]
		x >>= 8
	}
	return sum
}

// Cell evaluates the recurrence at one nonempty set s of the compiled
// universe against a cost plane c whose entries are final for every proper
// subset of s:
//
//	M[S,i] = t_i·p(S) + C(S∩T_i) + C(S−T_i)   (test)
//	M[S,i] = t_i·p(S) + C(S−T_i)              (treatment)
//	C(S)   = min_i M[S,i]
//
// An action that would not shrink S (a test with S∩T_i ∈ {∅, S}, a
// treatment with S∩T_i = ∅) is excluded, as the paper's infinity
// initialization excludes it. Ties go to the lowest action index (strict
// <). It returns (Inf, -1) when no action applies or every applicable one
// prices at Inf. The plane may hold any uint64 values, Inf included: the
// additions saturate exactly, and the product t_i·p(S) needs no guard
// because Compile admits only problems within Validate's bounds. Callers
// that need the choice use this method; sweeps that keep only C(S) use
// Cost.
func (kn Kernel) Cell(c []uint64, s Set) (cost uint64, choice int32) {
	return kn.cell(c, s, 0, kn.n)
}

// Cost is Cell's cost without its choice, for sweeps. It prices the actions
// cheapest first and stops at the first applicable one whose t_i·p(S) alone
// reaches the best M[S,i] so far: every plane entry is >= 0 and the
// additions saturate upward, so M[S,i] >= t_i·p(S) >= best for that action
// and every later one, and none of them can be strictly cheaper. The result
// equals Cell's cost on every plane, Inf entries included. The body repeats
// cell's rather than sharing a helper, which the compiler does not inline,
// and tests the exit inside each branch, after that branch's exclusion: a
// shared helper and one combined exclusion test both measured slower
// (EXPERIMENTS.md, "Cost-ordered early exit").
func (kn Kernel) Cost(c []uint64, s Set) uint64 {
	ps := kn.Weight(s)
	best := Inf
	for _, r := range kn.mem[kn.words+kn.n:] {
		inter := s & Set(r)
		diff := s &^ Set(r)
		var m uint64
		if r&treatBit != 0 {
			if inter == 0 {
				continue // treats nothing in S: excluded
			}
			tp := r >> 32 * ps
			if tp >= best {
				break // this action and every later one price at >= best
			}
			m = addSat(tp, c[diff])
		} else {
			if inter == 0 || diff == 0 {
				continue // does not split S: excluded
			}
			tp := r >> 32 * ps
			if tp >= best {
				break
			}
			m = addSat(tp, addSat(c[inter], c[diff]))
		}
		if m < best {
			best = m
		}
	}
	return best
}

// cell is Cell over actions lo..hi-1 only; Explain prices one action at a
// time through it.
func (kn Kernel) cell(c []uint64, s Set, lo, hi int) (cost uint64, choice int32) {
	ps := kn.Weight(s)
	cost, choice = Inf, -1
	for i, r := range kn.mem[kn.words+lo : kn.words+hi] {
		inter := s & Set(r)
		diff := s &^ Set(r)
		var m uint64
		if r&treatBit != 0 {
			if inter == 0 {
				continue // treats nothing in S: excluded
			}
			m = addSat(r>>32*ps, c[diff])
		} else {
			if inter == 0 || diff == 0 {
				continue // does not split S: excluded
			}
			m = addSat(r>>32*ps, addSat(c[inter], c[diff]))
		}
		if m < cost {
			cost, choice = m, int32(lo+i)
		}
	}
	return cost, choice
}

// addSat is min(a+b, Inf) without a branch: the carry out of the 64-bit add
// is 1 exactly when a+b exceeds Inf, and -carry is then all ones. It is the
// kernel's own primitive; satAdd, which the oracles share, stays separate.
func addSat(a, b uint64) uint64 {
	s, carry := bits.Add64(a, b, 0)
	return s | -carry
}
