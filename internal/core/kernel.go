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
//   - per-byte tables of (weight, floor) pairs, so that p(S) =
//     Σ_b W_b[byte_b(S)] costs one lookup per byte of S (at most four,
//     since K <= MaxK = 26) instead of one add per member, and the floor
//     L(S) = Σ_{x∈S} w_x·τ_x, with τ_x the cost of the cheapest treatment
//     containing x, comes from the same cache line; an object no treatment
//     covers makes every floor entry that holds it Inf;
//   - one 8-byte record per action, in action order, for Cell: the
//     action's set in bits 0..25, the treatment flag in bit 31, and its
//     cost in the high word (Validate bounds costs by maxInput < 2^32).
//     The loop never touches the 40-byte Action structs or their names;
//   - the same records again, treatments first and then tests, each group
//     stably sorted by cost, for Cost's early exits.
//
// The two loops serve different callers. Cost is for sweeps, solo and
// batched alike, which need only C(S): it prices cheapest first and stops
// early. Cell is for argmins (tree extraction, policies, Explain, and the
// parttsolve machine's ABFT mirror, which audits choices): it prices every
// action in index order so that ties go to the lowest index. Weight and
// Floor read the tables alone, for the solvers that price sets without a
// plane: the greedy and lookahead heuristics and internal/approx's bounds.
//
// A Kernel is immutable after Compile and safe for concurrent use. It
// aliases nothing in the Problem, so later edits to the Problem do not reach
// it.
type Kernel struct {
	words int      // table words at the head of mem: 512 per byte of S
	n     int      // actions: records per copy
	nt    int      // treatments: the cost-ordered copy's tests start here
	mem   []uint64 // (weight, floor) tables, records in action order, then by kind and cost
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
	words := (p.K + 7) / 8 << 9
	n := len(p.Actions)
	mem := make([]uint64, words+2*n)
	// floor[x] becomes w_x·τ_x, or Inf while no treatment covers x.
	var floor [MaxK]uint64
	for x := range floor {
		floor[x] = Inf
	}
	nt := 0
	recs := mem[words : words+n]
	for i, a := range p.Actions {
		recs[i] = a.Cost<<32 | uint64(a.Set)
		if !a.Treatment {
			continue
		}
		recs[i] |= treatBit
		nt++
		for x := 0; x < p.K; x++ {
			if a.Set.Has(x) {
				floor[x] = min(floor[x], a.Cost)
			}
		}
	}
	for x, w := range p.Weights {
		if floor[x] != Inf {
			floor[x] *= w // <= maxInput², exact
		}
	}
	byteTables(mem[:words], p.Weights, 0)
	byteTables(mem[:words], floor[:p.K], 1)
	// Stable, so equal costs keep action order within each group.
	byCost := mem[words+n:]
	copy(byCost, recs)
	slices.SortStableFunc(byCost, func(a, b uint64) int {
		if c := cmp.Compare(b&treatBit, a&treatBit); c != 0 {
			return c // treatments first
		}
		return cmp.Compare(a>>32, b>>32)
	})
	return Kernel{words: words, n: n, nt: nt, mem: mem}, nil
}

// byteTables fills one lane of the interleaved tables t: entry x of byte
// b's table, at t[(b<<8|x)<<1|lane], is the saturating sum of v over the
// objects 8b+i for the bits i set in x. Each table is built by doubling: the
// subsets containing object 8b+i are those without it, plus v[8b+i].
func byteTables(t, v []uint64, lane int) {
	for e := 0; e < len(t)>>1; e += 256 { // e = b<<8
		for i, half := 0, 1; i < 8; i, half = i+1, half<<1 {
			var w uint64
			if j := e>>5 + i; j < len(v) {
				w = v[j]
			}
			for x := 0; x < half; x++ {
				t[(e+half+x)<<1|lane] = addSat(t[(e+x)<<1|lane], w)
			}
		}
	}
}

// Weight returns p(S), the total weight of the objects in s.
func (kn Kernel) Weight(s Set) uint64 {
	var sum uint64
	x := uint32(s)
	for b := 0; b < kn.words; b += 512 { // table b/512 reads byte b/512 of s
		sum += kn.mem[b|int(x&255)<<1]
		x >>= 8
	}
	return sum
}

// Floor returns the treatment floor L(S) = Σ_{x∈S} w_x·τ_x, a lower bound
// on C(S) (see Cost), or Inf when s holds an object no treatment covers.
func (kn Kernel) Floor(s Set) uint64 {
	var sum uint64
	x := uint32(s)
	for b := 0; b < kn.words; b += 512 {
		sum = addSat(sum, kn.mem[b|int(x&255)<<1|1])
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

// Cost is Cell's cost without its choice, for sweeps, which store the
// result at c[s]. It first stores Inf there itself, so an action that would
// not shrink S prices at Inf with no test, as the paper's infinity
// initialization excludes it: a treatment with S∩T_i = ∅ reads c[S−T_i] =
// c[s], and a test with S∩T_i ∈ {∅, S} reads c[s] + c[∅]. It prices the
// treatments cheapest first, then the tests cheapest first, and stops each
// walk at any record, applicable or not, whose bound reaches the best:
//
//   - a treatment's M[S,i] >= t_i·p(S), since plane entries are >= 0 and
//     the additions saturate upward, so the treatments stop at the first
//     record with t_i·p(S) >= best;
//   - a test's M[S,i] = t_i·p(S) + c[S∩T_i] + c[S−T_i] >= t_i·p(S) + L(S)
//     whenever c[X] >= L(X) for both parts, because L is additive over the
//     disjoint parts; so the tests stop at the first record with
//     t_i·p(S) + L(S) >= best.
//
// The records are sorted by cost, so each bound holds for every later
// record of its walk. Neither stop skips a strictly cheaper action, so:
//
//   - Cost equals Cell's cost on any plane with c[X] >= L(X) for every
//     proper subset X of s.
//   - Cost is never below Cell's cost on any plane: it returns the minimum
//     of Inf and some of the M[S,i] that Cell minimizes over.
//
// Every plane a sweep builds meets the first rule, by induction over the
// levels. The base is C(∅) = 0 = L(∅). For X ≠ ∅, assume C(Y) >= L(Y) for
// every proper subset Y; then every applicable action prices at >= L(X):
//
//   - a treatment T adds t·p(X) >= Σ_{x∈X∩T} w_x·τ_x, since t >= τ_x for
//     every x it contains, to C(X−T) >= L(X−T);
//   - a test adds t·p(X) >= 0 to C(X∩T) + C(X−T) >= L(X∩T) + L(X−T) = L(X).
//
// So C(X) = min_i M[X,i] >= L(X), and C(X) = Inf >= L(X) when no action
// applies. (An object that no treatment covers has τ_x = Inf: it stays in
// some part under every action, so every set holding it costs Inf.) The
// sweeps, and the ABFT mirror that re-runs them over true values, thus get
// Cell's costs exactly; an arbitrary plane, such as FuzzKernelCell feeds,
// may read higher.
//
// The body repeats cell's rather than sharing a helper, which the compiler
// does not inline, and tests each exit inside its loop: a shared helper
// measured slower (EXPERIMENTS.md, "Cost-ordered early exit"), and so did
// keeping the exclusion as a branch-free mask (EXPERIMENTS.md,
// "Exclusion-free kernel"). It slices mem in place rather than through a
// method, whose receiver copy also measured slower (EXPERIMENTS.md,
// "Treatment-floor bound").
func (kn Kernel) Cost(c []uint64, s Set) uint64 {
	// p(S) and L(S) in one pass. Finite floor entries are at most
	// 8·maxInput², so only an Inf entry can saturate L(S).
	var ps, lb uint64
	x := uint32(s)
	for b := 0; b < kn.words; b += 512 {
		i := b | int(x&255)<<1
		ps += kn.mem[i]
		lb = addSat(lb, kn.mem[i+1])
		x >>= 8
	}
	c[s] = Inf
	best := Inf
	recs := kn.mem[kn.words+kn.n:] // the cost-ordered copy
	for _, r := range recs[:kn.nt] {
		tp := r >> 32 * ps
		if tp >= best {
			break // this treatment and every later one price at >= best
		}
		if m := addSat(tp, c[s&^Set(r)]); m < best {
			best = m
		}
	}
	for _, r := range recs[kn.nt:] {
		tp := r >> 32 * ps
		if addSat(tp, lb) >= best {
			break // this test and every later one price at >= best
		}
		if m := addSat(tp, addSat(c[s&Set(r)], c[s&^Set(r)])); m < best {
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
