// Package core implements the test-and-treatment (TT) problem, the paper's
// central object of study, together with its sequential dynamic-programming
// solution (the backward-induction baseline the paper attributes to a
// modification of Garey's algorithm), optimal-procedure extraction, and
// greedy baselines from the binary-testing literature.
//
// A TT problem has a universe U = {0, .., K-1} of objects, exactly one of
// which is faulty, with a-priori weights P_j; and N actions, each a subset
// T_i of U with cost t_i. Actions are tests or treatments:
//
//   - a test splits the live candidate set S into S∩T_i (positive response)
//     and S−T_i (negative);
//   - a treatment cures the faulty object if it lies in T_i (the procedure
//     ends) and otherwise the procedure continues on S−T_i.
//
// A successful TT procedure is a binary decision tree that treats every
// object; its expected cost charges each object the costs of all actions on
// its path, weighted by P_j. The minimum expected cost obeys
//
//	C(∅)  = 0
//	C(S)  = min_i M[S,i]
//	M[S,i] = t_i·p(S) + C(S∩T_i) + C(S−T_i)   (tests)
//	M[S,i] = t_i·p(S) + C(S−T_i)              (treatments)
//
// with p(S) = Σ_{j∈S} P_j, where self-referential terms (tests that do not
// split S, treatments that treat nothing) are excluded automatically by the
// infinity-initialization trick of the paper's §5. Weights and costs are
// non-negative integers (scale fixed-point inputs before building a
// Problem); all cost arithmetic saturates at Inf.
package core

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
)

// Inf is the infinite-cost sentinel. Saturating arithmetic keeps every
// computed cost at or below Inf.
const Inf uint64 = math.MaxUint64

// MaxK bounds the universe size: the DP state space is 2^K.
const MaxK = 26

// Set is a subset of the universe as a bitmask: object j is a member iff bit
// j is set.
type Set uint32

// SetOf builds a Set from object indices.
func SetOf(objects ...int) Set {
	var s Set
	for _, o := range objects {
		s |= 1 << uint(o)
	}
	return s
}

// Universe returns the full set {0, .., k-1}.
func Universe(k int) Set { return Set(1)<<uint(k) - 1 }

// Has reports membership of object j.
func (s Set) Has(j int) bool { return s>>uint(j)&1 == 1 }

// Size returns |S|.
func (s Set) Size() int { return bits.OnesCount32(uint32(s)) }

// Objects lists the members in increasing order.
func (s Set) Objects() []int {
	out := make([]int, 0, s.Size())
	for x := uint32(s); x != 0; x &= x - 1 {
		out = append(out, bits.TrailingZeros32(x))
	}
	return out
}

// String renders the set as {a,b,c}.
func (s Set) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	for i, o := range s.Objects() {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%d", o)
	}
	sb.WriteByte('}')
	return sb.String()
}

// Action is one test or treatment.
type Action struct {
	Name      string
	Set       Set    // the subset of the universe the action responds to
	Cost      uint64 // execution cost t_i
	Treatment bool   // false: test; true: treatment
}

// Problem is a TT problem instance.
type Problem struct {
	K       int      // universe size
	Weights []uint64 // a-priori weights P_j, len K
	Actions []Action // tests and treatments, in any order
}

// NumTests returns the number of test actions.
func (p *Problem) NumTests() int {
	n := 0
	for _, a := range p.Actions {
		if !a.Treatment {
			n++
		}
	}
	return n
}

// NumTreatments returns the number of treatment actions.
func (p *Problem) NumTreatments() int { return len(p.Actions) - p.NumTests() }

// TotalWeight returns p(U).
func (p *Problem) TotalWeight() uint64 {
	var t uint64
	for _, w := range p.Weights {
		t = satAdd(t, w)
	}
	return t
}

// maxInput bounds weights and costs so that t_i·p(S) <= maxInput·(MaxK·
// maxInput) < 2^63 and every cost fits in 32 bits: the compiled kernel packs
// costs into its action records and multiplies without a saturation guard
// (TestKernelProductBound).
const maxInput = 1 << 18

// Validate checks structural well-formedness. It does not check adequacy
// (existence of a successful procedure); adequacy falls out of the DP, which
// reports C(U) = Inf for inadequate instances.
func (p *Problem) Validate() error {
	if p.K < 1 || p.K > MaxK {
		return fmt.Errorf("core: universe size %d outside [1,%d]", p.K, MaxK)
	}
	if len(p.Weights) != p.K {
		return fmt.Errorf("core: %d weights for %d objects", len(p.Weights), p.K)
	}
	for j, w := range p.Weights {
		if w > maxInput {
			return fmt.Errorf("core: weight P_%d = %d exceeds %d", j, w, maxInput)
		}
	}
	if len(p.Actions) == 0 {
		return fmt.Errorf("core: no actions")
	}
	u := Universe(p.K)
	anyTreatment := false
	for i, a := range p.Actions {
		if a.Set&^u != 0 {
			return fmt.Errorf("core: action %d (%s) mentions objects outside the universe", i, a.Name)
		}
		if a.Cost > maxInput {
			return fmt.Errorf("core: action %d (%s) cost %d exceeds %d", i, a.Name, a.Cost, maxInput)
		}
		if a.Treatment {
			anyTreatment = true
		}
	}
	if !anyTreatment {
		return fmt.Errorf("core: no treatments; no object can ever be treated")
	}
	return nil
}

// Clone returns a deep copy of the problem.
func (p *Problem) Clone() *Problem {
	c := &Problem{K: p.K}
	c.Weights = append([]uint64(nil), p.Weights...)
	c.Actions = append([]Action(nil), p.Actions...)
	return c
}

func satAdd(a, b uint64) uint64 {
	s := a + b
	if s < a {
		return Inf
	}
	return s
}

// satMul is min(a·b, Inf): the product saturates exactly when its 128-bit
// value has a nonzero high word.
func satMul(a, b uint64) uint64 {
	if hi, lo := bits.Mul64(a, b); hi == 0 {
		return lo
	}
	return Inf
}

// SatAdd exposes the package's saturating addition, so other engines (the
// parallel solvers) use bit-identical cost arithmetic.
func SatAdd(a, b uint64) uint64 { return satAdd(a, b) }

// SatMul exposes the package's saturating multiplication.
func SatMul(a, b uint64) uint64 { return satMul(a, b) }
