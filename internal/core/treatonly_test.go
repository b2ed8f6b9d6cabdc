package core

import (
	"cmp"
	"context"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"
)

// treatmentOnly builds an instance from b whose only actions are treatments
// on disjoint groups that cover the universe, singletons included, and
// returns it with its optimum in closed form. Every procedure on such an
// instance applies the groups one after another until the fault is fixed, so
// C(U) = Σ_G t_G·p(groups from G on) is a weighted completion time, and
// Smith's rule attains it: groups in ascending order of t_G/p(G), the P/C
// order of the troubleshooting literature. A group with t_G = 0 goes first
// and one with p(G) = 0 < t_G last; how ties fall does not change the sum.
//
// The bytes read: K (1..20), a group count, then per object its group and a
// weight v·2^e (v < 256, e < 6), then per group a cost v·2^e (e < 11). The
// spread lets a costly treatment win some sets and lose others, so the
// walk's exit decides the answer. Once b runs out, the rest comes from a
// math/rand source seeded by the bytes read, not from fuzzBytes' zeros, so
// a short input still spreads its objects over groups with nonzero weights.
func treatmentOnly(b *fuzzBytes) (*Problem, uint64) {
	read := []byte(*b)
	var rng *rand.Rand
	next := func() byte {
		if len(*b) > 0 {
			return b.byte()
		}
		if rng == nil {
			h := fnv.New64a()
			h.Write(read)
			rng = rand.New(rand.NewSource(int64(h.Sum64())))
		}
		return byte(rng.Intn(256))
	}
	k := int(next())%20 + 1
	g := int(next())%k + 1
	p := &Problem{K: k, Weights: make([]uint64, k)}
	sets := make([]Set, g)
	for x := range p.Weights {
		sets[int(next())%g] |= SetOf(x)
		p.Weights[x] = uint64(next()) << (next() % 6)
	}
	type group struct{ t, w uint64 }
	var groups []group
	for _, s := range sets {
		if s == 0 {
			continue
		}
		a := Action{Set: s, Treatment: true, Cost: uint64(next()) << (next() % 11)}
		p.Actions = append(p.Actions, a)
		var w uint64
		for x := 0; x < k; x++ {
			if s.Has(x) {
				w += p.Weights[x]
			}
		}
		groups = append(groups, group{a.Cost, w})
	}
	slices.SortFunc(groups, func(a, b group) int {
		if a.t == 0 || b.t == 0 {
			return cmp.Compare(a.t, b.t)
		}
		return cmp.Compare(a.t*b.w, b.t*a.w) // t, w < 2^18: exact
	})
	var rest, want uint64
	for _, gr := range groups {
		rest += gr.w
	}
	for _, gr := range groups {
		want += gr.t * rest
		rest -= gr.w
	}
	return p, want
}

// checkTreatmentOnly solves p on 1 and 4 ranges and requires the closed form.
func checkTreatmentOnly(t *testing.T, p *Problem, want uint64) {
	t.Helper()
	for _, ranges := range []int{1, 4} {
		sol, err := SolveParallelPooledCtx(context.Background(), p, ranges, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Cost != want {
			t.Fatalf("K=%d, %d groups, on %d ranges: C(U) = %d, Smith's rule %d",
				p.K, len(p.Actions), ranges, sol.Cost, want)
		}
		sol.Release()
	}
}

// TestSolveTreatmentOnlyClosedForm checks the exact sweep's treatment walk,
// exit included, against Smith's rule at every K from 1 to 20. The trials
// above K = 16 put objects in the third byte of the kernel's tables, where
// no oracle of the general recurrence reaches, so most trials are there. Every
// K gets one all-singleton instance; the rest have random groups.
func TestSolveTreatmentOnlyClosedForm(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	data := make([]byte, 2+3*20+2*20)
	for k := 1; k <= 20; k++ {
		trials := 3
		if k > 16 {
			trials = 12
		}
		for trial := 0; trial < trials; trial++ {
			rng.Read(data)
			data[0] = byte(k - 1)
			if trial == 0 {
				data[1] = byte(k - 1) // k groups
				for x := 0; x < k; x++ {
					data[2+3*x] = byte(x) // object x alone in group x
				}
			}
			b := fuzzBytes(data)
			p, want := treatmentOnly(&b)
			checkTreatmentOnly(t, p, want)
		}
	}
}

// FuzzTreatmentOnly is TestSolveTreatmentOnlyClosedForm over fuzzer-built
// instances: zero weights and costs, one group or K singletons, K up to 20.
func FuzzTreatmentOnly(f *testing.F) {
	f.Add([]byte{0, 0, 0, 5, 0, 9})
	f.Add([]byte{3, 3, 0, 1, 1, 2, 2, 3, 3, 4, 0, 9, 0, 7, 0, 5, 0, 3})
	f.Add([]byte{19, 2, 0, 0, 1, 0, 2, 0, 0, 9, 1, 9, 2, 9, 0, 0, 0, 0, 1, 40, 2, 40, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		b := fuzzBytes(data)
		p, want := treatmentOnly(&b)
		checkTreatmentOnly(t, p, want)
	})
}
