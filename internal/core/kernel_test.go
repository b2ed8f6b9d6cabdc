package core

import (
	"encoding/binary"
	"math/big"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// cellOf compiles p and evaluates one cell: the one-off form of Kernel.Cell
// for tests that check a handful of sets.
func cellOf(p *Problem, c []uint64, s Set) (uint64, int32) {
	kn, err := Compile(p)
	if err != nil {
		panic(err)
	}
	return kn.Cell(c, s)
}

// TestAddSatExact pins the kernel's branchless saturating add to the exact
// big.Int sum clamped at Inf, on the edge values where a carry is or is not
// produced.
func TestAddSatExact(t *testing.T) {
	vals := []uint64{0, 1, 2, 1 << 41, 1<<63 - 1, 1 << 63, 1<<63 + 1, Inf - 2, Inf - 1, Inf}
	for _, a := range vals {
		for _, b := range vals {
			sum := new(big.Int).Add(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
			want := Inf
			if sum.IsUint64() {
				want = sum.Uint64()
			}
			if got := addSat(a, b); got != want {
				t.Errorf("addSat(%d, %d) = %d, want %d", a, b, got, want)
			}
		}
	}
}

// TestKernelProductBound ties Cell's unguarded product to Validate: the
// largest t_i·p(S) a valid problem can form is maxInput·(MaxK·maxInput),
// which must stay below 2^63 (which also keeps every cost inside a record's
// 32-bit cost field). Raising maxInput or MaxK past that fails here before
// the kernel can silently wrap.
func TestKernelProductBound(t *testing.T) {
	const maxProduct = maxInput * (MaxK * maxInput)
	if maxProduct >= 1<<63 {
		t.Fatalf("maxInput·(MaxK·maxInput) = %v reaches 2^63; the kernel's product is no longer exact", float64(maxProduct))
	}
	// The bound is attained: every weight and the cost at maxInput.
	p := &Problem{K: MaxK, Weights: make([]uint64, MaxK),
		Actions: []Action{{Set: Universe(MaxK), Cost: maxInput, Treatment: true}}}
	for j := range p.Weights {
		p.Weights[j] = maxInput
	}
	kn, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	c := make([]uint64, 1) // the universal treatment reads only C(∅)
	if got, ch := kn.Cell(c, Universe(MaxK)); got != maxProduct || ch != 0 {
		t.Fatalf("Cell(U) = (%d, %d), want (%d, 0)", got, ch, uint64(maxProduct))
	}
}

// TestCompileRejectsInvalid: Compile refuses exactly what Validate refuses,
// since Cell's arithmetic is exact only within Validate's bounds.
func TestCompileRejectsInvalid(t *testing.T) {
	ok := func() *Problem {
		return &Problem{K: 3, Weights: []uint64{1, 2, 3},
			Actions: []Action{{Set: 0b011, Cost: 4}, {Set: 0b111, Cost: 9, Treatment: true}}}
	}
	cases := map[string]func(p *Problem){
		"k0":            func(p *Problem) { p.K, p.Weights = 0, nil },
		"k over MaxK":   func(p *Problem) { p.K, p.Weights = MaxK+1, make([]uint64, MaxK+1) },
		"weight count":  func(p *Problem) { p.Weights = p.Weights[:2] },
		"heavy weight":  func(p *Problem) { p.Weights[1] = maxInput + 1 },
		"costly action": func(p *Problem) { p.Actions[0].Cost = maxInput + 1 },
		"outside U":     func(p *Problem) { p.Actions[0].Set = 0b1000 },
		"no actions":    func(p *Problem) { p.Actions = nil },
		"no treatment":  func(p *Problem) { p.Actions = p.Actions[:1] },
	}
	if _, err := Compile(ok()); err != nil {
		t.Fatalf("valid problem refused: %v", err)
	}
	for name, mutate := range cases {
		p := ok()
		mutate(p)
		if p.Validate() == nil {
			t.Fatalf("%s: mutation left the problem valid", name)
		}
		if kn, err := Compile(p); err == nil || kn != nil {
			t.Errorf("%s: Compile = (%v, %v), want a refusal", name, kn, err)
		}
	}
}

// refCell is a literal transcription of the recurrence with its own
// saturating arithmetic, independent of the kernel's tables, records and
// branchless add: p(S) summed member by member, every action priced in
// index order, the first strict minimum kept.
func refCell(p *Problem, c []uint64, s Set) (uint64, int32) {
	satAdd := func(a, b uint64) uint64 {
		if a > Inf-b {
			return Inf
		}
		return a + b
	}
	satMul := func(a, b uint64) uint64 {
		if a != 0 && b > Inf/a {
			return Inf
		}
		return a * b
	}
	var ps uint64
	for j := 0; j < p.K; j++ {
		if s.Has(j) {
			ps = satAdd(ps, p.Weights[j])
		}
	}
	best, choice := Inf, int32(-1)
	for i, a := range p.Actions {
		inter, diff := s&a.Set, s&^a.Set
		if inter == 0 || (!a.Treatment && diff == 0) {
			continue
		}
		m := satMul(a.Cost, ps)
		if a.Treatment {
			m = satAdd(m, c[diff])
		} else {
			m = satAdd(m, satAdd(c[inter], c[diff]))
		}
		if m < best {
			best, choice = m, int32(i)
		}
	}
	return best, choice
}

// refFloor is a literal L(X) = Σ_{x∈X} w_x·τ_x, with τ_x the cost of the
// cheapest treatment containing x, computed from the Problem alone: Inf if
// X holds an object no treatment covers, whatever its weight.
func refFloor(p *Problem, x Set) uint64 {
	var sum uint64
	for j := 0; j < p.K; j++ {
		if !x.Has(j) {
			continue
		}
		tau := Inf
		for _, a := range p.Actions {
			if a.Treatment && a.Set.Has(j) && a.Cost < tau {
				tau = a.Cost
			}
		}
		if tau == Inf {
			return Inf
		}
		sum = satAdd(sum, satMul(p.Weights[j], tau))
	}
	return sum
}

// fuzzBytes hands out fuzzer bytes, then zeros once they run out.
type fuzzBytes []byte

func (b *fuzzBytes) byte() byte {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return v
}

// bounded maps a byte onto a weight or cost, favoring the edges: zero and
// maxInput (or one below it) each get a share next to small values.
func (b *fuzzBytes) bounded() uint64 {
	switch v := b.byte(); v >> 6 {
	case 0:
		return 0
	case 1:
		return maxInput - uint64(v&1)
	default:
		return uint64(v & 63)
	}
}

// cost maps bytes onto an untrusted plane entry: Inf and the values just
// below it, 2^63, small costs, or a full 64-bit word.
func (b *fuzzBytes) cost() uint64 {
	switch v := b.byte(); v >> 5 {
	case 0:
		return Inf
	case 1:
		return Inf - uint64(v&31)
	case 2:
		return 1<<63 + uint64(v&31) - 16
	case 3:
		var w [8]byte
		for i := range w {
			w[i] = b.byte()
		}
		return binary.LittleEndian.Uint64(w[:])
	default:
		return uint64(v)
	}
}

// FuzzKernelCell compares the compiled kernel's (cost, choice) and p(S) with
// refCell on fuzzer-built problems and arbitrary cost planes — including Inf
// and near-Inf entries, which is what the frontier verifier feeds Cell
// from untrusted input. Weights may be zero and actions
// may repeat or complement one another, so ties and exclusions are
// exercised; universes reach past one weight table (K up to 10). Cost, the
// sweeps' early-exit loop, must never return less than refCell's cost, and
// must return it exactly once every entry is raised to at least refFloor,
// the bound its test exit relies on.
func FuzzKernelCell(f *testing.F) {
	f.Add([]byte{2, 1, 2, 3, 0x03, 0, 9, 0x01, 0x81, 5, 0, 7, 0, 0, 0, 0})
	f.Add([]byte{5, 0, 0, 0, 0, 0, 4, 0x1f, 0, 0x01, 7, 0x1f, 0, 0x05, 7, 0x0f, 0, 0x02, 3})
	f.Add([]byte{9, 0x40, 0x40, 0x40, 0x41, 9, 9, 9, 9, 9, 7, 0xff, 0x01, 0x81, 0x40, 0xaa, 0, 0x08, 1, 0x55, 0x01, 0x80, 2, 0x00, 0x02, 0x01, 2, 0x20, 0x21, 0x40, 0x60, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		b := fuzzBytes(data)
		k := int(b.byte())%10 + 1
		u := Universe(k)
		p := &Problem{K: k, Weights: make([]uint64, k)}
		for j := range p.Weights {
			p.Weights[j] = b.bounded()
		}
		n := int(b.byte())%8 + 1
		for i := 0; i < n; i++ {
			lo, hi, kind := b.byte(), b.byte(), b.byte()
			a := Action{Set: Set(uint32(hi)<<8|uint32(lo)) & u, Treatment: kind&1 != 0, Cost: b.bounded()}
			if i > 0 {
				switch kind >> 6 {
				case 1: // duplicate the previous action's set
					a.Set = p.Actions[i-1].Set
				case 2: // complement it within the universe
					a.Set = u &^ p.Actions[i-1].Set
				}
			}
			p.Actions = append(p.Actions, a)
		}
		kn, err := Compile(p)
		if err != nil {
			if p.Validate() == nil {
				t.Fatalf("Compile refused a valid problem: %v", err)
			}
			return
		}
		c := make([]uint64, 1<<uint(k))
		for s := range c {
			c[s] = b.cost()
		}
		// The same plane raised to the treatment floor, where Cost must
		// match the reference exactly.
		lifted := make([]uint64, len(c))
		for s := range c {
			lifted[s] = max(c[s], refFloor(p, Set(s)))
		}
		for s := range c {
			gotC, gotI := kn.Cell(c, Set(s))
			wantC, wantI := refCell(p, c, Set(s))
			if gotC != wantC || gotI != wantI {
				t.Fatalf("Cell(%b) = (%d, %d), reference (%d, %d)", s, gotC, gotI, wantC, wantI)
			}
			// Cost stores Inf at the cell it prices; put the fuzzed
			// entry back, since later sets read it as a subset.
			cs, ls := c[s], lifted[s]
			if got := kn.Cost(c, Set(s)); got < wantC {
				t.Fatalf("Cost(%b) = %d, below the reference %d", s, got, wantC)
			}
			c[s] = cs
			liftedC, _ := refCell(p, lifted, Set(s))
			if got := kn.Cost(lifted, Set(s)); got != liftedC {
				t.Fatalf("Cost(%b) = %d on the floor-lifted plane, reference %d", s, got, liftedC)
			}
			lifted[s] = ls
			var ps uint64
			for j := 0; j < k; j++ {
				if Set(s).Has(j) {
					ps += p.Weights[j]
				}
			}
			if got := kn.Weight(Set(s)); got != ps {
				t.Fatalf("Weight(%b) = %d, want %d", s, got, ps)
			}
			if got, want := kn.Floor(Set(s)), refFloor(p, Set(s)); got != want {
				t.Fatalf("Floor(%b) = %d, want %d", s, got, want)
			}
		}
	})
}

// TestKernelFloorUncovered: on an instance where no treatment covers object
// 9, which sits in the second byte table and weighs nothing, Floor is Inf on
// every set holding it and refFloor's finite value on every other set.
func TestKernelFloorUncovered(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	p := randomProblem(rng, 10, 12)
	p.Weights[9] = 0
	for i, a := range p.Actions {
		if a.Treatment {
			p.Actions[i].Set &^= SetOf(9)
		}
	}
	kn, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	for s := Set(0); s <= Universe(10); s++ {
		got := kn.Floor(s)
		if s.Has(9) {
			if got != Inf {
				t.Fatalf("Floor(%b) = %d holds the uncovered object, want Inf", s, got)
			}
			continue
		}
		if want := refFloor(p, s); got != want || got == Inf {
			t.Fatalf("Floor(%b) = %d, want %d", s, got, want)
		}
	}
}

// TestKernelCostOrder pins the record copies: the first decodes to the
// actions in order, and the records Cost walks are a permutation of them,
// treatments before tests, each group non-decreasing in cost with equal
// costs in action order, and the tests starting at kn.nt. It compares them
// with an order built independently, by (kind, cost, index), on problems
// with many repeated costs.
func TestKernelCostOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 200; trial++ {
		k := rng.Intn(MaxK) + 1
		p := randomProblem(rng, k, rng.Intn(40)+1)
		for i := range p.Actions {
			p.Actions[i].Cost = uint64(rng.Intn(4)) // few distinct costs: many ties
		}
		kn, err := Compile(p)
		if err != nil {
			t.Fatal(err)
		}
		n := len(p.Actions)
		byIndex := kn.mem[kn.words : kn.words+n]
		order := make([]int, n)
		treatments := 0
		for i, a := range p.Actions {
			if r := byIndex[i]; Set(r)&Universe(MaxK) != a.Set || r>>32 != a.Cost || r&treatBit != 0 != a.Treatment {
				t.Fatalf("trial %d: record %d is %x, not action %+v", trial, i, r, a)
			}
			order[i] = i
			if a.Treatment {
				treatments++
			}
		}
		sort.Slice(order, func(a, b int) bool {
			x, y := p.Actions[order[a]], p.Actions[order[b]]
			if x.Treatment != y.Treatment {
				return x.Treatment
			}
			return x.Cost < y.Cost || x.Cost == y.Cost && order[a] < order[b]
		})
		want := make([]uint64, n)
		for j, i := range order {
			want[j] = byIndex[i]
		}
		if got := kn.mem[kn.words+n:]; !slices.Equal(got, want) {
			t.Fatalf("trial %d: cost-ordered records %x, want %x", trial, got, want)
		}
		if kn.nt != treatments {
			t.Fatalf("trial %d: tests start at %d, want %d", trial, kn.nt, treatments)
		}
	}
}
