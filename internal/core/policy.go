package core

import (
	"encoding/json"
	"fmt"
)

// Policy is the deployable artifact a solved instance produces: for every
// candidate set reachable under optimal play, the action to take. Unlike the
// raw Solution (2^K entries), a Policy stores only reachable states — the
// object a clinic or repair depot would actually ship — and serializes to
// JSON for storage next to the instance.
type Policy struct {
	K       int
	Actions []Action
	// choices maps reachable candidate sets to the action to apply there.
	choices map[Set]int32
}

// policyWire is the JSON form.
type policyWire struct {
	K       int              `json:"k"`
	Actions []wireAction     `json:"actions"`
	Choices map[string]int32 `json:"choices"`
}

type wireAction struct {
	Name      string `json:"name,omitempty"`
	Objects   []int  `json:"objects"`
	Cost      uint64 `json:"cost"`
	Treatment bool   `json:"treatment,omitempty"`
}

// NewPolicy builds a policy from a solved instance, pruned to the states
// reachable from the full universe under optimal play; each state's action
// is recomputed from the cost plane with the compiled kernel. Fails on
// invalid or inadequate instances.
func NewPolicy(p *Problem, sol *Solution) (*Policy, error) {
	if !sol.Adequate() {
		return nil, fmt.Errorf("core: inadequate instance has no policy")
	}
	kn, err := compile(p)
	if err != nil {
		return nil, err
	}
	pol := &Policy{K: p.K, Actions: append([]Action(nil), p.Actions...), choices: make(map[Set]int32)}
	var walk func(s Set) error
	walk = func(s Set) error {
		if s == 0 {
			return nil
		}
		if _, done := pol.choices[s]; done {
			return nil
		}
		_, idx := kn.Cell(sol.C, s)
		if idx < 0 {
			return fmt.Errorf("core: no choice recorded for reachable set %v", s)
		}
		pol.choices[s] = idx
		a := p.Actions[idx]
		if !a.Treatment {
			if err := walk(s & a.Set); err != nil {
				return err
			}
		}
		return walk(s &^ a.Set)
	}
	if err := walk(Universe(p.K)); err != nil {
		return nil, err
	}
	return pol, nil
}

// ActionAt returns the action index for a candidate set, with ok=false for
// states the policy never reaches.
func (pol *Policy) ActionAt(s Set) (int, bool) {
	idx, ok := pol.choices[s]
	return int(idx), ok
}

// States returns the number of reachable decision states stored.
func (pol *Policy) States() int { return len(pol.choices) }

// Tree reconstructs the procedure tree the policy encodes. Choices that do
// not strictly shrink the candidate set — a test with S∩T_i ∈ {∅, S}, a
// treatment with S∩T_i = ∅ — are rejected: no optimal policy contains one
// (the DP prices them at infinity), and recursing on them would never
// terminate. Policies arrive from untrusted JSON (serve's /v1/eval), so this
// is a load-bearing guard, not an assertion.
func (pol *Policy) Tree() (*Node, error) {
	var build func(s Set) (*Node, error)
	build = func(s Set) (*Node, error) {
		if s == 0 {
			return nil, nil
		}
		idx, ok := pol.choices[s]
		if !ok {
			return nil, fmt.Errorf("core: policy has no action for set %v", s)
		}
		a := pol.Actions[idx]
		inter, diff := s&a.Set, s&^a.Set
		if a.Treatment {
			if inter == 0 {
				return nil, fmt.Errorf("core: policy treatment %d treats nothing in set %v", idx, s)
			}
		} else if inter == 0 || diff == 0 {
			return nil, fmt.Errorf("core: policy test %d does not split set %v", idx, s)
		}
		n := &Node{Action: int(idx), Set: s}
		var err error
		if !a.Treatment {
			if n.Pos, err = build(inter); err != nil {
				return nil, err
			}
		}
		if n.Neg, err = build(diff); err != nil {
			return nil, err
		}
		return n, nil
	}
	return build(Universe(pol.K))
}

// MarshalJSON serializes the policy.
func (pol *Policy) MarshalJSON() ([]byte, error) {
	w := policyWire{K: pol.K, Choices: make(map[string]int32, len(pol.choices))}
	for _, a := range pol.Actions {
		w.Actions = append(w.Actions, wireAction{
			Name: a.Name, Objects: a.Set.Objects(), Cost: a.Cost, Treatment: a.Treatment,
		})
	}
	for s, idx := range pol.choices {
		w.Choices[fmt.Sprintf("%x", uint32(s))] = idx
	}
	return json.Marshal(w)
}

// UnmarshalJSON deserializes and validates a policy.
func (pol *Policy) UnmarshalJSON(data []byte) error {
	var w policyWire
	if err := json.Unmarshal(data, &w); err != nil {
		return fmt.Errorf("core: parsing policy: %w", err)
	}
	if w.K < 1 || w.K > MaxK {
		return fmt.Errorf("core: policy universe size %d invalid", w.K)
	}
	pol.K = w.K
	pol.Actions = nil
	for _, a := range w.Actions {
		for _, o := range a.Objects {
			if o < 0 || o >= w.K {
				return fmt.Errorf("core: policy action references object %d outside universe", o)
			}
		}
		pol.Actions = append(pol.Actions, Action{
			Name: a.Name, Set: SetOf(a.Objects...), Cost: a.Cost, Treatment: a.Treatment,
		})
	}
	pol.choices = make(map[Set]int32, len(w.Choices))
	for key, idx := range w.Choices {
		var s uint32
		if _, err := fmt.Sscanf(key, "%x", &s); err != nil {
			return fmt.Errorf("core: bad policy state key %q", key)
		}
		if Set(s)&^Universe(w.K) != 0 {
			return fmt.Errorf("core: policy state %x outside universe", s)
		}
		if idx < 0 || int(idx) >= len(pol.Actions) {
			return fmt.Errorf("core: policy action index %d out of range", idx)
		}
		pol.choices[Set(s)] = idx
	}
	return nil
}
