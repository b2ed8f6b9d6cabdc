package instio

import (
	"bytes"

	"repro/internal/core"
)

// maxDigits bounds the integers the scanner parses: below 10^9, so no
// overflow, and far above every weight, cost and object index that
// core.Problem.Validate accepts, so a longer number is always an error that
// the encoding/json path reports.
const maxDigits = 9

// scanner is the fast path of Read and ReadBatch over the grammar in the
// package comment. Each method reports false on anything outside that
// grammar and never produces an error: the caller then hands the same bytes
// to encoding/json.
type scanner struct {
	b []byte
	i int
	// actions is the capacity an instance's action list starts with: see
	// actionHint.
	actions int
}

// minAction is the length of a small action object. actionHint asks for no
// more actions than a body of such objects could hold, so braces inside a
// comment or name cannot size an action list of more than about twice the
// body's bytes (a core.Action is 40 bytes).
const minAction = len(`{"objects":[],"cost":0}`)

// actionHint guesses how many actions a one-instance body holds: every
// action is an object, so the count of '{' less the instance's own. It only
// sizes a slice; a wrong guess costs a regrowth or spare capacity, never a
// wrong parse. A one-byte count is vectorized, where counting a key such as
// "cost" re-searches at every '"'.
func actionHint(body []byte) int {
	return max(0, min(bytes.Count(body, []byte{'{'})-1, len(body)/minAction))
}

// scanInstance parses body as one instance, or reports false.
func scanInstance(body []byte) (*core.Problem, bool) {
	s := scanner{b: body, actions: actionHint(body)}
	p, ok := s.instance()
	return p, ok && s.end()
}

// scanBatch parses body as a non-empty batch envelope, or reports false.
func scanBatch(body []byte) ([]*core.Problem, bool) {
	s := scanner{b: body}
	var ps []*core.Problem
	var seen uint8
	ok := s.object(func(key []byte) bool {
		switch string(key) {
		case "comment":
			return once(&seen, 1) && s.skipString()
		case "instances":
			return once(&seen, 2) && s.array(func() bool {
				p, ok := s.instance()
				ps = append(ps, p)
				return ok
			})
		}
		return false
	})
	return ps, ok && s.end() && len(ps) > 0
}

// instance parses one instance object and validates it.
func (s *scanner) instance() (*core.Problem, bool) {
	p := new(core.Problem)
	var seen uint8
	ok := s.object(func(key []byte) bool {
		switch string(key) {
		case "comment":
			return once(&seen, 1) && s.skipString()
		case "weights":
			return once(&seen, 2) && s.array(func() bool {
				var w uint64
				ok := s.uint(&w)
				p.Weights = append(p.Weights, w)
				return ok
			})
		case "actions":
			if !once(&seen, 4) {
				return false
			}
			p.Actions = make([]core.Action, 0, s.actions)
			return s.array(func() bool {
				var a core.Action
				ok := s.action(&a)
				p.Actions = append(p.Actions, a)
				return ok
			})
		}
		return false
	})
	p.K = len(p.Weights)
	return p, ok && p.Validate() == nil
}

func (s *scanner) action(a *core.Action) bool {
	var seen uint8
	return s.object(func(key []byte) bool {
		switch string(key) {
		case "name":
			name, ok := s.string()
			a.Name = string(name)
			return once(&seen, 1) && ok
		case "objects":
			return once(&seen, 2) && s.array(func() bool {
				var o uint64
				ok := s.uint(&o) && o < 32
				a.Set |= core.SetOf(int(o))
				return ok
			})
		case "cost":
			return once(&seen, 4) && s.uint(&a.Cost)
		case "treatment":
			return once(&seen, 8) && s.bool(&a.Treatment)
		}
		return false
	})
}

// once marks bit in *seen and reports whether it was clear: a key seen twice
// declines the input.
func once(seen *uint8, bit uint8) bool {
	if *seen&bit != 0 {
		return false
	}
	*seen |= bit
	return true
}

// object parses {"key": value, ...}; member is called after each key's colon
// and must consume the value.
func (s *scanner) object(member func(key []byte) bool) bool {
	return s.list('{', '}', func() bool {
		key, ok := s.string()
		return ok && s.next(':') && member(key)
	})
}

// array parses [elem, ...]; elem must consume one element.
func (s *scanner) array(elem func() bool) bool { return s.list('[', ']', elem) }

// list parses open, then elements separated by commas, then close; elem
// must consume one element.
func (s *scanner) list(open, close byte, elem func() bool) bool {
	if !s.next(open) {
		return false
	}
	if s.next(close) {
		return true
	}
	for elem() {
		if s.next(close) {
			return true
		}
		if !s.next(',') {
			return false
		}
	}
	return false
}

// ws skips JSON whitespace. The indented wire form is mostly whitespace,
// so the loop works on locals rather than through s.
func (s *scanner) ws() {
	b, i := s.b, s.i
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	s.i = i
}

// next skips whitespace and consumes c if it comes next.
func (s *scanner) next(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (s *scanner) end() bool {
	s.ws()
	return s.i == len(s.b)
}

// string parses a string of the grammar's bytes and returns its contents,
// which alias the input.
func (s *scanner) string() ([]byte, bool) {
	if !s.next('"') {
		return nil, false
	}
	for start := s.i; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start : s.i-1], true
		case c < 0x20 || c >= 0x80 || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

func (s *scanner) skipString() bool {
	_, ok := s.string()
	return ok
}

// uint parses a non-negative decimal integer of at most maxDigits digits
// with no leading zero into *v.
func (s *scanner) uint(v *uint64) bool {
	s.ws()
	start, x := s.i, uint64(0)
	for ; s.i < len(s.b) && s.b[s.i]-'0' <= 9; s.i++ {
		x = x*10 + uint64(s.b[s.i]-'0')
	}
	*v = x
	n := s.i - start
	return n > 0 && n <= maxDigits && (n == 1 || s.b[start] != '0')
}

// bool parses true or false into *v.
func (s *scanner) bool(v *bool) bool {
	s.ws()
	for _, lit := range [...]string{"true", "false"} {
		if len(s.b)-s.i >= len(lit) && string(s.b[s.i:s.i+len(lit)]) == lit {
			s.i += len(lit)
			*v = lit == "true"
			return true
		}
	}
	return false
}
