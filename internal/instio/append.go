package instio

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"strconv"

	"repro/internal/core"
)

// Append appends Write's encoding of p, trailing newline included, to dst.
// The bytes are those json.Encoder with SetIndent("", "  ") produces for the
// wire form (TestWriteMatchesEncoder).
func Append(dst []byte, p *core.Problem, comment string) ([]byte, error) {
	if err := p.Validate(); err != nil {
		return dst, err
	}
	return append(appendInstance(dst, p, comment, 0), '\n'), nil
}

// appendBatch appends WriteBatch's encoding of ps to dst.
func appendBatch(dst []byte, ps []*core.Problem, comment string) ([]byte, error) {
	for i, p := range ps {
		if err := p.Validate(); err != nil {
			return dst, fmt.Errorf("instio: batch instance %d: %w", i, err)
		}
	}
	b := append(dst, '{')
	if comment != "" {
		b = append(AppendString(member(b, 1, "comment"), comment), ',')
	}
	b = append(member(b, 1, "instances"), '[')
	for i, p := range ps {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendInstance(newline(b, 2), p, "", 2)
	}
	if len(ps) > 0 {
		b = newline(b, 1)
	}
	return append(append(newline(append(b, ']'), 0), '}'), '\n'), nil
}

// appendInstance appends one validated instance as an object whose opening
// brace sits on a line indented to depth. Validation guarantees non-empty
// weights and actions; an action's objects may be empty ("objects": []).
func appendInstance(b []byte, p *core.Problem, comment string, depth int) []byte {
	b = append(b, '{')
	if comment != "" {
		b = append(AppendString(member(b, depth+1, "comment"), comment), ',')
	}
	b = append(member(b, depth+1, "weights"), '[')
	for j, w := range p.Weights {
		if j > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(newline(b, depth+2), w, 10)
	}
	b = append(newline(b, depth+1), "],"...)
	b = append(member(b, depth+1, "actions"), '[')
	for i, a := range p.Actions {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(newline(b, depth+2), '{')
		if a.Name != "" {
			b = append(AppendString(member(b, depth+3, "name"), a.Name), ',')
		}
		b = append(member(b, depth+3, "objects"), '[')
		for x := uint32(a.Set); x != 0; x &= x - 1 {
			if x != uint32(a.Set) {
				b = append(b, ',')
			}
			b = strconv.AppendInt(newline(b, depth+4), int64(bits.TrailingZeros32(x)), 10)
		}
		if a.Set != 0 {
			b = newline(b, depth+3)
		}
		b = strconv.AppendUint(member(append(b, "],"...), depth+3, "cost"), a.Cost, 10)
		if a.Treatment {
			b = append(member(append(b, ','), depth+3, "treatment"), "true"...)
		}
		b = append(newline(b, depth+2), '}')
	}
	return append(newline(append(newline(b, depth+1), ']'), depth), '}')
}

// indent holds enough spaces for the deepest line, an object index of a
// batch member's action (depth 6).
const indent = "            "

// newline starts a new line indented to depth.
func newline(b []byte, depth int) []byte {
	return append(append(b, '\n'), indent[:2*depth]...)
}

// member starts an object member on a new line indented to depth:
// `"key": `.
func member(b []byte, depth int, key string) []byte {
	b = append(append(newline(b, depth), '"'), key...)
	return append(b, `": `...)
}

// AppendString appends s as a JSON string, escaped exactly as json.Encoder
// escapes it; it is the one string escaper of the repository's hand-built
// JSON (instances here, /v1/solve replies in serve). Printable ASCII other
// than '"', '\\', '<', '>' and '&' is copied as is; any other string goes
// through json.Marshal, whose escaping (HTML characters, control characters,
// U+2028, invalid UTF-8) is json.Encoder's.
func AppendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}
