// Package instio reads and writes test-and-treatment instances in a small
// JSON wire format, shared by cmd/ttsolve, cmd/ttgen and ttserve:
//
//	{
//	  "comment": "optional free text",
//	  "weights": [8, 4, 2, 1],
//	  "actions": [
//	    {"name": "swab", "objects": [0, 1], "cost": 2, "treatment": false},
//	    {"name": "rest", "objects": [0],   "cost": 3, "treatment": true}
//	  ]
//	}
//
// Objects are referred to by index (the universe size is the weight count).
//
// Write emits the form json.Encoder produces with SetIndent("", "  "), byte
// for byte; serve.Hash hashes those bytes, so the format is also the cache
// key. Append builds the same bytes without reflection.
//
// Parse and ParseBatch are the scanner's entry points: each parses a whole
// body in one pass with a small scanner that builds the core.Problem
// directly. Read and ReadBatch read their input to the end and call them.
// The scanner accepts exactly this grammar (ws is any run of space, tab, CR
// and LF):
//
//	instance = ws "{" [ member { "," member } ] ws "}" ws    (end of input)
//	member   = ws key ws ":" value                           (each key at most once)
//	key      = "comment" | "weights" | "actions"             (in an instance)
//	         | "name" | "objects" | "cost" | "treatment"     (in an action)
//	         | "comment" | "instances"                       (in a batch)
//	string   = '"' { byte 0x20..0x7f except '"' and '\' } '"'
//	integer  = "0" | digit1-9 { digit }                      (at most 9 digits)
//	bool     = "true" | "false"
//
// with arrays of integers (weights, objects; an object index below 32),
// arrays of action objects, and arrays of instances, each possibly empty.
// Anything else — an escape, non-ASCII text, null, an unknown, duplicate or
// case-variant key, a sign, fraction or exponent, bytes after the closing
// brace, malformed JSON — and any instance that fails validation makes the
// scanner decline, and the same bytes go to encoding/json with
// DisallowUnknownFields, which decides them exactly as it always has.
// encoding/json is therefore the only source of parse and validation errors,
// and the scanner only ever accepts input that encoding/json decodes to the
// same Problem (FuzzRead checks both).
package instio

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
)

type wireAction struct {
	Name      string `json:"name,omitempty"`
	Objects   []int  `json:"objects"`
	Cost      uint64 `json:"cost"`
	Treatment bool   `json:"treatment,omitempty"`
}

type wireProblem struct {
	Comment string       `json:"comment,omitempty"`
	Weights []uint64     `json:"weights"`
	Actions []wireAction `json:"actions"`
}

// Read parses and validates an instance. It reads r to the end; an error
// from r is returned wrapped, so callers can match it with errors.As.
func Read(r io.Reader) (*core.Problem, error) {
	body, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("instio: reading instance: %w", err)
	}
	return Parse(body)
}

// Parse parses and validates one instance held whole in body. The returned
// Problem does not alias body.
func Parse(body []byte) (*core.Problem, error) {
	if p, ok := scanInstance(body); ok {
		return p, nil
	}
	return decodeInstance(body)
}

// wireBatch is the /v1/solve/batch request body: several instances in one
// envelope. The instances need not share anything — grouping related ones is
// the server's job — but batches of same-structure, different-price variants
// are the intended use.
type wireBatch struct {
	Comment   string        `json:"comment,omitempty"`
	Instances []wireProblem `json:"instances"`
}

// ReadBatch parses and validates a batch envelope
// ({"instances": [<instance>, ...]}); errors name the offending instance by
// its position in the envelope. It reads r to the end, as Read does.
func ReadBatch(r io.Reader) ([]*core.Problem, error) {
	body, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("instio: reading batch: %w", err)
	}
	return ParseBatch(body)
}

// ParseBatch parses and validates a batch envelope held whole in body, as
// ReadBatch does.
func ParseBatch(body []byte) ([]*core.Problem, error) {
	if ps, ok := scanBatch(body); ok {
		return ps, nil
	}
	return decodeBatch(body)
}

// decodeInstance is Parse's encoding/json path.
func decodeInstance(body []byte) (*core.Problem, error) {
	var w wireProblem
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&w); err != nil {
		return nil, fmt.Errorf("instio: parsing instance: %w", err)
	}
	return fromWire(w)
}

// decodeBatch is ParseBatch's encoding/json path.
func decodeBatch(body []byte) ([]*core.Problem, error) {
	var b wireBatch
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		return nil, fmt.Errorf("instio: parsing batch: %w", err)
	}
	if len(b.Instances) == 0 {
		return nil, fmt.Errorf("instio: batch has no instances")
	}
	ps := make([]*core.Problem, len(b.Instances))
	for i, w := range b.Instances {
		p, err := fromWire(w)
		if err != nil {
			return nil, fmt.Errorf("instio: batch instance %d: %w", i, err)
		}
		ps[i] = p
	}
	return ps, nil
}

// fromWire converts one decoded wire instance into a validated Problem.
func fromWire(w wireProblem) (*core.Problem, error) {
	p := &core.Problem{K: len(w.Weights), Weights: w.Weights}
	for i, a := range w.Actions {
		for _, o := range a.Objects {
			if o < 0 || o >= p.K {
				return nil, fmt.Errorf("instio: action %d (%s) references object %d outside the %d-object universe",
					i, a.Name, o, p.K)
			}
		}
		p.Actions = append(p.Actions, core.Action{
			Name:      a.Name,
			Set:       core.SetOf(a.Objects...),
			Cost:      a.Cost,
			Treatment: a.Treatment,
		})
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// ReadFile reads an instance from a file, or from stdin when path is "-".
func ReadFile(path string) (*core.Problem, error) {
	if path == "-" {
		return Read(os.Stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("instio: %w", err)
	}
	defer f.Close()
	return Read(f)
}

// Write serializes an instance with stable, human-diffable formatting.
func Write(w io.Writer, p *core.Problem, comment string) error {
	b, err := Append(nil, p, comment)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// WriteBatch serializes a batch envelope in ReadBatch's wire form.
func WriteBatch(w io.Writer, ps []*core.Problem, comment string) error {
	b, err := appendBatch(nil, ps, comment)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}
