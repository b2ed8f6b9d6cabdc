package instio

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// toWire builds the wire structs json.Encoder reflects over, the reference
// encoding: Write and WriteBatch must produce exactly what instanceRef and
// batchRef produce.
func toWire(p *core.Problem, comment string) (wireProblem, error) {
	if err := p.Validate(); err != nil {
		return wireProblem{}, err
	}
	wp := wireProblem{Comment: comment, Weights: p.Weights}
	for _, a := range p.Actions {
		wp.Actions = append(wp.Actions, wireAction{
			Name:      a.Name,
			Objects:   a.Set.Objects(),
			Cost:      a.Cost,
			Treatment: a.Treatment,
		})
	}
	return wp, nil
}

func encodeRef(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func instanceRef(t testing.TB, p *core.Problem, comment string) []byte {
	t.Helper()
	wp, err := toWire(p, comment)
	if err != nil {
		t.Fatal(err)
	}
	return encodeRef(wp)
}

func batchRef(t testing.TB, ps []*core.Problem, comment string) []byte {
	t.Helper()
	b := wireBatch{Comment: comment, Instances: make([]wireProblem, len(ps))}
	for i, p := range ps {
		wp, err := toWire(p, "")
		if err != nil {
			t.Fatal(err)
		}
		b.Instances[i] = wp
	}
	return encodeRef(b)
}

// awkwardStrings exercise every escaping rule json.Encoder applies: HTML
// characters, quotes and backslashes, control characters (short and \u
// forms), DEL, U+2028/U+2029, non-ASCII text and invalid UTF-8.
var awkwardStrings = []string{
	"", "plain name", "<script>", "a&b", "x>y", `say "hi"`, `back\slash`,
	"ctl \x00\x01\x1f", "tab\tnl\nret\r", "bs\bff\f", "del\x7f",
	"line\u2028para\u2029", "bad\xffutf8\xc3", "diagn\u00f3stico", "\u20ac",
}

// TestWriteMatchesEncoder pins Write and WriteBatch to the reflection
// encoder byte for byte: serve.Hash keys the cache on these bytes, and
// clients and the committed testdata already hold them.
func TestWriteMatchesEncoder(t *testing.T) {
	var all []*core.Problem
	for k := 1; k <= core.MaxK; k++ {
		var p *core.Problem
		switch k % 3 {
		case 0:
			p = workload.Random(int64(k), k, k, max(1, k/2))
		case 1:
			p = workload.MedicalDiagnosis(int64(k), k)
		default:
			p = workload.SystematicBiology(int64(k), k)
		}
		for i := range p.Actions {
			p.Actions[i].Name = awkwardStrings[(i+k)%len(awkwardStrings)]
		}
		// An action on no objects encodes as "objects": [].
		p.Actions = append(p.Actions, core.Action{Name: "nothing", Cost: 1})
		comment := awkwardStrings[k%len(awkwardStrings)]
		var buf bytes.Buffer
		if err := Write(&buf, p, comment); err != nil {
			t.Fatal(err)
		}
		if want := instanceRef(t, p, comment); !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("k=%d: Write differs from json.Encoder\n got: %q\nwant: %q", k, buf.Bytes(), want)
		}
		all = append(all, p)
	}
	for _, ps := range [][]*core.Problem{nil, all[:1], all[4:9], all} {
		for _, comment := range awkwardStrings[:4] {
			var buf bytes.Buffer
			if err := WriteBatch(&buf, ps, comment); err != nil {
				t.Fatal(err)
			}
			if want := batchRef(t, ps, comment); !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("batch of %d, comment %q: WriteBatch differs from json.Encoder\n got: %q\nwant: %q",
					len(ps), comment, buf.Bytes(), want)
			}
		}
	}
}

func TestWriteBatchRejectsInvalid(t *testing.T) {
	ps := []*core.Problem{workload.MedicalDiagnosis(1, 4), {K: 0}}
	err := WriteBatch(&bytes.Buffer{}, ps, "")
	if err == nil || !strings.Contains(err.Error(), "instance 1") {
		t.Fatalf("invalid member not named: %v", err)
	}
}

// fuzzSeed decodes a checked-in FuzzRead corpus file.
func fuzzSeed(t *testing.T, path string) string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 || lines[0] != "go test fuzz v1" ||
		!strings.HasPrefix(lines[1], "string(") || !strings.HasSuffix(lines[1], ")") {
		t.Fatalf("%s: not a one-string fuzz corpus file", path)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "string("), ")"))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return s
}

// TestFallbackSeeds checks that each checked-in fallback_* corpus seed is
// declined by the scanner, so FuzzRead starts from every fallback trigger,
// and that Read then gives encoding/json's answer.
func TestFallbackSeeds(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzRead", "fallback_*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 8 {
		t.Fatalf("found %d fallback seeds, want at least 8", len(paths))
	}
	for _, path := range paths {
		in := fuzzSeed(t, path)
		if _, ok := scanInstance([]byte(in)); ok {
			t.Errorf("%s: scanner accepted %q", filepath.Base(path), in)
		}
		p, err := Read(strings.NewReader(in))
		q, qerr := decodeInstance([]byte(in))
		if fmt.Sprint(err) != fmt.Sprint(qerr) || !reflect.DeepEqual(p, q) {
			t.Errorf("%s: Read gave (%v, %v), encoding/json (%v, %v)", filepath.Base(path), p, err, q, qerr)
		}
	}
}

func TestScannerAcceptsWireForms(t *testing.T) {
	compact := `{"actions":[{"treatment":true,"cost":3,"objects":[1,0],"name":"t"},{"objects":[],"cost":0}],` +
		"\t\r\n" + `"weights":[0,10],"comment":"any order"}` + " \n"
	p, ok := scanInstance([]byte(compact))
	if !ok {
		t.Fatal("scanner declined a compact instance in another key order")
	}
	if q, err := decodeInstance([]byte(compact)); err != nil || !reflect.DeepEqual(p, q) {
		t.Fatalf("scanner %+v, encoding/json %+v (%v)", p, q, err)
	}
	var buf bytes.Buffer
	ps := []*core.Problem{workload.FaultLocation(2, 6, 3), workload.Random(3, 5, 4, 2)}
	if err := WriteBatch(&buf, ps, "batch"); err != nil {
		t.Fatal(err)
	}
	qs, ok := scanBatch(buf.Bytes())
	if !ok || !reflect.DeepEqual(ps, qs) {
		t.Fatal("scanner declined or changed WriteBatch's output")
	}
	for _, in := range []string{`{"instances": []}`, `{"instances": [{"weights": [1], "actions": []}]}`} {
		if _, ok := scanBatch([]byte(in)); ok {
			t.Errorf("scanner accepted the invalid batch %s", in)
		}
	}
}

// TestParseBoundsActionHint parses a body whose comment is all braces: the
// action hint counts them, but the allocation it sizes must stay below twice
// the body, not grow to a 40-byte Action per brace.
func TestParseBoundsActionHint(t *testing.T) {
	const size = 1 << 20
	head, tail := `{"comment":"`, `","weights":[1],"actions":[{"objects":[0],"cost":1,"treatment":true}]}`
	body := []byte(head + strings.Repeat("{", size-len(head)-len(tail)) + tail)
	var before, after runtime.MemStats
	least := uint64(1 << 62)
	for range 3 { // the least of three runs, so another goroutine's garbage does not count
		runtime.ReadMemStats(&before)
		p, err := Parse(body)
		runtime.ReadMemStats(&after)
		if err != nil || len(p.Actions) != 1 {
			t.Fatalf("Parse gave %v, %v; want the one-action instance", p, err)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > 2*size {
		t.Fatalf("parsing a %d-byte body full of braces allocated %d bytes, want <= %d", size, least, 2*size)
	}
}

// BenchmarkReadInstance decodes a k = 13 wire body, the size solve-hot's
// clients send.
func BenchmarkReadInstance(b *testing.B) {
	var buf bytes.Buffer
	if err := Write(&buf, workload.MedicalDiagnosis(1, 13), ""); err != nil {
		b.Fatal(err)
	}
	body := buf.Bytes()
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Read(bytes.NewReader(body)); err != nil {
			b.Fatal(err)
		}
	}
}
