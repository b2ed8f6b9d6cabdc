package serve

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// encoderReply is what writeJSON sends for r: json.Encoder with
// SetIndent("", "  "), the reference appendSolveResponse must match.
func encoderReply(t testing.TB, r *SolveResponse) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, r)
	return rec.Body.Bytes()
}

// replyStrings are the first_action and tree values the differential test
// cycles through: every class of byte encoding/json escapes, next to plain
// text and the empty string.
var replyStrings = []string{
	"",
	"T3",
	"<script>&amp;</script>",
	`quote " and backslash \`,
	"tab\tnewline\nnul\x00bell\x07",
	"del\x7f",
	"line\u2028para\u2029sep",
	"bad utf-8 \xff\xfe and cut \xe2\x80",
	"é ünïcode ✓",
	"treat(3)\n├─ probe[1] +\n│  └─ fix-1\n└─ fix-0\n",
}

// replyFloats are elapsed_ms values on each side of encoding/json's
// exponent cutoffs, zero and negative zero among them.
var replyFloats = []float64{0, math.Copysign(0, -1), 1e-7, 1e-6, 9.99e-7, 1e21, 9.99e20, 1234.567, 0.001, 5e-324, math.MaxFloat64}

// TestSolveResponseAppendMatchesEncoder compares appendSolveResponse with
// the reflection encoder on every combination of the optional fields, with
// every awkward string and, cycling through them, every float.
func TestSolveResponseAppendMatchesEncoder(t *testing.T) {
	// Every field set through reflection, so a field added to SolveResponse
	// fails here until appendSolveResponse writes it too.
	var all SolveResponse
	v := reflect.ValueOf(&all).Elem()
	for i := range v.NumField() {
		switch f := v.Field(i); f.Kind() {
		case reflect.String:
			f.SetString("s" + strconv.Itoa(i))
		case reflect.Int:
			f.SetInt(int64(i + 1))
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Float64:
			f.SetFloat(float64(i) + 0.5)
		case reflect.Pointer:
			f.Set(reflect.New(f.Type().Elem()))
		default:
			t.Fatalf("SolveResponse.%s is a %s, which this test cannot set", v.Type().Field(i).Name, f.Kind())
		}
	}
	if got, want := appendSolveResponse(nil, &all), encoderReply(t, &all); !bytes.Equal(got, want) {
		t.Fatalf("every field set:\n got: %q\nwant: %q", got, want)
	}
	const optional = 9 // coalesced, cost, first_action, tree, approx, gap_milli, lower_bound, approx_policy, approx_exact
	cost, gap, lb := uint64(12345), uint64(1200), uint64(0)
	n := 0
	for mask := 0; mask < 1<<optional; mask++ {
		on := func(bit int) bool { return mask&(1<<bit) != 0 }
		for si, str := range replyStrings {
			r := SolveResponse{
				InstanceHash: "9f86d081884c7d659a2feaa0c55ad015a3bf4f1b2b0b822cd15d6c15b0f00a08",
				K:            si,
				Actions:      mask,
				Engine:       "exact",
				SolvedBy:     "approx",
				Cached:       mask%3 == 0,
				Coalesced:    on(0),
				CertifyMode:  "fast",
				Adequate:     on(1),
				ElapsedMS:    replyFloats[(mask+si)%len(replyFloats)],
				ApproxExact:  on(8),
			}
			if on(1) {
				r.Cost = &cost
			}
			if on(2) {
				r.FirstAction = str
			}
			if on(3) {
				r.Tree = replyStrings[(si+1)%len(replyStrings)]
			}
			if on(4) {
				r.Approx = "1.2"
			}
			if on(5) {
				r.GapMilli = &gap
			}
			if on(6) {
				r.LowerBound = &lb
			}
			if on(7) {
				r.ApproxPolicy = str
			}
			if got, want := appendSolveResponse(nil, &r), encoderReply(t, &r); !bytes.Equal(got, want) {
				t.Fatalf("mask %#x, string %d:\n got: %q\nwant: %q", mask, si, got, want)
			}
			n++
		}
	}
	t.Logf("%d replies byte-identical", n)
}

// FuzzSolveResponseAppend checks appendSolveResponse against json.Encoder on
// arbitrary field values. flags switches the booleans and the pointer
// fields on, one bit each.
func FuzzSolveResponseAppend(f *testing.F) {
	f.Add("abc", "exact", "T1", "", "", "", 3, 4, uint64(7), uint64(0), uint64(0), 0.25, uint8(0b0000101))
	f.Add("", "approx", "<a&b>", "x\u2028y", "1.5", "bb", 24, 40, uint64(1<<40), uint64(1500), uint64(9), 1e21, uint8(0xff))
	f.Add("h", "exact", "\xff", "\x00\x7f", "", "greedy-ratio", 0, 0, uint64(0), uint64(0), uint64(0), 1e-7, uint8(0b1010010))
	f.Fuzz(func(t *testing.T, hash, engine, first, tree, approxRaw, policy string, k, actions int,
		cost, gap, lb uint64, elapsed float64, flags uint8) {
		if math.IsNaN(elapsed) || math.IsInf(elapsed, 0) {
			t.Skip("encoding/json refuses non-finite floats; elapsed_ms is always finite")
		}
		on := func(bit uint) bool { return flags&(1<<bit) != 0 }
		r := SolveResponse{
			InstanceHash: hash,
			K:            k,
			Actions:      actions,
			Engine:       engine,
			SolvedBy:     engine,
			Cached:       on(0),
			Coalesced:    on(1),
			CertifyMode:  "audit",
			Adequate:     on(2),
			FirstAction:  first,
			Tree:         tree,
			ElapsedMS:    elapsed,
			Approx:       approxRaw,
			ApproxPolicy: policy,
			ApproxExact:  on(3),
		}
		if on(4) {
			r.Cost = &cost
		}
		if on(5) {
			r.GapMilli = &gap
		}
		if on(6) {
			r.LowerBound = &lb
		}
		if got, want := appendSolveResponse(nil, &r), encoderReply(t, &r); !bytes.Equal(got, want) {
			t.Fatalf("appendSolveResponse differs from json.Encoder\n got: %q\nwant: %q", got, want)
		}
	})
}

// hitAllocs bounds the allocations of one warmed /v1/solve cache hit
// through Handler(), request construction excluded: the 44 the path
// measures on go1.24, with no slack, so that a returning Problem clone (3),
// request deadline (4), boxed log attributes (3), reflective encode or
// regrowing body read fails it.
const hitAllocs = 44

// TestSolveHitAllocs pins the cache-hit path's allocation count, in the
// manner of core.TestSolveSteadyStateAllocs.
func TestSolveHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	s := New(Config{Logger: testLogger()})
	defer s.Close()
	h := s.Handler()
	body := instanceJSON(t, workload.MedicalDiagnosis(12, 12))
	const runs = 50
	reqs := make([]*http.Request, runs+3) // AllocsPerRun runs its function runs+1 times; two warm it first
	recs := make([]*httptest.ResponseRecorder, len(reqs))
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body))
		recs[i] = httptest.NewRecorder()
	}
	i := 0
	hit := func() {
		h.ServeHTTP(recs[i], reqs[i])
		i++
	}
	hit() // the miss that fills the cache
	hit()
	avg := testing.AllocsPerRun(runs, hit)
	for j, rec := range recs[:i] {
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", j, rec.Code, rec.Body)
		}
	}
	if hits := s.Metrics().CacheHits.Load(); hits != int64(i-1) {
		t.Fatalf("%d cache hits over %d requests, want %d", hits, i, i-1)
	}
	t.Logf("%.0f allocs per cache hit", avg)
	if avg > hitAllocs {
		t.Fatalf("a warmed cache hit allocates %.0f objects, want <= %d (a clone, reflective encode or regrowing read back?)", avg, hitAllocs)
	}
}

// TestBodySizeHint covers readBody's Content-Length hint: a chunked body
// (no length) still parses, an over-limit body is a 413 whether its length
// is declared or not, a length past bodyHint (maxBodyBytes included) or
// short of the body falls back to growing the buffer, and an honest length
// reads into one buffer.
func TestBodySizeHint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	p := workload.MedicalDiagnosis(2, 6)
	body := instanceJSON(t, p)
	want, err := core.Solve(canonicalize(p.Clone()))
	if err != nil {
		t.Fatal(err)
	}
	post := func(path string, r io.Reader) (int, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", r)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		msg, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, msg
	}
	// io.MultiReader hides the length, so the client sends the body chunked.
	t.Run("chunked", func(t *testing.T) {
		status, msg := post("/v1/solve", io.MultiReader(bytes.NewReader(body)))
		if status != http.StatusOK || !bytes.Contains(msg, []byte(`"cost": `+strconv.FormatUint(want.Cost, 10))) {
			t.Fatalf("chunked body: status %d, want 200 with cost %d: %s", status, want.Cost, msg)
		}
	})
	t.Run("over-limit", func(t *testing.T) {
		padded := append(bytes.Clone(body), bytes.Repeat([]byte(" "), maxBodyBytes-len(body)+1)...)
		for _, path := range []string{"/v1/solve", "/v1/solve/batch", "/v1/policy"} {
			for name, r := range map[string]func() io.Reader{
				"honest length": func() io.Reader { return bytes.NewReader(padded) },
				"no length":     func() io.Reader { return io.MultiReader(bytes.NewReader(padded)) },
			} {
				if status, msg := post(path, r()); status != http.StatusRequestEntityTooLarge {
					t.Errorf("%s, %s: status %d, want 413: %s", path, name, status, msg)
				}
			}
		}
	})
	// A handler can be called with a length that does not match the body;
	// readBody must still return the body whole.
	request := func(declared int64) *http.Request {
		r := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body))
		r.ContentLength = declared
		return r
	}
	t.Run("declared length", func(t *testing.T) {
		for name, declared := range map[string]int64{
			"exact":          int64(len(body)),
			"short":          int64(len(body) / 3),
			"past the hint":  bodyHint + 1,
			"at the limit":   maxBodyBytes,
			"past the limit": maxBodyBytes + 1,
		} {
			b, err := readBody(httptest.NewRecorder(), request(declared))
			if err != nil || !bytes.Equal(b, body) {
				t.Fatalf("%s: readBody gave %d bytes, %v; want the %d-byte body", name, len(b), err, len(body))
			}
			if cap(b) > bodyHint {
				t.Errorf("%s: a %d-byte buffer for a %d-byte body: a declared length past bodyHint sized it", name, cap(b), len(body))
			}
		}
	})
	// With an honest length the body lands in one buffer: two allocations
	// with the http.MaxBytesReader, where growing from 512 bytes takes more.
	t.Run("one buffer", func(t *testing.T) {
		if raceEnabled {
			t.Skip("the race detector allocates on its own")
		}
		const runs = 20
		reqs := make([]*http.Request, runs+1)
		for i := range reqs {
			reqs[i] = request(int64(len(body)))
		}
		rec, i := httptest.NewRecorder(), 0
		allocs := testing.AllocsPerRun(runs, func() {
			if _, err := readBody(rec, reqs[i]); err != nil {
				t.Fatal(err)
			}
			i++
		})
		if allocs > 2 {
			t.Fatalf("reading a %d-byte body with its length declared allocates %.0f objects, want <= 2", len(body), allocs)
		}
	})
}

// TestCanonicalizeKeepsInput checks that the exported Canonicalize leaves
// its argument's action order alone (perfbench's route walk reuses its
// instances), and that the in-place canonicalize the handlers call gives
// the same order and the same Hash.
func TestCanonicalizeKeepsInput(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := workload.MedicalDiagnosis(5, 9)
	want, err := Hash(Canonicalize(p))
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 8; trial++ {
		q := permuted(rng, p)
		before := slices.Clone(q.Actions)
		c := Canonicalize(q)
		if !slices.Equal(q.Actions, before) {
			t.Fatalf("trial %d: Canonicalize reordered its argument", trial)
		}
		if got := canonicalize(q); got != q || !slices.Equal(q.Actions, c.Actions) {
			t.Fatalf("trial %d: in-place canonicalize gave another order than Canonicalize", trial)
		}
		for name, canon := range map[string]*core.Problem{"Canonicalize": c, "canonicalize": q} {
			if h, err := Hash(canon); err != nil || h != want {
				t.Fatalf("trial %d: %s hashed to %s (%v), want %s", trial, name, h, err, want)
			}
		}
	}
}
