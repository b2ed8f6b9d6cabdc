package serve

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"repro/internal/core"
	"repro/internal/instio"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/solve_bodies.golden from the current server")

// goldenDomains are cmd/ttgen's seven domains with ttgen's default
// parameters (seed 1, boards of 4, 6 tests and 4 treatments, treatment
// cost 60).
var goldenDomains = []struct {
	name string
	gen  func(k int) *core.Problem
}{
	{"medical", func(k int) *core.Problem { return workload.MedicalDiagnosis(1, k) }},
	{"fault", func(k int) *core.Problem { return workload.FaultLocation(1, k, 4) }},
	{"biology", func(k int) *core.Problem { return workload.SystematicBiology(1, k) }},
	{"laboratory", func(k int) *core.Problem { return workload.LaboratoryAnalysis(1, k) }},
	{"logistics", func(k int) *core.Problem { return workload.Logistics(1, k, 4) }},
	{"binary", func(k int) *core.Problem { return workload.BinaryTestingUniform(k, 60) }},
	{"random", func(k int) *core.Problem { return workload.Random(1, k, 6, 4) }},
}

// goldenMask blanks the fields that may differ between runs or builds
// without the answer changing: wall time, and which engine was asked for or
// produced the answer.
var goldenMask = regexp.MustCompile(`("(?:elapsed_ms|engine|solved_by)": )("[^"]*"|[0-9.e+-]+)`)

// TestSolveBodiesGolden pins the /v1/solve (tree=0 and tree=1) and
// /v1/solve/batch response bodies on the 28 ttgen instances (7 domains × k
// 3..6), cache off, byte for byte once the masked fields are blanked. A
// change to how the exact DP is scheduled must leave this file unchanged.
func TestSolveBodiesGolden(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheEntries: -1})
	post := func(target string, body []byte) []byte {
		t.Helper()
		resp, err := http.Post(ts.URL+target, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: %d %s", target, resp.StatusCode, b)
		}
		return goldenMask.ReplaceAll(b, []byte(`$1"-"`))
	}
	var got bytes.Buffer
	for _, d := range goldenDomains {
		// Each instance twice: the pair shares a lattice, so every batch
		// group has two members, which core.SolveBatchCtx solves as two
		// shards of solo sweeps.
		var batch bytes.Buffer
		batch.WriteString(`{"instances":[`)
		for k := 3; k <= 6; k++ {
			var one bytes.Buffer
			if err := instio.Write(&one, d.gen(k), ""); err != nil {
				t.Fatal(err)
			}
			for _, q := range []string{"?tree=0", "?tree=1"} {
				fmt.Fprintf(&got, "== %s k=%d /v1/solve%s\n", d.name, k, q)
				got.Write(post("/v1/solve"+q, one.Bytes()))
			}
			if k > 3 {
				batch.WriteString(",")
			}
			batch.Write(one.Bytes())
			batch.WriteString(",")
			batch.Write(one.Bytes())
		}
		batch.WriteString("]}")
		fmt.Fprintf(&got, "== %s k=3..6 /v1/solve/batch?tree=1 (each instance twice)\n", d.name)
		got.Write(post("/v1/solve/batch?tree=1", batch.Bytes()))
	}

	path := filepath.Join("testdata", "solve_bodies.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < min(len(gl), len(wl)); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("body differs from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("body differs from %s in length: %d lines, want %d", path, len(gl), len(wl))
	}
}
