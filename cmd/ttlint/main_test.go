package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildTool compiles the ttlint binary once per test binary.
func buildTool(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "ttlint")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building ttlint: %v\n%s", err, out)
	}
	return bin
}

// seedModule writes a throwaway module containing exactly one violation per
// analyzer in the suite.
func seedModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module lintme\n\ngo 1.24\n",

		// flushcheck: dropped flush error.
		"internal/emit/emit.go": `package emit

import (
	"bufio"
	"fmt"
	"os"
)

func Dump() {
	w := bufio.NewWriter(os.Stdout)
	fmt.Fprintln(w, "answer")
	w.Flush()
}
`,

		// ctxflow: exported Solve* with no context, under internal/.
		"internal/eng/eng.go": `package eng

func SolveBlind(n int) int { return n * 2 }
`,

		// certorder: cache insert above the certify call.
		"certify/certify.go": `package certify

type Report struct{ OK bool }

func Check(cost uint64) Report { return Report{OK: true} }
`,
		"internal/gate/gate.go": `package gate

import "lintme/certify"

type entry struct{ cost uint64 }

type lruCache struct{ m map[string]*entry }

func (c *lruCache) add(k string, e *entry) { c.m[k] = e }

type server struct{ cache *lruCache }

func (s *server) install(k string, e *entry) {
	s.cache.add(k, e)
	_ = certify.Check(e.cost)
}
`,

		// panicsafe: pooled goroutines without recover.
		"internal/pool/pool.go": `package pool

import "sync"

func Work(jobs chan int) {
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range jobs {
			}
		}()
	}
	wg.Wait()
}
`,
	}
	for name, content := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func exitCode(t *testing.T, err error) int {
	t.Helper()
	if err == nil {
		return 0
	}
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return ee.ExitCode()
	}
	t.Fatalf("running ttlint: %v", err)
	return -1
}

// TestEndToEndSARIF runs the built binary over the seeded module and checks
// the exit code and that every analyzer contributed its finding to the SARIF
// output.
func TestEndToEndSARIF(t *testing.T) {
	bin := buildTool(t)
	mod := seedModule(t)

	cmd := exec.Command(bin, "-sarif", "./...")
	cmd.Dir = mod
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	code := exitCode(t, cmd.Run())
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (findings)\nstderr: %s", code, stderr.String())
	}

	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID  string `json:"ruleId"`
				Level   string `json:"level"`
				Message struct {
					Text string `json:"text"`
				} `json:"message"`
				Locations []struct {
					Physical struct {
						Artifact struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region *struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &log); err != nil {
		t.Fatalf("parsing SARIF: %v\n%s", err, stdout.String())
	}
	if log.Version != "2.1.0" {
		t.Fatalf("SARIF version = %q, want 2.1.0", log.Version)
	}
	if len(log.Runs) != 1 || log.Runs[0].Tool.Driver.Name != "ttlint" {
		t.Fatalf("want a single ttlint run, got %+v", log.Runs)
	}
	run := log.Runs[0]

	byRule := map[string]int{}
	for _, res := range run.Results {
		byRule[res.RuleID]++
		if res.Level != "warning" {
			t.Errorf("result level = %q, want warning", res.Level)
		}
		if len(res.Locations) == 0 || res.Locations[0].Physical.Region == nil ||
			res.Locations[0].Physical.Region.StartLine <= 0 {
			t.Errorf("result %q has no usable location", res.Message.Text)
		}
	}
	for _, want := range []string{"flushcheck", "ctxflow", "certorder", "panicsafe"} {
		if byRule[want] == 0 {
			t.Errorf("no SARIF result from analyzer %q; got %v", want, byRule)
		}
	}
	// Every suite analyzer is declared as a rule even when it has findings
	// from only some of them.
	if len(run.Tool.Driver.Rules) != 4 {
		t.Errorf("driver declares %d rules, want 4", len(run.Tool.Driver.Rules))
	}
}

// TestEndToEndSuppression: a well-formed //ttlint:ignore comment silences the
// finding and flips the exit code to clean.
func TestEndToEndSuppression(t *testing.T) {
	bin := buildTool(t)
	mod := t.TempDir()
	write := func(name, content string) {
		t.Helper()
		path := filepath.Join(mod, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module lintme\n\ngo 1.24\n")
	write("internal/eng/eng.go", `package eng

//ttlint:ignore ctxflow demo entry point, cancellation handled by the process supervisor
func SolveBlind(n int) int { return n * 2 }
`)
	cmd := exec.Command(bin, "./...")
	cmd.Dir = mod
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if code := exitCode(t, cmd.Run()); code != 0 {
		t.Fatalf("exit code = %d, want 0 after suppression\nstderr: %s", code, stderr.String())
	}
}

// TestVettoolProtocol drives the unitchecker surface directly: the -V=full
// handshake and a hand-built *.cfg for one seeded package.
func TestVettoolProtocol(t *testing.T) {
	bin := buildTool(t)
	mod := seedModule(t)

	out, err := exec.Command(bin, "-V=full").Output()
	if err != nil {
		t.Fatalf("-V=full: %v", err)
	}
	if !strings.HasPrefix(string(out), "ttlint version ") {
		t.Fatalf("-V=full output %q lacks identity prefix", out)
	}

	// Export data for the seeded package's stdlib deps, from the go command.
	list := exec.Command("go", "list", "-e", "-export", "-deps", "-json", "./internal/emit")
	list.Dir = mod
	raw, err := list.Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	packageFile := map[string]string{}
	var goFiles []string
	dec := json.NewDecoder(bytes.NewReader(raw))
	for {
		var p struct {
			ImportPath string
			Dir        string
			Export     string
			GoFiles    []string
		}
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		if p.Export != "" {
			packageFile[p.ImportPath] = p.Export
		}
		if p.ImportPath == "lintme/internal/emit" {
			for _, f := range p.GoFiles {
				goFiles = append(goFiles, filepath.Join(p.Dir, f))
			}
		}
	}
	if len(goFiles) == 0 {
		t.Fatal("go list did not surface the seeded package")
	}

	vetx := filepath.Join(t.TempDir(), "emit.vetx")
	cfg := map[string]any{
		"ImportPath":  "lintme/internal/emit",
		"GoFiles":     goFiles,
		"ImportMap":   map[string]string{},
		"PackageFile": packageFile,
		"VetxOnly":    false,
		"VetxOutput":  vetx,
	}
	cfgJSON, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfgPath := filepath.Join(t.TempDir(), "emit.cfg")
	if err := os.WriteFile(cfgPath, cfgJSON, 0o666); err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command(bin, cfgPath)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if code := exitCode(t, cmd.Run()); code != 2 {
		t.Fatalf("cfg mode exit code = %d, want 2 (vet findings)\nstderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "Flush error is dropped") {
		t.Fatalf("cfg mode stderr lacks the flushcheck finding:\n%s", stderr.String())
	}
	if _, err := os.Stat(vetx); err != nil {
		t.Fatalf("vetx facts file not written: %v", err)
	}
}
