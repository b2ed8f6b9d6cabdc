// Package analysistest runs an analyzer over golden testdata and checks its
// findings against // want comments — the same contract as
// golang.org/x/tools/go/analysis/analysistest, reimplemented over this
// repo's offline analysis framework.
//
// Layout: <testdata>/src/<importpath>/*.go. Testdata packages may import each
// other (fake certify packages mimic the real serving stack's
// shape) and the standard library; stdlib dependencies are type-checked from
// compiled export data via `go list -export`, so no network and no module
// cache are needed.
//
// Expectations are written at the end of the offending line:
//
//	w.Flush() // want "Flush error is dropped"
//
// The quoted string is a regexp matched against the diagnostic message; every
// finding must be wanted and every want must fire, on its exact line.
package analysistest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
)

var wantRE = regexp.MustCompile(`//\s*want\s+(.*)$`)

// Run analyzes the packages at the given import paths under
// <testdata>/src and reports mismatches against their // want comments.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, paths ...string) {
	t.Helper()
	pkgs, err := load(testdata, paths)
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	diags, err := analysis.Run([]*analysis.Analyzer{a}, pkgs)
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	check(t, pkgs, diags)
}

type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

func check(t *testing.T, pkgs []*analysis.Package, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []*expectation
	seen := map[*ast.File]bool{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			if seen[f] {
				continue
			}
			seen[f] = true
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRE.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					for _, raw := range splitQuoted(m[1]) {
						re, err := regexp.Compile(raw)
						if err != nil {
							t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, raw, err)
						}
						wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re, raw: raw})
					}
				}
			}
		}
	}
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if w.file == d.File && w.line == d.Line && w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.raw)
		}
	}
}

// splitQuoted extracts the Go-quoted strings from a want payload:
// `"re one" "re two"` -> [re one, re two].
func splitQuoted(s string) []string {
	var out []string
	for {
		i := strings.IndexByte(s, '"')
		if i < 0 {
			return out
		}
		rest := s[i:]
		// Find the end of this Go string literal.
		for j := 1; j < len(rest); j++ {
			if rest[j] == '\\' {
				j++
				continue
			}
			if rest[j] == '"' {
				if q, err := strconv.Unquote(rest[:j+1]); err == nil {
					out = append(out, q)
				}
				s = rest[j+1:]
				break
			}
			if j == len(rest)-1 {
				return out
			}
		}
	}
}

// load parses and type-checks the named testdata packages plus any testdata
// packages they import, in dependency order.
func load(testdata string, paths []string) ([]*analysis.Package, error) {
	src := filepath.Join(testdata, "src")
	fset := token.NewFileSet()

	type unit struct {
		path    string
		files   []*ast.File
		names   []string
		imports []string
	}
	units := map[string]*unit{}
	var parse func(path string) error
	parse = func(path string) error {
		if _, ok := units[path]; ok {
			return nil
		}
		dir := filepath.Join(src, filepath.FromSlash(path))
		entries, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		u := &unit{path: path}
		units[path] = u
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
			if err != nil {
				return err
			}
			u.files = append(u.files, f)
			u.names = append(u.names, e.Name())
			for _, imp := range f.Imports {
				p, _ := strconv.Unquote(imp.Path.Value)
				u.imports = append(u.imports, p)
				if _, err := os.Stat(filepath.Join(src, filepath.FromSlash(p))); err == nil {
					if err := parse(p); err != nil {
						return err
					}
				}
			}
		}
		return nil
	}
	for _, p := range paths {
		if err := parse(p); err != nil {
			return nil, err
		}
	}

	// Everything imported that is not a testdata package is resolved from
	// compiled export data.
	stdlib := map[string]bool{}
	for _, u := range units {
		for _, imp := range u.imports {
			if _, ok := units[imp]; !ok {
				stdlib[imp] = true
			}
		}
	}
	exports, err := exportData(testdata, stdlib)
	if err != nil {
		return nil, err
	}

	checked := map[string]*types.Package{}
	gcImp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return gcImp.Import(path)
	})

	// Topological order over testdata packages.
	var order []string
	state := map[string]int{}
	var visit func(string) error
	visit = func(path string) error {
		switch state[path] {
		case 1:
			return fmt.Errorf("import cycle through %s", path)
		case 2:
			return nil
		}
		state[path] = 1
		for _, dep := range units[path].imports {
			if _, ok := units[dep]; ok {
				if err := visit(dep); err != nil {
					return err
				}
			}
		}
		state[path] = 2
		order = append(order, path)
		return nil
	}
	var all []string
	for p := range units {
		all = append(all, p)
	}
	sort.Strings(all)
	for _, p := range all {
		if err := visit(p); err != nil {
			return nil, err
		}
	}

	var pkgs []*analysis.Package
	for _, path := range order {
		u := units[path]
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Scopes:     map[ast.Node]*types.Scope{},
		}
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(path, fset, u.files, info)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %v", path, err)
		}
		checked[path] = tpkg
		p := &analysis.Package{
			Path: path, Fset: fset, Files: u.files,
			TestFiles: map[*ast.File]bool{}, Pkg: tpkg, Info: info,
		}
		for i, f := range u.files {
			if strings.HasSuffix(u.names[i], "_test.go") {
				p.TestFiles[f] = true
			}
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// exportData asks the go command for compiled export data covering the given
// stdlib import paths (plus their transitive deps).
func exportData(dir string, paths map[string]bool) (map[string]string, error) {
	out := map[string]string{}
	if len(paths) == 0 {
		return out, nil
	}
	args := []string{"list", "-export", "-deps", "-json"}
	var sorted []string
	for p := range paths {
		sorted = append(sorted, p)
	}
	sort.Strings(sorted)
	args = append(args, sorted...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	raw, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list failed: %v\n%s", err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	for {
		var p struct {
			ImportPath string
			Export     string
		}
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		if p.Export != "" {
			out[p.ImportPath] = p.Export
		}
	}
	return out, nil
}
