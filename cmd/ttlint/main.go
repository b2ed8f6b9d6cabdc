// Command ttlint is the repo's multichecker: it runs the internal/analysis
// suite (certorder, ctxflow, flushcheck, panicsafe) over Go packages and
// reports violations of the invariants this codebase has paid for in
// incidents — certify-before-cache, context plumbing, flush-error checking,
// and worker-pool panic safety.
//
// Standalone:
//
//	ttlint [-json|-sarif] [-only name,name] [-tests] [-dir mod] [packages]
//
// Exit codes: 0 clean, 1 findings, 2 usage/load failure.
//
// As a vet tool (go vet -vettool=$(which ttlint) ./...), it speaks the
// unitchecker protocol: -V=full prints an identity line, and a single
// *.cfg argument runs the suite over one compilation unit described by the
// go command.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/checkers"
	"repro/internal/analysis/sarif"
)

const (
	toolName    = "ttlint"
	toolVersion = "1.0.0"
	toolURI     = "https://example.invalid/repro/docs/ANALYSIS.md"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	// `go vet -vettool` handshake: print an identity line for build caching.
	for _, a := range args {
		if a == "-V=full" || a == "--V=full" {
			fmt.Fprintf(stdout, "%s version v%s sha n/a\n", toolName, toolVersion)
			return 0
		}
	}
	// Unitchecker mode: a single *.cfg argument describing one package.
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		return runVet(args[0], stderr)
	}

	fs := flag.NewFlagSet(toolName, flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		asJSON  = fs.Bool("json", false, "emit findings as a JSON array")
		asSARIF = fs.Bool("sarif", false, "emit findings as SARIF 2.1.0")
		only    = fs.String("only", "", "comma-separated analyzer names to run (default: all)")
		tests   = fs.Bool("tests", false, "also analyze in-package _test.go files")
		dir     = fs.String("dir", "", "directory to resolve package patterns in (default: cwd)")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: %s [flags] [packages]\n", toolName)
		fs.PrintDefaults()
		fmt.Fprintf(stderr, "analyzers:\n")
		for _, a := range checkers.All {
			fmt.Fprintf(stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	anz, err := checkers.Select(*only)
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", toolName, err)
		return 2
	}
	pkgs, err := analysis.Load(analysis.LoadConfig{Dir: *dir, IncludeTests: *tests}, fs.Args()...)
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", toolName, err)
		return 2
	}
	diags, err := analysis.Run(anz, pkgs)
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", toolName, err)
		return 2
	}
	if err := emit(diags, *asJSON, *asSARIF, stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", toolName, err)
		return 2
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// emit writes findings in the selected format. Machine formats go to stdout,
// the human format to stderr (so `ttlint -sarif > findings.sarif` stays
// clean).
func emit(diags []analysis.Diagnostic, asJSON, asSARIF bool, stdout, stderr io.Writer) error {
	switch {
	case asSARIF:
		w := bufio.NewWriter(stdout)
		if err := toSARIF(diags).Encode(w); err != nil {
			return err
		}
		return w.Flush()
	case asJSON:
		w := bufio.NewWriter(stdout)
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(diags); err != nil {
			return err
		}
		return w.Flush()
	default:
		for _, d := range diags {
			fmt.Fprintf(stderr, "%s\n", d)
		}
		if n := len(diags); n > 0 {
			fmt.Fprintf(stderr, "%s: %d finding(s)\n", toolName, n)
		}
		return nil
	}
}

// toSARIF converts the suite's findings into a single-run SARIF log, one rule
// per analyzer.
func toSARIF(diags []analysis.Diagnostic) *sarif.Log {
	log, runObj := sarif.NewLog(toolName, toolVersion, toolURI)
	for _, a := range checkers.All {
		runObj.AddRule(a.Name, a.Doc)
	}
	for _, d := range diags {
		runObj.AddResult(d.Analyzer, sarif.LevelWarning, d.Message, filepath.ToSlash(d.File), d.Line, d.Col)
	}
	return log
}

// vetConfig is the unitchecker protocol's per-package description, written by
// the go command into the *.cfg file. VetxOutput/Output name the facts file
// vet expects the tool to create (this suite computes no cross-package facts,
// so it writes an empty one).
type vetConfig struct {
	ID          string
	Compiler    string
	Dir         string
	ImportPath  string
	GoVersion   string
	GoFiles     []string
	ImportMap   map[string]string
	PackageFile map[string]string
	VetxOnly    bool
	VetxOutput  string
	Output      string
}

func runVet(cfgPath string, stderr io.Writer) int {
	raw, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", toolName, err)
		return 2
	}
	var cfg vetConfig
	if err := json.Unmarshal(raw, &cfg); err != nil {
		fmt.Fprintf(stderr, "%s: parsing %s: %v\n", toolName, cfgPath, err)
		return 2
	}
	// Facts file first: vet treats its absence as tool failure even for
	// fact-free analyzers.
	for _, out := range []string{cfg.VetxOutput, cfg.Output} {
		if out == "" {
			continue
		}
		if err := os.WriteFile(out, nil, 0o666); err != nil {
			fmt.Fprintf(stderr, "%s: writing facts: %v\n", toolName, err)
			return 2
		}
	}
	if cfg.VetxOnly {
		return 0 // dependency pass: facts only, no diagnostics wanted
	}

	pkg, err := typecheckUnit(&cfg)
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", toolName, err)
		return 2
	}
	diags, err := analysis.Run(checkers.All, []*analysis.Package{pkg})
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", toolName, err)
		return 2
	}
	for _, d := range diags {
		fmt.Fprintf(stderr, "%s\n", d)
	}
	if len(diags) > 0 {
		return 2 // vet convention: nonzero exit + stderr text = findings
	}
	return 0
}

// typecheckUnit parses and type-checks one unitchecker compilation unit,
// resolving imports through the cfg's export-data file map.
func typecheckUnit(cfg *vetConfig) (*analysis.Package, error) {
	fset := token.NewFileSet()
	u := &analysis.Package{
		Path:      cfg.ImportPath,
		Fset:      fset,
		TestFiles: map[*ast.File]bool{},
		Info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Scopes:     map[ast.Node]*types.Scope{},
		},
	}
	for _, name := range cfg.GoFiles {
		if !filepath.IsAbs(name) {
			name = filepath.Join(cfg.Dir, name)
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		u.Files = append(u.Files, f)
		if strings.HasSuffix(name, "_test.go") {
			u.TestFiles[f] = true
		}
	}
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	conf := types.Config{Importer: imp, Error: func(error) {}}
	pkg, err := conf.Check(cfg.ImportPath, fset, u.Files, u.Info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", cfg.ImportPath, err)
	}
	u.Pkg = pkg
	return u, nil
}
