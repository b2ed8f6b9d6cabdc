// Package analysis is the repository's static-analysis framework: a
// self-contained reimplementation of the golang.org/x/tools/go/analysis
// vocabulary (Analyzer, Pass, Diagnostic) plus a driver that loads and
// type-checks this module's packages using only the standard library and the
// go command.
//
// Why not x/tools itself? The repo builds offline with an empty module cache,
// and the invariants these analyzers prove (docs/ANALYSIS.md) are too
// load-bearing to gate on a network fetch. The API mirrors x/tools closely —
// an analyzer is a Name, a Doc, and a Run(*Pass) — so migrating onto the real
// framework later is a mechanical change, and the analyzers themselves would
// port unmodified.
//
// The driver (Load in load.go) resolves package metadata and compiled export
// data through `go list -export`, parses the target packages from source, and
// type-checks them with go/types against the export data — the same scheme
// x/tools' unitchecker uses under `go vet -vettool`. cmd/ttlint fronts the
// suite; see docs/ANALYSIS.md for each analyzer's invariant and its
// motivating bug.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer describes one analysis pass: a named invariant checked over a
// single type-checked package.
type Analyzer struct {
	Name string // short lowercase identifier, used in diagnostics and suppressions
	Doc  string // one-paragraph description of the invariant

	// Run inspects the package and reports findings through pass.Report.
	// The error return is for analysis failures (internal errors), not
	// findings.
	Run func(pass *Pass) error
}

// A Pass hands one package to one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File // parsed source, comments included
	Pkg       *types.Package
	TypesInfo *types.Info
	Path      string // import path being analyzed

	// TestFiles marks which of Files are _test.go files; analyzers whose
	// invariant is production-only (ctxflow, certorder) skip them.
	TestFiles map[*ast.File]bool

	diags *[]Diagnostic
}

// Report records one finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
	})
}

// TypeOf returns the type of expr, or nil when the type checker recorded
// none.
func (p *Pass) TypeOf(expr ast.Expr) types.Type {
	return p.TypesInfo.TypeOf(expr)
}

// ObjectOf resolves an identifier to its object (definition or use).
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if o := p.TypesInfo.Defs[id]; o != nil {
		return o
	}
	return p.TypesInfo.Uses[id]
}

// A Diagnostic is one finding: which analyzer, where, and what.
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"-"`
	Message  string         `json:"message"`

	// Flattened position for the JSON form.
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// CalleeObj resolves the called function or method of call, unwrapping
// parentheses and conversions; nil for calls through function-typed
// expressions the type checker cannot name (indirect calls, built-ins).
func CalleeObj(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		if sel := info.Selections[fun]; sel != nil {
			return sel.Obj()
		}
		return info.Uses[fun.Sel] // package-qualified call
	}
	return nil
}

// CalleePkgName returns the name of the package the callee belongs to, or ""
// when unresolvable (indirect call) or universe-scoped (builtins).
func CalleePkgName(info *types.Info, call *ast.CallExpr) string {
	obj := CalleeObj(info, call)
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Name()
}

// IsPkgFunc reports whether call invokes a function named fn from a package
// named pkgName (matching by package name, not path, so fakes in analyzer
// testdata exercise the same code path as the real packages).
func IsPkgFunc(info *types.Info, call *ast.CallExpr, pkgName, fn string) bool {
	obj := CalleeObj(info, call)
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	return obj.Pkg().Name() == pkgName && obj.Name() == fn
}
