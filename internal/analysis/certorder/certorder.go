// Package certorder proves the certify-before-cache discipline from PR 5: in
// the serving layer, no solver answer reaches the cache or a client response
// until it has passed through the certify package. The check is a dominance
// argument over each function's statement structure — every cache-insert and
// solve-response-write site must be preceded on all paths by a certifying
// call (a call that reaches certify.Check*, Certify* or Verify*, directly or
// through the package-local call graph). There is no opt-out: every served
// answer is certified, exact and approximate alike.
//
// Without x/tools the repo has no SSA, so dominance is computed on the AST:
// a forward walk through each function body that tracks a "certified" flag,
// meeting at if/else joins (both arms must certify for the join to be
// certified) and resetting at loop entry. That is conservative — a site the
// walk cannot prove dominated is reported even if some exotic control flow
// would certify it dynamically — which is the right polarity for this
// invariant: the PR 5 incident class is silently serving unverified answers.
package certorder

import (
	"go/ast"
	"go/types"
	"regexp"

	"repro/internal/analysis"
)

// Analyzer is the certorder pass.
var Analyzer = &analysis.Analyzer{
	Name: "certorder",
	Doc: "every cache-insert and solve-response-write site in a package that " +
		"imports certify must be dominated by a certify call (certify-before-cache, " +
		"PR 5); there is no opt-out annotation",
	Run: run,
}

// cacheTypeRE matches named types that act as answer caches.
var cacheTypeRE = regexp.MustCompile(`(?i)(cache|lru)`)

// responseTypeRE matches the response struct whose write is the serve
// boundary.
var responseTypeRE = regexp.MustCompile(`SolveResponse$`)

func run(pass *analysis.Pass) error {
	certifyPkg := importedCertify(pass)
	if certifyPkg == nil {
		return nil // no certify import: the discipline does not apply here
	}

	// Fixpoint: which package-level functions certify (transitively reach a
	// certify.Check* call on some path)?
	certifying := certifyingFuncs(pass, certifyPkg)

	for _, file := range pass.Files {
		if pass.TestFiles[file] {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if recvIsCache(pass, fd) {
				continue // the cache's own methods are below the boundary
			}
			w := &walker{pass: pass, certifyPkg: certifyPkg, certifying: certifying}
			w.block(fd.Body, false)
		}
	}
	return nil
}

// importedCertify returns the imported package named "certify", or nil.
// Matching by package name keeps analyzer testdata honest: a fake certify
// package exercises exactly the paths the real one does.
func importedCertify(pass *analysis.Pass) *types.Package {
	for _, imp := range pass.Pkg.Imports() {
		if imp.Name() == "certify" {
			return imp
		}
	}
	return nil
}

// certifyingFuncs computes the set of package-level functions and methods
// that contain a certifying call, transitively through the package-local
// call graph.
func certifyingFuncs(pass *analysis.Pass, certifyPkg *types.Package) map[types.Object]bool {
	// bodies maps each function object to its syntax.
	bodies := map[types.Object]*ast.FuncDecl{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if obj := pass.ObjectOf(fd.Name); obj != nil {
					bodies[obj] = fd
				}
			}
		}
	}
	certifying := map[types.Object]bool{}
	for changed := true; changed; {
		changed = false
		for obj, fd := range bodies {
			if certifying[obj] {
				continue
			}
			found := false
			analysis.CallsInExecutedCode(fd.Body, func(call *ast.CallExpr) {
				if found {
					return
				}
				if isCertifyCheck(pass, call, certifyPkg) || certifying[analysis.CalleeObj(pass.TypesInfo, call)] {
					found = true
				}
			})
			if found {
				certifying[obj] = true
				changed = true
			}
		}
	}
	return certifying
}

// isCertifyCheck reports whether call invokes a checking entry point of the
// certify package (Check*, Certify*, or Verify*); parsing helpers like
// certify.ParseMode do not count.
func isCertifyCheck(pass *analysis.Pass, call *ast.CallExpr, certifyPkg *types.Package) bool {
	obj := analysis.CalleeObj(pass.TypesInfo, call)
	if obj == nil || obj.Pkg() != certifyPkg {
		return false
	}
	name := obj.Name()
	for _, prefix := range []string{"Check", "Certify", "Verify"} {
		if len(name) >= len(prefix) && name[:len(prefix)] == prefix {
			return true
		}
	}
	return false
}

// recvIsCache reports whether fd is a method on a cache-named type.
func recvIsCache(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return false
	}
	t := pass.TypeOf(fd.Recv.List[0].Type)
	return namedMatches(t, cacheTypeRE)
}

func namedMatches(t types.Type, re *regexp.Regexp) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return re.MatchString(named.Obj().Name())
}

// walker performs the forward certified-dominance walk.
type walker struct {
	pass       *analysis.Pass
	certifyPkg *types.Package
	certifying map[types.Object]bool
}

// block walks stmts sequentially, threading the certified flag, and returns
// the flag's state at the end of the straight-line path.
func (w *walker) block(b *ast.BlockStmt, certified bool) bool {
	for _, stmt := range b.List {
		certified = w.stmt(stmt, certified)
	}
	return certified
}

func (w *walker) stmt(s ast.Stmt, certified bool) bool {
	switch st := s.(type) {
	case *ast.IfStmt:
		if st.Init != nil {
			certified = w.stmt(st.Init, certified)
		}
		condCertifies := certified || w.certifies(st.Cond)
		thenOut := w.block(st.Body, condCertifies)
		elseOut := condCertifies
		if st.Else != nil {
			elseOut = w.stmt(st.Else, condCertifies)
		}
		return thenOut && elseOut
	case *ast.BlockStmt:
		return w.block(st, certified)
	case *ast.ForStmt:
		if st.Init != nil {
			certified = w.stmt(st.Init, certified)
		}
		if st.Cond != nil {
			certified = certified || w.certifies(st.Cond)
		}
		w.block(st.Body, certified)
		return certified // body may run zero times
	case *ast.RangeStmt:
		w.block(st.Body, certified)
		return certified
	case *ast.SwitchStmt:
		if st.Init != nil {
			certified = w.stmt(st.Init, certified)
		}
		allOut := true
		for _, c := range st.Body.List {
			cc := c.(*ast.CaseClause)
			out := certified
			for _, bs := range cc.Body {
				out = w.stmt(bs, out)
			}
			allOut = allOut && out
		}
		if !certified && allOut && hasDefault(st.Body) {
			return true // every arm certifies and one always runs
		}
		return certified
	case *ast.TypeSwitchStmt:
		for _, c := range st.Body.List {
			cc := c.(*ast.CaseClause)
			out := certified
			for _, bs := range cc.Body {
				out = w.stmt(bs, out)
			}
		}
		return certified
	case *ast.SelectStmt:
		for _, c := range st.Body.List {
			cc := c.(*ast.CommClause)
			out := certified
			for _, bs := range cc.Body {
				out = w.stmt(bs, out)
			}
		}
		return certified
	case *ast.DeferStmt:
		// A deferred closure runs at exit; walk it with the current state
		// (conservative: sites inside it need certification before the defer
		// is declared).
		if lit, ok := st.Call.Fun.(*ast.FuncLit); ok {
			w.block(lit.Body, certified)
		}
		w.checkSinks(st, certified)
		return certified || w.certifies(st)
	case *ast.LabeledStmt:
		return w.stmt(st.Stmt, certified)
	case *ast.ExprStmt:
		// An immediately-invoked literal is straight-line code: walk it
		// inline so certification established inside it carries through.
		if call, ok := ast.Unparen(st.X).(*ast.CallExpr); ok {
			if lit, ok := call.Fun.(*ast.FuncLit); ok {
				return w.block(lit.Body, certified)
			}
		}
		w.checkSinks(st, certified)
		return certified || w.certifies(st)
	case *ast.GoStmt:
		// A goroutine body is walked with the launch-time state; ordering
		// against the launcher's later statements is not assumed.
		if lit, ok := st.Call.Fun.(*ast.FuncLit); ok {
			w.block(lit.Body, certified)
			return certified
		}
		w.checkSinks(st, certified)
		return certified || w.certifies(st)
	default:
		w.checkSinks(s, certified)
		return certified || w.certifies(s)
	}
}

// certifies reports whether executing n certifies what follows it: it
// contains a certifying call in executed position.
func (w *walker) certifies(n ast.Node) bool {
	found := false
	analysis.CallsInExecutedCode(n, func(call *ast.CallExpr) {
		if w.callCertifies(call) {
			found = true
		}
	})
	return found
}

// callCertifies: a direct certify.Check* call, or a call (including go/defer
// launches) of a package-local function that transitively certifies.
func (w *walker) callCertifies(call *ast.CallExpr) bool {
	if isCertifyCheck(w.pass, call, w.certifyPkg) {
		return true
	}
	return w.certifying[analysis.CalleeObj(w.pass.TypesInfo, call)]
}

// checkSinks reports cache-insert and response-write sites inside s when the
// walk has not established certification.
func (w *walker) checkSinks(s ast.Stmt, certified bool) {
	if certified {
		return
	}
	analysis.CallsInExecutedCode(s, func(call *ast.CallExpr) {
		if w.isCacheInsert(call) {
			w.pass.Reportf(call.Pos(), "cache insert is not dominated by a certify call: an uncertified answer can be served from here forever (certify-before-cache, PR 5)")
		}
		if w.isResponseWrite(call) {
			w.pass.Reportf(call.Pos(), "solve response is written before any certify call on this path: an uncertified answer reaches the client")
		}
	})
}

// isCacheInsert matches calls to add/Add/insert/Insert/put/Put methods on
// cache-named types.
func (w *walker) isCacheInsert(call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch sel.Sel.Name {
	case "add", "Add", "insert", "Insert", "put", "Put", "set", "Set":
	default:
		return false
	}
	return namedMatches(w.pass.TypeOf(sel.X), cacheTypeRE)
}

// isResponseWrite matches calls passing a *SolveResponse-typed value to a
// JSON/HTTP writer helper.
func (w *walker) isResponseWrite(call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		if namedMatches(w.pass.TypeOf(arg), responseTypeRE) {
			return true
		}
	}
	return false
}

func hasDefault(body *ast.BlockStmt) bool {
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok && cc.List == nil {
			return true
		}
	}
	return false
}
