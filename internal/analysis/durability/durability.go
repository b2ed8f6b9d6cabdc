// Package durability proves the best-effort-durability contract from PR 4:
// in the serving layer, checkpoint persistence is an optimization, never a
// correctness input — a full disk, a torn rename, or any other durability
// error may be counted and logged but must not become the error (or the
// answer) a solve returns. The solver core deliberately has the opposite
// contract (it aborts on checkpointer errors so chaos kills are clean), so
// this analyzer fires only in packages that import the checkpoint package
// and wrap it best-effort — the boundary where the two contracts meet and
// where a refactor can silently let an ENOSPC take down answers.
package durability

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the durability pass.
var Analyzer = &analysis.Analyzer{
	Name: "durability",
	Doc: "errors from checkpoint-package calls (durable persistence) must be " +
		"logged/counted, never returned: durability failures cost durability, " +
		"not answers (best-effort checkpointing, PR 4)",
	Run: run,
}

func run(pass *analysis.Pass) error {
	checkpointPkg := importedCheckpoint(pass)
	if checkpointPkg == nil || pass.Pkg.Name() == "checkpoint" {
		return nil
	}
	ifaces := checkpointInterfaces(checkpointPkg)
	for _, file := range pass.Files {
		if pass.TestFiles[file] {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if implementsCheckpointIface(pass, fd, ifaces) {
				// Middleware standing in for the store itself (a fault-injecting
				// checkpoint.FS, say) is below the durability boundary: its whole
				// job is to surface these errors to the layer that decides.
				continue
			}
			checkFunc(pass, checkpointPkg, fd)
		}
	}
	return nil
}

// checkpointInterfaces lists the interface types the checkpoint package
// exports (checkpoint.FS in the real tree).
func checkpointInterfaces(pkg *types.Package) []*types.Interface {
	var out []*types.Interface
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		if iface, ok := tn.Type().Underlying().(*types.Interface); ok && !iface.Empty() {
			out = append(out, iface)
		}
	}
	return out
}

// implementsCheckpointIface reports whether fd is a method on a type whose
// method set satisfies one of the checkpoint package's interfaces.
func implementsCheckpointIface(pass *analysis.Pass, fd *ast.FuncDecl, ifaces []*types.Interface) bool {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(ifaces) == 0 {
		return false
	}
	t := pass.TypeOf(fd.Recv.List[0].Type)
	if t == nil {
		return false
	}
	for _, iface := range ifaces {
		if types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface) {
			return true
		}
	}
	return false
}

func importedCheckpoint(pass *analysis.Pass) *types.Package {
	for _, imp := range pass.Pkg.Imports() {
		if imp.Name() == "checkpoint" {
			return imp
		}
	}
	return nil
}

// taint is one assignment of a durability-call error into a variable.
type taint struct {
	pos     token.Pos
	tainted bool
}

// checkFunc tracks, per error variable, whether its most recent assignment
// (lexically) came from a durability call, and flags returns of tainted
// values — including wrapped ones (fmt.Errorf("...%w", err)).
func checkFunc(pass *analysis.Pass, checkpointPkg *types.Package, fd *ast.FuncDecl) {
	assigns := map[types.Object][]taint{}

	// Pass 1: record every assignment to every variable, noting durability
	// taint on the RHS.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		rhsTainted := false
		for _, rhs := range as.Rhs {
			if exprHasDurabilityCall(pass, checkpointPkg, rhs) {
				rhsTainted = true
			}
		}
		for _, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := pass.ObjectOf(id)
			if obj == nil || !isErrorType(obj.Type()) {
				continue
			}
			assigns[obj] = append(assigns[obj], taint{pos: as.Pos(), tainted: rhsTainted})
		}
		return true
	})

	// Pass 2: inspect returns.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			// Direct: return w.Discard()
			if exprHasDurabilityCall(pass, checkpointPkg, res) {
				pass.Reportf(ret.Pos(), "durability error is returned: a checkpoint failure must cost durability, not the answer — count it, log it, return nil (best-effort checkpointing, PR 4)")
				continue
			}
			// Indirect: return err / return fmt.Errorf("...: %w", err) where
			// err's latest prior assignment was a durability call.
			for _, id := range identsIn(res) {
				obj := pass.ObjectOf(id)
				if obj == nil || !isErrorType(obj.Type()) {
					continue
				}
				if latestTaint(assigns[obj], id.Pos()) {
					pass.Reportf(ret.Pos(), "durability error %q flows into this return: a checkpoint failure must cost durability, not the answer (best-effort checkpointing, PR 4)", id.Name)
				}
			}
		}
		return true
	})
}

// latestTaint reports whether the lexically-latest assignment before pos is
// tainted.
func latestTaint(ts []taint, pos token.Pos) bool {
	best := taint{pos: token.NoPos}
	for _, t := range ts {
		if t.pos < pos && t.pos > best.pos {
			best = t
		}
	}
	return best.pos != token.NoPos && best.tainted
}

// codecFuncs is the checkpoint package's pure encode/decode surface.
// Their errors mean corrupt bytes, a correctness signal that MUST propagate
// (quarantine-over-trust, PR 5), not a failed durable write; only the
// persistence surface (Writer, Scan, Load, FS) carries the best-effort
// contract this analyzer enforces.
var codecFuncs = map[string]bool{
	"ProblemHash": true,
	"Encode":      true,
	"Decode":      true,
	"AppendFrame": true,
	"NextFrame":   true,
}

// exprHasDurabilityCall reports whether e contains, in executed position, a
// call into the checkpoint package's persistence surface (functions or
// methods on its types, minus the pure codec functions).
func exprHasDurabilityCall(pass *analysis.Pass, checkpointPkg *types.Package, e ast.Expr) bool {
	found := false
	analysis.CallsInExecutedCode(e, func(call *ast.CallExpr) {
		if found {
			return
		}
		obj := analysis.CalleeObj(pass.TypesInfo, call)
		if obj != nil && obj.Pkg() == checkpointPkg && !codecFuncs[obj.Name()] {
			found = true
		}
	})
	return found
}

func identsIn(e ast.Expr) []*ast.Ident {
	var out []*ast.Ident
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			out = append(out, id)
		}
		return true
	})
	return out
}

func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return named.Obj().Name() == "error" && named.Obj().Pkg() == nil
}
