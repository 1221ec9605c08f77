package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// NewGlobalMut builds the globalmut analyzer: simulation code must not
// assign to a package-level variable outside an init function, whether the
// variable belongs to the same package or to another one. Concurrent runs
// (campaign workers, parallel experiments) share every package global, so
// a run that swaps one — the way an ablation once swapped the L-Ob
// escalation order under fig10's feet — races with every other run and
// turns into a golden-file diff that appears only under load. Per-run
// state belongs in the run's configuration.
//
// Flagged: assignments (including op-assign and range clauses that assign
// rather than declare) and ++/-- whose target is a package-level variable
// or reaches into one through fields, indexing or dereferences, anywhere
// but an init function. Reads, and writes to
// locals, are permitted. There is no annotation escape: a global that
// needs writing after init is per-run state in disguise.
func NewGlobalMut() *Analyzer {
	a := &Analyzer{
		Name: "globalmut",
		Doc:  "flags assignments to package-level variables outside init: concurrent runs share them",
	}
	a.Run = func(pass *Pass) error {
		check := func(lhs ast.Expr) {
			if v := globalTarget(pass, lhs); v != nil {
				name := v.Name()
				if v.Pkg() != pass.Pkg {
					name = v.Pkg().Name() + "." + name
				}
				pass.Reportf(lhs.Pos(),
					"assignment to package-level variable %s outside init: concurrent runs share it, so carry per-run state in the run's configuration", name)
			}
		}
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == "init" {
					continue
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.AssignStmt:
						if n.Tok == token.DEFINE {
							return true
						}
						for _, lhs := range n.Lhs {
							check(lhs)
						}
					case *ast.IncDecStmt:
						check(n.X)
					case *ast.RangeStmt:
						if n.Tok == token.ASSIGN {
							for _, lhs := range []ast.Expr{n.Key, n.Value} {
								if lhs != nil {
									check(lhs)
								}
							}
						}
					}
					return true
				})
			}
		}
		return nil
	}
	return a
}

// globalTarget unwraps an assignment target (parens, indexing, derefs,
// field selections) down to the variable it writes into and returns it if
// that variable is package-level, in this package or an imported one.
func globalTarget(pass *Pass, e ast.Expr) *types.Var {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			if _, isField := pass.TypesInfo.Selections[x]; isField {
				e = x.X
				continue
			}
			return packageVar(pass.TypesInfo.Uses[x.Sel]) // qualified identifier pkg.Var
		case *ast.Ident:
			return packageVar(pass.TypesInfo.Uses[x])
		default:
			return nil
		}
	}
}

// packageVar returns obj as a variable if it is declared at package scope.
func packageVar(obj types.Object) *types.Var {
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() || v.Pkg() == nil || v.Pkg().Scope().Lookup(v.Name()) != v {
		return nil
	}
	return v
}
