// Package sentinelcmp forbids comparing sentinel errors with == or !=.
//
// The offload path wraps protocol.ErrShed as it crosses layers (a
// *protocol.ShedError unwraps to it, %w-wrapping adds replica and offload
// context), so an identity comparison silently stops matching the moment
// anyone adds context — the failure mode
// behind the PR 5/6 shed-vs-failure accounting chain. Any package-level
// `var Err... = ...` of error type is treated as a sentinel: comparisons
// must go through errors.Is, including `switch err { case ErrShed: }`.
// Comparisons against nil stay legal.
package sentinelcmp

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"github.com/meanet/meanet/internal/analysis"
)

// Analyzer is the sentinelcmp check.
var Analyzer = &analysis.Analyzer{
	Name: "sentinelcmp",
	Doc:  "check that sentinel errors are compared with errors.Is, not == or !=",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if n.Op != token.EQL && n.Op != token.NEQ {
					return true
				}
				name := sentinelName(pass, n.X)
				other := n.Y
				if name == "" {
					name = sentinelName(pass, n.Y)
					other = n.X
				}
				if name == "" || isNil(pass, other) {
					return true
				}
				pass.Reportf(n.OpPos, "sentinel error %s compared with %s; use errors.Is (wrapped errors never match ==)", name, n.Op)
			case *ast.SwitchStmt:
				if n.Tag == nil {
					return true
				}
				for _, cl := range n.Body.List {
					cc, ok := cl.(*ast.CaseClause)
					if !ok {
						continue
					}
					for _, e := range cc.List {
						if name := sentinelName(pass, e); name != "" {
							pass.Reportf(e.Pos(), "sentinel error %s matched by switch case; use errors.Is (wrapped errors never match ==)", name)
						}
					}
				}
			}
			return true
		})
	}
	return nil
}

// sentinelName reports the qualified name of e when it denotes a
// package-level error variable named Err*/err*, or "" otherwise.
func sentinelName(pass *analysis.Pass, e ast.Expr) string {
	var id *ast.Ident
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return ""
	}
	v, ok := pass.TypesInfo.Uses[id].(*types.Var)
	if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return ""
	}
	low := strings.ToLower(v.Name())
	if !strings.HasPrefix(low, "err") {
		return ""
	}
	errType := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	if !types.Implements(v.Type(), errType) {
		return ""
	}
	if v.Pkg() == pass.Pkg {
		return v.Name()
	}
	return v.Pkg().Name() + "." + v.Name()
}

func isNil(pass *analysis.Pass, e ast.Expr) bool {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		_, isNilObj := pass.TypesInfo.Uses[id].(*types.Nil)
		return isNilObj
	}
	return false
}
