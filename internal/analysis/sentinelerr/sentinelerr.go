// Package sentinelerr bans string- and identity-matching against the
// module's sentinel errors (topk.ErrConfig, topk.ErrNotFound,
// wire's ErrNodeDown, ...). Every layer of the stack wraps errors
// with context ("shard 3: %w", "node a:1: %w"), so `err == ErrX`
// silently stops matching the moment a wrapper is introduced — the
// wire package's sentinel-to-code table only stays correct because it
// uses errors.Is. Matching on err.Error() text is the same bug with extra
// steps.
//
// Flagged anywhere in the tree:
//
//   - `err == ErrX` / `err != ErrX` where ErrX is a package-level
//     error variable named Err*. (Comparisons against nil stay legal.)
//   - the same identity match against a sentinel from ANOTHER package,
//     whatever its name: io.EOF, context.Canceled, sql.ErrNoRows —
//     every exported package-level error variable in a dependency is a
//     sentinel by construction, and the stdlib wraps too (fs.ErrNotExist
//     behind *PathError, context causes behind joined errors).
//   - a comparison against a LOCAL ALIAS of a sentinel (`e := io.EOF;
//     if err == e`), traced through the shared dataflow graph.
//   - `switch err { case ErrX: }` — the same identity match in
//     switch clothing.
//   - comparing or substring-matching `err.Error()` text: `x.Error() ==
//     "..."`, strings.Contains(err.Error(), ...), HasPrefix, HasSuffix.
//
// The fix is always errors.Is(err, ErrX) (or errors.As for typed
// errors).
package sentinelerr

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/dataflow"
)

// Analyzer is the sentinelerr rule.
var Analyzer = &analysis.Analyzer{
	Name: "sentinelerr",
	Doc:  "compare sentinel errors with errors.Is, never == or err.Error() string matching",
	Run:  run,
}

// aliasDepth bounds the dataflow walk that traces a compared value
// back to a sentinel binding (`e := io.EOF; if err == e`).
const aliasDepth = 3

func run(pass *analysis.Pass) error {
	graph := dataflow.New(pass.TypesInfo, pass.Files)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				checkBinary(pass, graph, n)
			case *ast.SwitchStmt:
				checkSwitch(pass, graph, n)
			case *ast.CallExpr:
				checkStringsCall(pass, n)
			}
			return true
		})
	}
	return nil
}

// directSentinelName returns the name of the sentinel error variable
// expr refers to, or "". Two shapes qualify: a package-level error
// variable named Err* in the package under analysis (the module's own
// convention), and ANY package-level error variable from another
// package — io.EOF and context.Canceled carry no Err prefix, but an
// exported error variable in a dependency is a sentinel by
// construction.
func directSentinelName(pass *analysis.Pass, expr ast.Expr) string {
	var id *ast.Ident
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return ""
	}
	v, ok := pass.TypesInfo.Uses[id].(*types.Var)
	if !ok || v.Pkg() == nil {
		return ""
	}
	// Package-level: declared directly in the package scope.
	if v.Parent() != v.Pkg().Scope() {
		return ""
	}
	if !analysis.IsErrorType(v.Type()) {
		return ""
	}
	if v.Pkg() == pass.Pkg {
		if !strings.HasPrefix(v.Name(), "Err") {
			return ""
		}
		return v.Name()
	}
	return v.Pkg().Name() + "." + v.Name()
}

// sentinelName resolves expr — or, through the dataflow graph, any
// binding it aliases — to a sentinel error variable, returning its
// name or "".
func sentinelName(pass *analysis.Pass, graph *dataflow.Graph, expr ast.Expr) string {
	for _, src := range graph.Sources(pass.TypesInfo, expr, aliasDepth) {
		if name := directSentinelName(pass, src); name != "" {
			return name
		}
	}
	return ""
}

// isNilLiteral reports the untyped nil, which both sides of a legal
// `err == nil` check are allowed to be.
func isNilLiteral(pass *analysis.Pass, expr ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[ast.Unparen(expr)]
	return ok && tv.IsNil()
}

// errorTextOf reports whether expr is a call to the error interface's
// Error method — the `err.Error()` in a string match.
func errorTextOf(pass *analysis.Pass, expr ast.Expr) bool {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Error" || len(call.Args) != 0 {
		return false
	}
	tv, ok := pass.TypesInfo.Types[sel.X]
	return ok && analysis.IsErrorType(tv.Type)
}

func checkBinary(pass *analysis.Pass, graph *dataflow.Graph, n *ast.BinaryExpr) {
	if n.Op != token.EQL && n.Op != token.NEQ {
		return
	}
	// `err == nil` is the one identity check wrapping can't break; the
	// alias trace must not turn it into a finding just because err was
	// seeded from a sentinel somewhere upstream.
	if isNilLiteral(pass, n.X) || isNilLiteral(pass, n.Y) {
		return
	}
	for _, side := range []ast.Expr{n.X, n.Y} {
		if name := sentinelName(pass, graph, side); name != "" {
			pass.Reportf(n.Pos(), "sentinel %s compared with %s; wrapped errors never match — use errors.Is(err, %s)", name, n.Op, name)
			return
		}
	}
	if errorTextOf(pass, n.X) || errorTextOf(pass, n.Y) {
		pass.Reportf(n.Pos(), "error text compared with %s; match the sentinel with errors.Is, not err.Error() strings", n.Op)
	}
}

func checkSwitch(pass *analysis.Pass, graph *dataflow.Graph, n *ast.SwitchStmt) {
	if n.Tag == nil {
		return
	}
	if tv, ok := pass.TypesInfo.Types[n.Tag]; !ok || !analysis.IsErrorType(tv.Type) {
		return
	}
	for _, stmt := range n.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, expr := range cc.List {
			if isNilLiteral(pass, expr) {
				continue
			}
			if name := sentinelName(pass, graph, expr); name != "" {
				pass.Reportf(expr.Pos(), "switch case matches sentinel %s by identity; wrapped errors never match — use errors.Is(err, %s)", name, name)
			}
		}
	}
}

// stringsMatchers are the strings-package predicates that turn error
// text back into control flow.
var stringsMatchers = map[string]bool{"Contains": true, "HasPrefix": true, "HasSuffix": true, "EqualFold": true}

func checkStringsCall(pass *analysis.Pass, call *ast.CallExpr) {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "strings" || !stringsMatchers[fn.Name()] {
		return
	}
	for _, arg := range call.Args {
		if errorTextOf(pass, arg) {
			pass.Reportf(call.Pos(), "strings.%s over err.Error() text; match the sentinel with errors.Is, not string matching", fn.Name())
			return
		}
	}
}
