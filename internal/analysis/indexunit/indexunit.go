// Package indexunit polices the boundary between the two "metre" units in
// this codebase: trajectory metre-indices (int — the i-th per-metre mark
// since recording began) and metre distances (float64 — lengths along the
// road). The two are numerically interchangeable, which is exactly why raw
// float64(idx) / int(dist) conversions are dangerous: nothing marks the
// place where an index silently becomes a distance. SYNPoint.RelativeDistance
// is the canonical trap.
//
// The analyzer flags raw conversions between index-named integers and
// distance-named floats and points at the sanctioned helpers,
// trajectory.MetresFromIndex and trajectory.IndexFromMetres, which make the
// unit change explicit and auditable.
package indexunit

import (
	"go/ast"
	"go/types"
	"regexp"

	"rups/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "indexunit",
	Doc: "flags raw float64(index)/int(distance) conversions between trajectory " +
		"metre-indices and metre distances; use trajectory.MetresFromIndex / IndexFromMetres",
	Run: run,
}

var (
	// indexName matches identifiers that carry a trajectory metre-index.
	// "mark" is in the set because a trajectory records one mark per metre:
	// an int named mark is the i-th metre mark, not a distance — the exact
	// confusion behind an earlier mark-to-distance unit bug.
	indexName = regexp.MustCompile(`(?i)(idx|index|mark)`)
	// distName matches identifiers that carry a metre distance.
	distName = regexp.MustCompile(`(?i)(dist|metre|meter|gap)`)
	// sanctioned are the helpers allowed to perform the raw conversion.
	sanctioned = map[string]bool{"MetresFromIndex": true, "IndexFromMetres": true}
)

func run(pass *analysis.Pass) error {
	pass.WithStack(func(n ast.Node, stack []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return true
		}
		// Only conversions, not function calls.
		convIdent, ok := call.Fun.(*ast.Ident)
		if !ok {
			return true
		}
		if _, isType := pass.TypesInfo.Uses[convIdent].(*types.TypeName); !isType {
			return true
		}
		if sanctioned[analysis.EnclosingFunc(stack)] {
			return true
		}
		arg := call.Args[0]
		switch convIdent.Name {
		case "float64", "float32":
			if isIntExpr(pass, arg) && mentions(arg, indexName) {
				pass.Reportf(call.Pos(),
					"raw %s() of trajectory index %q; convert with trajectory.MetresFromIndex to make the unit change explicit",
					convIdent.Name, render(arg))
			}
		case "int", "int64", "int32":
			if isFloatExpr(pass, arg) && mentions(arg, distName) {
				pass.Reportf(call.Pos(),
					"raw %s() of metre distance %q; convert with trajectory.IndexFromMetres to make the unit change explicit",
					convIdent.Name, render(arg))
			}
		}
		return true
	})
	return nil
}

// mentions reports whether any identifier or field name inside e matches
// re. Subtrees under the len() builtin are skipped: len(marks) is a count,
// not a metre-index, no matter what the operand is named.
func mentions(e ast.Expr, re *regexp.Regexp) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if fn, ok := call.Fun.(*ast.Ident); ok && fn.Name == "len" {
				return false
			}
		}
		if id, ok := n.(*ast.Ident); ok && re.MatchString(id.Name) {
			found = true
			return false
		}
		return !found
	})
	return found
}

func isIntExpr(pass *analysis.Pass, e ast.Expr) bool {
	return basicInfo(pass, e)&types.IsInteger != 0
}

func isFloatExpr(pass *analysis.Pass, e ast.Expr) bool {
	return basicInfo(pass, e)&types.IsFloat != 0
}

func basicInfo(pass *analysis.Pass, e ast.Expr) types.BasicInfo {
	t := pass.TypesInfo.TypeOf(e)
	if t == nil {
		return 0
	}
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return 0
	}
	return b.Info()
}

// render produces a short printable form of the flagged expression.
func render(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return render(e.X) + "." + e.Sel.Name
	case *ast.BinaryExpr:
		return render(e.X) + " " + e.Op.String() + " " + render(e.Y)
	case *ast.ParenExpr:
		return "(" + render(e.X) + ")"
	case *ast.CallExpr:
		return render(e.Fun) + "(…)"
	case *ast.IndexExpr:
		return render(e.X) + "[…]"
	case *ast.BasicLit:
		return e.Value
	default:
		return "expression"
	}
}
