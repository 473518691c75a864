package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
)

// FloatEq flags == and != between floating-point operands in non-test
// code. Accumulated rounding differences are how "the same" control
// trajectory diverges between runs or hosts; comparisons should use a
// tolerance. Comparisons against the constant zero are exempt: they are
// sentinel, sparsity and zero-divisor checks, which ask whether a value is
// exactly zero, not whether two computed values agree. The rare other
// legitimate exact comparisons — degenerate-range guards, clamp detection —
// carry a //nolint:maya/floateq with a reason.
var FloatEq = &Analyzer{
	Name: "floateq",
	Doc:  "==/!= on floats in non-test code, other than against constant zero; compare with a tolerance or suppress with a reason",
	Run:  runFloatEq,
}

func runFloatEq(pass *Pass) {
	for _, pkg := range pass.Prog.Pkgs {
		for _, f := range pkg.Files {
			if f.Test {
				continue
			}
			ast.Inspect(f.AST, func(n ast.Node) bool {
				bin, ok := n.(*ast.BinaryExpr)
				if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
					return true
				}
				if !isFloat(pkg.typeOf(bin.X)) && !isFloat(pkg.typeOf(bin.Y)) {
					return true
				}
				// A comparison folded to a constant is decided at compile time.
				if tv, ok := pkg.Info.Types[bin]; ok && tv.Value != nil {
					return true
				}
				if isZeroConst(pkg, bin.X) || isZeroConst(pkg, bin.Y) {
					return true
				}
				pass.Reportf(bin.OpPos, "float %s comparison; use a tolerance (exact comparisons diverge across runs and hosts)", bin.Op)
				return true
			})
		}
	}
}

// isZeroConst reports whether e is a constant expression equal to zero.
func isZeroConst(pkg *Package, e ast.Expr) bool {
	tv, ok := pkg.Info.Types[e]
	return ok && tv.Value != nil && constant.Sign(tv.Value) == 0
}
