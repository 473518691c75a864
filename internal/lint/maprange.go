package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapRange flags ranging over a map when the loop body does something
// order-sensitive: appends to a slice, writes output (fmt/log calls, Write*
// methods), encodes JSON, records telemetry, or accumulates into a float or
// string declared outside the loop with +=, -=, *= or /=. Go randomizes map
// iteration order per run, so any of these turns a byte-identical report
// into a flaky one: string concatenation follows the order outright, and
// float arithmetic is not associative, so a float sum's low bits do too.
// Order-insensitive map loops (integer sums, max scans, set membership)
// are fine and not flagged.
//
// The canonical fix — collect the keys, sort, iterate the sorted slice —
// is recognized: an append inside the loop is allowed when the destination
// slice is sorted by a sort.*/slices.* call later in the same block.
var MapRange = &Analyzer{
	Name: "maprange",
	Doc:  "order-sensitive work inside a map range makes output depend on randomized iteration order",
	Run:  runMapRange,
}

func runMapRange(pass *Pass) {
	for _, pkg := range pass.Prog.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f.AST, func(n ast.Node) bool {
				var list []ast.Stmt
				switch v := n.(type) {
				case *ast.BlockStmt:
					list = v.List
				case *ast.CaseClause:
					list = v.Body
				case *ast.CommClause:
					list = v.Body
				default:
					return true
				}
				for i, stmt := range list {
					if rs := asRange(stmt); rs != nil && mapUnder(pkg.typeOf(rs.X)) {
						checkMapRangeBody(pass, pkg, rs, list[i+1:])
					}
				}
				return true
			})
		}
	}
}

func asRange(stmt ast.Stmt) *ast.RangeStmt {
	for {
		switch v := stmt.(type) {
		case *ast.RangeStmt:
			return v
		case *ast.LabeledStmt:
			stmt = v.Stmt
		default:
			return nil
		}
	}
}

func mapUnder(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// checkMapRangeBody reports order-sensitive operations in the body of a
// map-range statement; rest is the statement list following the loop in
// the same block, scanned for the sort-after-append blessing.
func checkMapRangeBody(pass *Pass, pkg *Package, rs *ast.RangeStmt, rest []ast.Stmt) {
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			if kind := accumulation(pkg, rs, v); kind != "" {
				pass.Reportf(v.TokPos, "%s %s inside a map range accumulates in randomized order; iterate sorted keys instead", kind, v.Tok)
			}
		case *ast.CallExpr:
			if pkg.isBuiltin(v, "append") {
				if len(v.Args) == 0 {
					return true
				}
				dst := rootIdent(v.Args[0])
				if dst != nil && sortedAfter(pkg, dst.Name, rest) {
					return true
				}
				pass.Reportf(v.Pos(), "append inside a map range builds a slice in randomized order; collect keys and sort, or sort the result in the same block")
			} else if why := orderSensitiveCall(pkg, v); why != "" {
				pass.Reportf(v.Pos(), "%s inside a map range happens in randomized order; iterate sorted keys instead", why)
			}
		}
		return true
	})
}

// accumulation returns "float" or "string" when as is a +=, -=, *= or /=
// into a float or string that outlives one iteration of rs: one declared
// outside the loop, or reached through something that is. Integer
// accumulation is exact in any order and returns "".
func accumulation(pkg *Package, rs *ast.RangeStmt, as *ast.AssignStmt) string {
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
	default:
		return ""
	}
	if root := rootIdent(as.Lhs[0]); root != nil {
		if obj := pkg.Info.Uses[root]; obj != nil && rs.Pos() <= obj.Pos() && obj.Pos() < rs.End() {
			return "" // a per-iteration variable
		}
	}
	switch t := pkg.typeOf(as.Lhs[0]); {
	case isFloat(t):
		return "float"
	case isString(t):
		return "string"
	}
	return ""
}

// orderSensitiveCall classifies calls whose per-iteration effect is visible
// in output: printing, error/string building, direct writes, JSON encoding,
// and telemetry recording.
func orderSensitiveCall(pkg *Package, call *ast.CallExpr) string {
	if pkgPath, name := pkg.callPkgFunc(call); pkgPath != "" {
		switch pkgPath {
		case "fmt", "log":
			return "call to " + pkgPath + "." + name
		case "encoding/json":
			if name == "Marshal" || name == "MarshalIndent" {
				return "json." + name
			}
		}
	}
	if recvPath, name, ok := pkg.isMethodCall(call); ok {
		switch name {
		case "Write", "WriteString", "WriteByte", "WriteRune", "Encode":
			return "method " + name + " call"
		case "Inc", "Add", "Set", "Observe", "Record":
			if pathHasSuffix(recvPath, "internal/telemetry") {
				return "telemetry " + name + " call"
			}
		}
	}
	return ""
}

// sortedAfter reports whether a statement after the loop both mentions the
// named slice and calls into sort or slices — the collect-then-sort idiom.
func sortedAfter(pkg *Package, name string, rest []ast.Stmt) bool {
	for _, stmt := range rest {
		mentionsName, mentionsSort := false, false
		ast.Inspect(stmt, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.Ident:
				if v.Name == name {
					mentionsName = true
				}
			case *ast.CallExpr:
				if pkgPath, _ := pkg.callPkgFunc(v); pkgPath == "sort" || pkgPath == "slices" {
					mentionsSort = true
				}
			}
			return true
		})
		if mentionsName && mentionsSort {
			return true
		}
	}
	return false
}
