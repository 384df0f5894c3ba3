package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// deterministicPkgs is the planning/evaluation stack whose outputs must be
// bit-identical run to run: the golden equivalence tests at the repo root,
// the sim's oracle comparisons and the byte-identical parallel experiment
// rows all assume these packages never consult the wall clock, the global
// random source, or map iteration order.
var deterministicPkgs = map[string]bool{
	"distredge":                      true,
	"distredge/internal/sim":         true,
	"distredge/internal/admit":       true,
	"distredge/internal/splitter":    true,
	"distredge/internal/strategy":    true,
	"distredge/internal/rl":          true,
	"distredge/internal/experiments": true,
	"distredge/internal/plancache":   true,
	"distredge/internal/partition":   true,
	"distredge/internal/network":     true,
	"distredge/internal/nn":          true,
	"distredge/internal/tensor":      true,
	"distredge/internal/cnn":         true,
	"distredge/internal/device":      true,
	"distredge/internal/stats":       true,
	"distredge/internal/baselines":   true,
}

// Determinism flags the three ways the deterministic stack has historically
// gone non-reproducible: wall-clock reads (time.Now/Since/Until), the
// global math/rand source (seeded *rand.Rand is required so every result
// is a pure function of Config.Seed), and `for range` over a map whose
// body folds floating-point values or appends map values to an ordered
// result — both of which leak the randomized iteration order into output
// that golden tests compare byte for byte.
var Determinism = &Analyzer{
	Name:    "determinism",
	Doc:     "forbid wall-clock, global math/rand and order-sensitive map iteration in the deterministic planning packages",
	Applies: func(path string) bool { return deterministicPkgs[path] },
	Run:     runDeterminism,
}

var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

func runDeterminism(p *Pass) {
	info := p.Pkg.Info
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				checkDetSelector(p, info, n)
			case *ast.RangeStmt:
				checkMapRange(p, info, n)
			}
			return true
		})
	}
}

// checkDetSelector flags pkg.Func selectors resolving to time's clock
// reads or to package-level math/rand functions (methods on a seeded
// *rand.Rand resolve to receivers, not package-level functions, and pass).
func checkDetSelector(p *Pass, info *types.Info, sel *ast.SelectorExpr) {
	obj := info.Uses[sel.Sel]
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if wallClockFuncs[fn.Name()] {
			p.Reportf(sel.Pos(), "time.%s reads the wall clock in a deterministic package; results must be a pure function of the seed (pass timestamps in, or move timing to the caller)", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if !strings.HasPrefix(fn.Name(), "New") {
			p.Reportf(sel.Pos(), "global rand.%s draws from the process-wide source; use a seeded *rand.Rand so runs reproduce bit-identically", fn.Name())
		}
	}
}

// checkMapRange flags order-sensitive map iteration. Two body patterns are
// order-sensitive: folding floats or strings with op-assign (float addition
// is not associative, string concat is not commutative — both make the
// result depend on iteration order), and appending an expression that
// reads the map's *value* to a slice (the slice order then varies run to
// run). Appending only keys is the sorted-iteration idiom's first half and
// stays legal.
func checkMapRange(p *Pass, info *types.Info, r *ast.RangeStmt) {
	tv, ok := info.Types[r.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	valueObj := rangeVarObj(info, r.Value)

	ast.Inspect(r.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			switch n.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				if len(n.Lhs) == 1 && isFloatOrString(info, n.Lhs[0]) {
					p.Reportf(n.Pos(), "map iteration folds a %s with %s: iteration order varies run to run and the fold is order-sensitive; iterate sorted keys instead", typeWord(info, n.Lhs[0]), n.Tok)
				}
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "append" && len(n.Args) > 1 {
				for _, arg := range n.Args[1:] {
					if exprReads(info, arg, valueObj) {
						p.Reportf(n.Pos(), "map iteration appends the map value to an ordered result: the slice's order varies run to run; iterate sorted keys instead")
						break
					}
				}
			}
		}
		return true
	})
}

func rangeVarObj(info *types.Info, e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	return info.Defs[id]
}

// exprReads reports whether e references obj (the range value variable).
// With obj unknown (e.g. `for _, v :=` elided), any non-key expression is
// conservatively treated as not reading the value.
func exprReads(info *types.Info, e ast.Expr, obj types.Object) bool {
	if obj == nil {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

func isFloatOrString(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && (b.Info()&types.IsFloat != 0 || b.Info()&types.IsString != 0)
}

func typeWord(info *types.Info, e ast.Expr) string {
	if tv, ok := info.Types[e]; ok && tv.Type != nil {
		if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
			return "string"
		}
	}
	return "float"
}
