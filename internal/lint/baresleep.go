package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
)

// pacedPkgs are the packages whose waits emulate devices and links. Time
// there is a schedule, not a pause: a wait has an absolute end computed
// from ideal ready and busy-until times (transport.Pacer), so that a timer
// waking late shortens the next wait instead of pushing everything after
// it back.
var pacedPkgs = map[string]bool{
	"distredge/internal/runtime":   true,
	"distredge/internal/transport": true,
}

// The one function allowed to call time.Sleep in the paced packages:
// transport.sleepUntil, which sleeps to an absolute deadline and reports the
// overshoot. A function of the same name in the other package is not it.
const (
	sleepHelperPkg = "distredge/internal/transport"
	sleepHelper    = "sleepUntil"
)

// BareSleep flags time.Sleep in the non-test files of the runtime and
// transport packages outside the absolute-deadline helper. A relative
// sleep on the serving path adds its timer overshoot (0.3-1 ms on a busy
// VM) to every image that crosses it and never pays it back — eight such
// stages cost paper-shaped a quarter of its throughput before they were
// replaced. No wait in the paced packages sits outside the emulated
// schedule, so none carries a //distlint:allow; a future one would need a
// justified directive. Test files may poll.
var BareSleep = &Analyzer{
	Name:    "baresleep",
	Doc:     "forbid relative time.Sleep in runtime/transport outside the absolute-deadline helper",
	Applies: func(path string) bool { return pacedPkgs[path] },
	Run:     runBareSleep,
}

func runBareSleep(p *Pass) {
	helperPkg := p.Pkg.BasePath() == sleepHelperPkg
	for _, f := range p.Pkg.Files {
		file := p.Pkg.Fset.Position(f.Pos()).Filename
		if strings.HasSuffix(filepath.Base(file), "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && helperPkg && fd.Recv == nil && fd.Name.Name == sleepHelper {
				continue
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				fn, ok := p.Pkg.Info.Uses[sel.Sel].(*types.Func)
				if ok && fn.Pkg() != nil && fn.Pkg().Path() == "time" && fn.Name() == "Sleep" {
					p.Reportf(sel.Pos(), "bare time.Sleep in an emulation package: its timer overshoot lands on the critical path and is never repaid; charge the wait to a transport.Pacer (absolute deadline via transport.%s), or justify it with //distlint:allow", sleepHelper)
				}
				return true
			})
		}
	}
}
