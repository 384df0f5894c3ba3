package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnlyAllowed lists the exported declarations that no non-test file of
// the module names and that stay anyway, each with the reason it stays. A
// row is package name, then receiver type for a method, then the name.
var testOnlyAllowed = map[string]string{
	"sim.Env.ReferenceLatency": "oracle: the sim's tests compare the compiled schedule against it",
	"cnn.ReceptiveField":       "oracle: the cnn tests compare VolumeRanges' row algebra against it",

	"distredge.EffortFull":  "public API: a documented PlanConfig.Effort value, resolved by name through experiments.BudgetNamed",
	"distredge.EffortPaper": "public API: a documented PlanConfig.Effort value, resolved by name through experiments.BudgetNamed",

	"experiments.AblationNonlinearity":   "the paper's causal claim, reported by the root BenchmarkAblation* that CI's bench smoke runs",
	"experiments.AblationWarmStart":      "the paper's causal claim, reported by the root BenchmarkAblation* that CI's bench smoke runs",
	"experiments.AblationPartition":      "the paper's causal claim, reported by the root BenchmarkAblation* that CI's bench smoke runs",
	"experiments.PlanDistrEdgeAutoAlpha": "the paper's α search, reported by the root BenchmarkAutoAlpha that CI's bench smoke runs",
	"experiments.BestBaselineIPS":        "row helper of the root figure benchmarks",
	"experiments.FindRow":                "row helper of the root figure benchmarks",

	"network.Constant":        "fixture: flat link traces for tests in several packages",
	"tensor.FromSlice":        "fixture: hand-written tensors for tests in several packages",
	"partition.Memo.Searches": "counter: tests in several packages check how many LC-PSS searches a memo ran",

	"transport.NewChaos":      "fault injector the runtime's recovery tests drive; ROADMAP item 7 decides its future",
	"transport.Chaos.Isolate": "fault injector the runtime's recovery tests drive; ROADMAP item 7 decides its future",
	"transport.Chaos.Heal":    "fault injector the runtime's recovery tests drive; ROADMAP item 7 decides its future",

	"splitter.SearchReplan": "ROADMAP item 11's re-plan table decides it; TestCachedReplanCutsRecoveryTime needs a miss that costs a real search",
}

// TestNoTestOnlyExports fails on an exported declaration of a non-main
// package whose name no non-test file of the module uses, its own
// declaration aside: code compiled into every binary that no planner,
// runtime, command, example or benchmark can reach. Uses in main packages
// count. Names are matched as identifiers, so a method called through an
// interface counts as used by any call of that name. A stale allowlist row
// fails too.
//
// This is a test rather than an Analyzer because an Analyzer's Pass sees
// one package, and this check needs the whole module's uses at once.
func TestNoTestOnlyExports(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not found: %v", err)
	}
	decls, used := scanModule(t, root)

	var unused []string
	for key, d := range decls {
		_, allowed := testOnlyAllowed[key]
		switch {
		case used[d.name] && allowed:
			t.Errorf("allowlist row %s is stale: a non-test file now names it", key)
		case !used[d.name] && !allowed:
			unused = append(unused, d.pos+": "+key)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s is exported, but no non-test file names it: delete it, or allowlist it with a reason", u)
	}
	for key := range testOnlyAllowed {
		if _, ok := decls[key]; !ok {
			t.Errorf("allowlist row %s is stale: no such exported declaration", key)
		}
	}
}

// exportedDecl is one exported declaration: its bare name, which uses are
// matched against, and where it is.
type exportedDecl struct {
	name, pos string
}

// scanModule parses every non-test Go file under root, testdata and
// hidden directories skipped. It returns the exported declarations of
// non-main packages, keyed as in testOnlyAllowed, and the set of
// identifier names the files use, declaring identifiers excluded.
func scanModule(t *testing.T, root string) (map[string]exportedDecl, map[string]bool) {
	t.Helper()
	fset := token.NewFileSet()
	decls := map[string]exportedDecl{}
	used := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		declaring := map[*ast.Ident]bool{}
		if f.Name.Name != "main" {
			for _, id := range exportedIdents(f) {
				declaring[id.ident] = true
				p := fset.Position(id.ident.Pos())
				rel, _ := filepath.Rel(root, p.Filename)
				decls[f.Name.Name+"."+id.key] = exportedDecl{
					name: id.ident.Name,
					pos:  filepath.ToSlash(rel) + ":" + strconv.Itoa(p.Line),
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id != f.Name && !declaring[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return decls, used
}

// declIdent is a declaring identifier and its key: "Name" for a top-level
// func, type, const or var, "Recv.Name" for a method.
type declIdent struct {
	ident *ast.Ident
	key   string
}

// exportedIdents returns a file's exported top-level declarations and the
// exported methods of its exported types. Struct fields and interface
// methods are not declarations here: a field is reached through its type.
func exportedIdents(f *ast.File) []declIdent {
	var out []declIdent
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			if d.Recv == nil {
				out = append(out, declIdent{d.Name, d.Name.Name})
				continue
			}
			if recv := recvName(d.Recv.List[0].Type); ast.IsExported(recv) {
				out = append(out, declIdent{d.Name, recv + "." + d.Name.Name})
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						out = append(out, declIdent{s.Name, s.Name.Name})
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							out = append(out, declIdent{n, n.Name})
						}
					}
				}
			}
		}
	}
	return out
}

// recvName is a method receiver's type name, pointer stripped; "" for a
// generic receiver, which the module has none of.
func recvName(e ast.Expr) string {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}
