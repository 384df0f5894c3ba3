package lint

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestExecutorsImportNoPlanner fails when a non-test file of an executor —
// internal/runtime or internal/sim — imports the planner: internal/splitter
// or internal/rl. An executor re-plans with the sim.ReplanFunc it is given
// and has no re-planner of its own, so the two executors of one
// sim.Scenario cannot fall back to different defaults. Tests may import
// the planner to pass it in.
func TestExecutorsImportNoPlanner(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not found: %v", err)
	}
	planner := map[string]bool{"distredge/internal/splitter": true, "distredge/internal/rl": true}
	fset := token.NewFileSet()
	for _, pkg := range []string{"runtime", "sim"} {
		dir := filepath.Join(root, "internal", pkg)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				if path, _ := strconv.Unquote(imp.Path.Value); planner[path] {
					t.Errorf("internal/%s/%s:%d imports %s: an executor re-plans with the ReplanFunc it is given",
						pkg, name, fset.Position(imp.Pos()).Line, path)
				}
			}
		}
	}
}
