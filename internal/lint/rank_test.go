package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestRankingLivesInSim fails when a non-test file outside internal/sim
// passes the literal instant 0 to a three-argument Score call. Scoring a
// finished plan at instant 0 is the planner's ranking rule, and it has
// one home, sim.Rank and sim.Best: a second copy would drift from it when
// the rule changes.
func TestRankingLivesInSim(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not found: %v", err)
	}
	simDir := filepath.Join(root, "internal", "sim")
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path == simDir || path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
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
		for _, pos := range scoresAtZero(f) {
			p := fset.Position(pos)
			rel, _ := filepath.Rel(root, p.Filename)
			t.Errorf("%s:%d: a Score at instant 0 ranks a plan: call sim.Rank or sim.Best instead", filepath.ToSlash(rel), p.Line)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestScoresAtZeroFixture holds the guard's matcher to the call shapes it
// must and must not flag.
func TestScoresAtZeroFixture(t *testing.T) {
	const src = `package p

func f() {
	obj.Score(env, s, 0)          // flagged
	DefaultObjective(o).Score(env, s, 0.0) // flagged
	sys.Score(plan, obj, 4)       // a window, not an instant
	obj.Score(env, s, at)         // a chosen instant
	obj.Score(env, 0)             // not the three-argument form
	obj.EpisodeScore(env, s, 0)   // not Score
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fixture.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var lines []int
	for _, pos := range scoresAtZero(f) {
		lines = append(lines, fset.Position(pos).Line)
	}
	if len(lines) != 2 || lines[0] != 4 || lines[1] != 5 {
		t.Errorf("flagged lines %v, want [4 5]", lines)
	}
}

// scoresAtZero returns the position of every call in f of the form
// x.Score(a, b, 0), 0 being any numeric literal of value zero.
func scoresAtZero(f *ast.File) []token.Pos {
	var out []token.Pos
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 3 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Score" {
			return true
		}
		lit, ok := call.Args[2].(*ast.BasicLit)
		if !ok || lit.Kind != token.INT && lit.Kind != token.FLOAT {
			return true
		}
		if v, err := strconv.ParseFloat(strings.ReplaceAll(lit.Value, "_", ""), 64); err == nil && v == 0 {
			out = append(out, call.Pos())
		}
		return true
	})
	return out
}
