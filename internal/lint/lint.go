// Package lint is distredge's project-invariant static-analysis suite.
//
// The codebase stakes correctness on conventions no compiler checks: the
// planning stack must stay seed-deterministic and bit-identical to its
// goldens, transport.Conn.Send transfers payload ownership to the pool,
// control frames ride negative Volume sentinels, and the runtime's shared
// state is guarded by documented mutexes. Each convention has an analyzer
// here; cmd/distlint drives them over go/parser + go/types using only the
// standard library (package discovery and export data come from
// `go list -export -json`, so the suite runs offline and in CI).
//
// Analyzers:
//
//	determinism — flags wall-clock reads, the global math/rand source and
//	  order-sensitive map iteration inside the deterministic planning
//	  packages (sim, splitter, strategy, rl, experiments, partition,
//	  network, nn and the public API), where any of them silently breaks
//	  bit-identical golden tests.
//	payloadown  — flags reads of a payload buffer after its ownership was
//	  transferred by a transport Send, Pool.Put or RecyclePayload; such
//	  reads race with the pool recycling the buffer and the race detector
//	  only catches them if the buffer is rewritten in time.
//	sentinel    — flags raw integer literals <= -2 compared against or
//	  assigned to Volume fields (the wire's control-frame space), forcing
//	  the named constants from the sentinels.go files.
//	lockcheck   — for struct fields annotated `guarded by <mu>`, flags
//	  accesses from methods of the struct that do not hold the lock.
//	baresleep   — flags relative time.Sleep in the non-test files of the
//	  runtime and transport packages outside the absolute-deadline helper:
//	  emulated waits follow an ideal schedule, so timer overshoot is repaid
//	  instead of accumulating along the pipeline.
//
// A diagnostic can be suppressed with a justified directive on the same
// line or the line above:
//
//	//distlint:allow payloadown -- inproc hands payloads over by reference; this test pins that
//
// The reason after `--` is mandatory: an unexplained suppression is itself
// reported.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding at a source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one project-invariant check.
type Analyzer struct {
	Name string
	Doc  string
	// Applies reports whether the analyzer runs on the package with the
	// given base import path (test variants are collapsed to their base
	// path). A nil Applies means every package.
	Applies func(importPath string) bool
	Run     func(p *Pass)
}

// Pass is one analyzer's view of one package.
type Pass struct {
	Pkg      *Package
	analyzer *Analyzer
	out      *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.out = append(*p.out, Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// All returns the analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{Determinism, PayloadOwn, Sentinel, LockCheck, BareSleep}
}

// ByName resolves a comma-separated analyzer list; unknown names error.
func ByName(names string) ([]*Analyzer, error) {
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		found := false
		for _, a := range All() {
			if a.Name == n {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("lint: unknown analyzer %q", n)
		}
	}
	return out, nil
}

// Run executes the analyzers over the packages and returns the surviving
// diagnostics sorted by position. Suppressed diagnostics are dropped;
// malformed or unjustified suppression directives are reported themselves.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var all []Diagnostic
	for _, pkg := range pkgs {
		allows, allowDiags := collectAllows(pkg)
		all = append(all, allowDiags...)
		for _, a := range analyzers {
			if a.Applies != nil && !a.Applies(pkg.BasePath()) {
				continue
			}
			var out []Diagnostic
			pass := &Pass{Pkg: pkg, analyzer: a, out: &out}
			a.Run(pass)
			for _, d := range out {
				if allows.allowed(d) {
					continue
				}
				all = append(all, d)
			}
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return all
}

// allowSet maps file -> line -> analyzer names a directive covers. A
// directive covers its own line and the line below it, so it can sit
// either trailing the flagged statement or on its own line above.
type allowSet map[string]map[int]map[string]bool

func (s allowSet) allowed(d Diagnostic) bool {
	lines := s[d.Pos.Filename]
	if lines == nil {
		return false
	}
	for _, ln := range [2]int{d.Pos.Line, d.Pos.Line - 1} {
		if names := lines[ln]; names != nil && (names[d.Analyzer] || names["all"]) {
			return true
		}
	}
	return false
}

var allowRe = regexp.MustCompile(`^//\s*distlint:allow\s+(.*)$`)

// collectAllows parses //distlint:allow directives out of the package's
// comments. Directives must carry a justification after ` -- `; bare ones
// are reported so suppressions stay auditable.
func collectAllows(pkg *Package) (allowSet, []Diagnostic) {
	set := allowSet{}
	var diags []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := allowRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				spec, reason, ok := strings.Cut(m[1], "--")
				if !ok || strings.TrimSpace(reason) == "" {
					diags = append(diags, Diagnostic{
						Pos:      pos,
						Analyzer: "distlint",
						Message:  "allow directive needs a justification: //distlint:allow <analyzers> -- <reason>",
					})
					continue
				}
				names := map[string]bool{}
				for _, n := range strings.Split(spec, ",") {
					if n = strings.TrimSpace(n); n != "" {
						names[n] = true
					}
				}
				if len(names) == 0 {
					diags = append(diags, Diagnostic{
						Pos:      pos,
						Analyzer: "distlint",
						Message:  "allow directive names no analyzer",
					})
					continue
				}
				if set[pos.Filename] == nil {
					set[pos.Filename] = map[int]map[string]bool{}
				}
				set[pos.Filename][pos.Line] = names
			}
		}
	}
	return set, diags
}

// litInt unwraps parentheses, unary minus and single-argument conversions
// around an integer literal and returns its value. The second result is
// false for anything that is not a syntactic literal — named constants in
// particular, which is what lets the sentinel analyzer force them.
func litInt(e ast.Expr) (int64, bool) {
	neg := false
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.SUB {
				return 0, false
			}
			neg = !neg
			e = x.X
		case *ast.CallExpr:
			// int32(-2)-style conversions; anything with one argument and
			// a literal inside is close enough for sentinel spotting.
			if len(x.Args) != 1 {
				return 0, false
			}
			e = x.Args[0]
		case *ast.BasicLit:
			if x.Kind != token.INT {
				return 0, false
			}
			var v int64
			if _, err := fmt.Sscanf(x.Value, "%d", &v); err != nil {
				return 0, false
			}
			if neg {
				v = -v
			}
			return v, true
		default:
			return 0, false
		}
	}
}
