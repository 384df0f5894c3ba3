package lint

import (
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var (
	// ciRun matches a `go test … -run '…'` command line: the pattern, then
	// the rest of the line, which names the packages.
	ciRun = regexp.MustCompile(`go test[^\n]*?-run '([^']*)'([^\n]*)`)
	// testFunc matches a top-level test function of a _test.go file.
	testFunc = regexp.MustCompile(`(?m)^func (Test\w*)\(`)
)

// TestCIRunPatternsNameTests reads the CI workflow and requires every
// alternative of every `go test -run '…'` pattern to match a test function
// of a package that command names ('XXX', the run-no-tests idiom, aside).
// A test renamed or deleted without its CI step otherwise leaves the step
// green while it runs nothing. Alternatives are split at each '|' and only
// the top-level part of a subtest pattern (before the first '/') is
// checked.
func TestCIRunPatternsNameTests(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	ci, err := os.ReadFile(filepath.Join(root, ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	tests := testFuncsByDir(t, root)
	checked := 0
	for _, m := range ciRun.FindAllStringSubmatch(string(ci), -1) {
		pattern, rest := m[1], m[2]
		if pattern == "XXX" {
			continue
		}
		var names []string
		for _, arg := range strings.Fields(rest) {
			if !strings.HasPrefix(arg, ".") {
				continue
			}
			dir, recursive := strings.CutSuffix(arg, "/...")
			dir = path.Clean(dir)
			for d, fns := range tests {
				if d == dir || recursive && (dir == "." || strings.HasPrefix(d, dir+"/")) {
					names = append(names, fns...)
				}
			}
		}
		top, _, _ := strings.Cut(pattern, "/")
		for _, alt := range strings.Split(top, "|") {
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("ci.yml: -run alternative %q: %v", alt, err)
				continue
			}
			if !slices.ContainsFunc(names, re.MatchString) {
				t.Errorf("ci.yml: -run alternative %q matches no test of%s", alt, rest)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("ci.yml holds no -run pattern: has the workflow moved?")
	}
}

// testFuncsByDir maps each package directory under root (slash-separated,
// relative to root, "." for root itself) to the test functions of its
// _test.go files, testdata and hidden directories skipped.
func testFuncsByDir(t *testing.T, root string) map[string][]string {
	t.Helper()
	out := map[string][]string{}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(rel)
		for _, m := range testFunc.FindAllSubmatch(src, -1) {
			out[dir] = append(out[dir], string(m[1]))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}
