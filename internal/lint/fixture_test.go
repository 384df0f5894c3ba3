package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// Fixture packages are type-checked against in-memory stubs instead of the
// real standard library so the tests never depend on export data: the
// analyzers only consume names, package paths and signatures, which the
// stubs reproduce.
var stubSrc = map[string]string{
	"time": `package time
type Time struct{}
type Duration int64
func Now() Time
func Since(t Time) Duration
func Until(t Time) Duration
func Sleep(d Duration)`,

	"math/rand": `package rand
type Source interface{ Int63() int64 }
type Rand struct{}
func (r *Rand) Intn(n int) int
func New(src Source) *Rand
func NewSource(seed int64) Source
func Intn(n int) int
func Float64() float64`,

	"sync": `package sync
type Mutex struct{}
func (m *Mutex) Lock()
func (m *Mutex) Unlock()
type RWMutex struct{}
func (m *RWMutex) Lock()
func (m *RWMutex) Unlock()
func (m *RWMutex) RLock()
func (m *RWMutex) RUnlock()`,

	"distredge/internal/transport": `package transport
type Message struct {
	Image   uint32
	Volume  int32
	Lo, Hi  int32
	Payload []byte
}
type Conn interface {
	Send(m Message) error
	Recv() (Message, error)
	Close() error
}
type Pool struct{}
func NewPool() *Pool
func (p *Pool) Get(n int) []byte
func (p *Pool) Put(b []byte)
func GetPayload(p *Pool, n int) []byte
func RecyclePayload(p *Pool, b []byte)`,
}

type stubImporter struct {
	fset *token.FileSet
	pkgs map[string]*types.Package
}

func (si *stubImporter) Import(path string) (*types.Package, error) {
	if p, ok := si.pkgs[path]; ok {
		return p, nil
	}
	src, ok := stubSrc[path]
	if !ok {
		return nil, fmt.Errorf("no stub for import %q", path)
	}
	f, err := parser.ParseFile(si.fset, path+"/stub.go", src, parser.SkipObjectResolution)
	if err != nil {
		return nil, fmt.Errorf("stub %q: %v", path, err)
	}
	conf := types.Config{Importer: si}
	p, err := conf.Check(path, si.fset, []*ast.File{f}, nil)
	if err != nil {
		return nil, fmt.Errorf("stub %q: %v", path, err)
	}
	si.pkgs[path] = p
	return p, nil
}

var wantRe = regexp.MustCompile("want `([^`]+)`")

// runFixture type-checks the fixture directory as if it were the package
// at asPath, runs one analyzer over it and matches the diagnostics against
// the fixture's `// want` comments: every diagnostic must be wanted on its
// line, every want must be hit.
func runFixture(t *testing.T, a *Analyzer, dir, asPath string) {
	t.Helper()
	fset := token.NewFileSet()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatalf("no fixture files in %s", dir)
	}

	info := NewInfo()
	var terrs []error
	conf := types.Config{
		Importer: &stubImporter{fset: fset, pkgs: map[string]*types.Package{}},
		Error:    func(err error) { terrs = append(terrs, err) },
	}
	tpkg, _ := conf.Check(asPath, fset, files, info)
	if len(terrs) > 0 {
		t.Fatalf("fixture %s does not type-check: %v", dir, terrs)
	}
	pkg := &Package{ImportPath: asPath, Dir: dir, Fset: fset, Files: files, Types: tpkg, Info: info}
	if a.Applies != nil && !a.Applies(pkg.BasePath()) {
		t.Fatalf("analyzer %s does not apply to fixture path %s", a.Name, asPath)
	}
	got := Run([]*Package{pkg}, []*Analyzer{a})

	type want struct {
		re      *regexp.Regexp
		matched bool
	}
	wants := map[string][]*want{} // "file:line" -> expectations
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				wants[key] = append(wants[key], &want{re: regexp.MustCompile(m[1])})
			}
		}
	}

	for _, d := range got {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		found := false
		for _, w := range wants[key] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	keys := make([]string, 0, len(wants))
	for k := range wants {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		for _, w := range wants[k] {
			if !w.matched {
				t.Errorf("%s: no diagnostic matching %q", k, w.re)
			}
		}
	}
}

func TestDeterminismFixtures(t *testing.T) {
	runFixture(t, Determinism, filepath.Join("testdata", "src", "determinism"), "distredge/internal/sim")
}

func TestPayloadOwnFixtures(t *testing.T) {
	runFixture(t, PayloadOwn, filepath.Join("testdata", "src", "payloadown"), "distredge/internal/fixture/po")
}

func TestSentinelFixtures(t *testing.T) {
	runFixture(t, Sentinel, filepath.Join("testdata", "src", "sentinel"), "distredge/internal/fixture/sent")
}

func TestLockCheckFixtures(t *testing.T) {
	runFixture(t, LockCheck, filepath.Join("testdata", "src", "lockcheck"), "distredge/internal/fixture/lc")
}

func TestBareSleepFixtures(t *testing.T) {
	runFixture(t, BareSleep, filepath.Join("testdata", "src", "baresleep"), "distredge/internal/transport")
	runFixture(t, BareSleep, filepath.Join("testdata", "src", "baresleep_runtime"), "distredge/internal/runtime")
}

func TestByName(t *testing.T) {
	as, err := ByName("determinism, lockcheck")
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != 2 || as[0] != Determinism || as[1] != LockCheck {
		t.Fatalf("ByName resolved %v", as)
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Fatal("ByName(nosuch) did not error")
	}
}
