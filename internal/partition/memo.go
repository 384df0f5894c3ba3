package partition

import (
	"encoding/binary"
	"math"
	"slices"
	"sync"

	"distredge/internal/cnn"
)

// memoCapacity bounds a Memo: a full Memo forgets everything before it
// remembers the next result. A planner serving one model zoo meets one key
// per (model, provider count), a few dozen at most.
const memoCapacity = 32

// Memo remembers the boundaries Search returned for each model and Config,
// so a planner that plans many fleets of one model and size runs LC-PSS once
// for all of them: Search reads the model's splittable layers and the
// Config, and no device speed or bandwidth. A Memo is safe for concurrent
// use and holds at most memoCapacity results; the nil Memo remembers
// nothing.
type Memo struct {
	mu       sync.Mutex
	entries  map[string][]int // guarded by mu
	searches int              // guarded by mu; searches run, errors included
}

// NewMemo returns an empty Memo.
func NewMemo() *Memo {
	return &Memo{entries: make(map[string][]int)}
}

// Search is Search through the memo: a result for the same splittable
// layers and Config is returned from the memo, anything else is searched
// and, when it succeeds, remembered. Callers own the returned slice.
func (mm *Memo) Search(m *cnn.Model, cfg Config) ([]int, error) {
	if mm == nil {
		return Search(m, cfg)
	}
	key := memoKey(m, cfg.withDefaults())
	mm.mu.Lock()
	b, ok := mm.entries[key]
	mm.mu.Unlock()
	if ok {
		return slices.Clone(b), nil
	}
	b, err := Search(m, cfg)
	mm.mu.Lock()
	defer mm.mu.Unlock()
	mm.searches++
	if err != nil {
		return nil, err
	}
	if len(mm.entries) == memoCapacity {
		clear(mm.entries)
	}
	mm.entries[key] = slices.Clone(b)
	return b, nil
}

// Searches returns how many times the memo has run Search.
func (mm *Memo) Searches() int {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	return mm.searches
}

// memoKey encodes everything Search reads: the geometry of every splittable
// layer (not its name) and the Config with its defaults filled in.
func memoKey(m *cnn.Model, cfg Config) string {
	k := binary.LittleEndian.AppendUint64(nil, math.Float64bits(cfg.Alpha))
	for _, v := range []int64{int64(cfg.NumRandomSplits), int64(cfg.Providers), cfg.Seed} {
		k = binary.AppendVarint(k, v)
	}
	for _, l := range m.SplittableLayers() {
		for _, v := range []int{int(l.Kind), l.Win, l.Hin, l.Cin, l.Cout, l.F, l.S, l.P} {
			k = binary.AppendVarint(k, int64(v))
		}
	}
	return string(k)
}
