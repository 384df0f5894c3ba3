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
	key      []byte           // guarded by mu; the key being looked up or stored
	searches int              // guarded by mu; searches run, errors included
}

// NewMemo returns an empty Memo.
func NewMemo() *Memo {
	return &Memo{entries: make(map[string][]int)}
}

// Search is Search through the memo: a result for the same splittable
// layers and Config is returned from the memo, anything else is searched
// and, when it succeeds, remembered. Callers own the returned slice, the
// one allocation of a hit: the key is built in the memo's buffer and a
// string of it is made only to store a result.
func (mm *Memo) Search(m *cnn.Model, cfg Config) ([]int, error) {
	if mm == nil {
		return Search(m, cfg)
	}
	cfg = cfg.withDefaults()
	mm.mu.Lock()
	mm.key = appendKey(mm.key[:0], m, cfg)
	b, ok := mm.entries[string(mm.key)]
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
	// Another caller may have built its key in the buffer meanwhile.
	mm.key = appendKey(mm.key[:0], m, cfg)
	mm.entries[string(mm.key)] = slices.Clone(b)
	return b, nil
}

// Searches returns how many times the memo has run Search.
func (mm *Memo) Searches() int {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	return mm.searches
}

// appendKey appends to k everything Search reads: the geometry of every
// splittable layer (not its name) and the Config with its defaults filled
// in.
func appendKey(k []byte, m *cnn.Model, cfg Config) []byte {
	k = binary.LittleEndian.AppendUint64(k, math.Float64bits(cfg.Alpha))
	for _, v := range []int64{int64(cfg.NumRandomSplits), int64(cfg.Providers), cfg.Seed} {
		k = binary.AppendVarint(k, v)
	}
	for _, l := range m.SplittableLayers() {
		for _, v := range []int{int(l.Kind), l.Win, l.Hin, l.Cin, l.Cout, l.F, l.S, l.P} {
			k = binary.AppendVarint(k, int64(v))
		}
	}
	return k
}
