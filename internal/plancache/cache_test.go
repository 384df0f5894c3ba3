package plancache

import (
	"fmt"
	"sync"
	"testing"

	"distredge/internal/cnn"
	"distredge/internal/strategy"
)

// sigN builds a synthetic signature; distinct n give distinct keys and
// finite mutual distances (same model/objective, same single device, shifted
// bandwidth bucket).
func sigN(n int) Signature {
	return Signature{
		Model:     "vgg16",
		Objective: "latency",
		Devices:   []DeviceSig{{Dev: "d0", BW: 10 + n, Spread: 1}},
	}
}

func testStrategy(m *cnn.Model, n int) *strategy.Strategy {
	b := strategy.SingleVolume(m)
	return &strategy.Strategy{
		Boundaries: b,
		Splits:     [][]int{strategy.EqualCuts(strategy.VolumeHeight(m, b, 0), n)},
	}
}

func TestCacheHitMissCounters(t *testing.T) {
	m := cnn.VGG16()
	c := New(8)
	if _, _, ok := c.Get(sigN(0)); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(sigN(0), testStrategy(m, 2), 1.5)
	s, score, ok := c.Get(sigN(0))
	if !ok || score != 1.5 || s == nil {
		t.Fatalf("Get = (%v, %v, %v), want hit at 1.5", s, score, ok)
	}
	if _, _, ok := c.Get(sigN(1)); ok {
		t.Fatal("hit for a never-stored signature")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Evictions != 0 {
		t.Fatalf("stats = %+v, want 1 hit, 2 misses, 0 evictions", st)
	}
}

func TestCachePutClones(t *testing.T) {
	m := cnn.VGG16()
	orig := testStrategy(m, 2)
	c := New(8)
	resident := c.Put(sigN(0), orig, 1)
	if resident == orig {
		t.Fatal("Put stored the caller's pointer; mutations would corrupt the cache")
	}
	orig.Splits[0][0] = -1
	got, _, _ := c.Get(sigN(0))
	if got.Splits[0][0] == -1 {
		t.Fatal("mutating the Put argument changed the cached strategy")
	}
}

// TestCacheLRUEvictionTinyCapacity is the eviction half of the satellite:
// under a tiny capacity the LRU entry goes first, recency is refreshed by
// Get, and the counters stay consistent with every lookup made.
func TestCacheLRUEvictionTinyCapacity(t *testing.T) {
	m := cnn.VGG16()
	c := New(2)
	c.Put(sigN(0), testStrategy(m, 2), 0)
	c.Put(sigN(1), testStrategy(m, 2), 1)
	// Touch 0 so 1 is now least recently used.
	if _, _, ok := c.Get(sigN(0)); !ok {
		t.Fatal("entry 0 missing before eviction")
	}
	c.Put(sigN(2), testStrategy(m, 2), 2)
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want capacity 2", c.Len())
	}
	if _, _, ok := c.Get(sigN(1)); ok {
		t.Fatal("LRU entry 1 survived eviction")
	}
	if _, _, ok := c.Get(sigN(0)); !ok {
		t.Fatal("recently-used entry 0 was evicted")
	}
	if _, _, ok := c.Get(sigN(2)); !ok {
		t.Fatal("newest entry 2 missing")
	}
	st := c.Stats()
	// Lookups above: hit(0), miss(1), hit(0), hit(2) -> 3 hits, 1 miss.
	if st.Hits != 3 || st.Misses != 1 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want 3 hits, 1 miss, 1 eviction", st)
	}
	if int(st.Hits+st.Misses) != 4 {
		t.Fatalf("hit+miss = %d, want one increment per Get", st.Hits+st.Misses)
	}
}

func TestCachePutUpdatesInPlace(t *testing.T) {
	m := cnn.VGG16()
	c := New(2)
	c.Put(sigN(0), testStrategy(m, 2), 5)
	c.Put(sigN(0), testStrategy(m, 3), 3)
	if c.Len() != 1 {
		t.Fatalf("Len = %d after double Put of one key", c.Len())
	}
	s, score, ok := c.Get(sigN(0))
	if !ok || score != 3 || len(s.Splits[0]) != 2 {
		t.Fatalf("updated entry = (%v, %v, %v), want the second Put", s, score, ok)
	}
	if ev := c.Stats().Evictions; ev != 0 {
		t.Fatalf("in-place update counted %d evictions", ev)
	}
}

func TestCacheNearest(t *testing.T) {
	m := cnn.VGG16()
	c := New(8)
	if _, _, _, ok := c.nearest(sigN(5)); ok {
		t.Fatal("nearest on empty cache")
	}
	c.Put(sigN(0), testStrategy(m, 2), 0)
	c.Put(sigN(3), testStrategy(m, 2), 0)
	_, got, _, ok := c.nearest(sigN(4))
	if !ok || got.Key() != sigN(3).Key() {
		t.Fatalf("nearest(4) = %v, want bucket 3", got.Key())
	}
	// Incomparable request: same structure, different model.
	alien := sigN(4)
	alien.Model = "yolov2"
	if _, _, _, ok := c.nearest(alien); ok {
		t.Fatal("nearest matched across models")
	}
	// Equidistant neighbours resolve by smaller key, regardless of
	// insertion order.
	c2 := New(8)
	c2.Put(sigN(2), testStrategy(m, 2), 0)
	c2.Put(sigN(0), testStrategy(m, 2), 0)
	_, got2, _, ok := c2.nearest(sigN(1))
	if !ok || got2.Key() != sigN(0).Key() {
		t.Fatalf("tie broke to %v, want the smaller key %v", got2.Key(), sigN(0).Key())
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	m := cnn.VGG16()
	c := New(4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := (g + i) % 6
				c.Put(sigN(k), testStrategy(m, 2), float64(k))
				c.Get(sigN((k + 1) % 6))
				c.nearest(sigN(k))
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 4 {
		t.Fatalf("Len = %d exceeds capacity", c.Len())
	}
	st := c.Stats()
	if st.Hits+st.Misses != 8*50 {
		t.Fatalf("hit+miss = %d, want %d (one per Get)", st.Hits+st.Misses, 8*50)
	}
}

func TestCacheKeySeparators(t *testing.T) {
	// The key join must not let adjacent fields bleed into each other.
	a := Signature{Model: "m", Objective: "o", Devices: []DeviceSig{{Dev: "ab", BW: 1}}}
	b := Signature{Model: "m", Objective: "o", Devices: []DeviceSig{{Dev: "a", BW: 1}, {Dev: "b", BW: 1}}}
	if a.Key() == b.Key() {
		t.Fatalf("field bleed: %s", a.Key())
	}
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			if sigN(i).Key() == sigN(j).Key() {
				t.Fatalf("distinct buckets %d/%d alias: %s", i, j, sigN(i).Key())
			}
		}
	}
	if fmt.Sprint(sigN(0)) == fmt.Sprint(sigN(1)) {
		t.Fatal("sigN generator broken")
	}
}
