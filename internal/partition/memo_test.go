package partition

import (
	"slices"
	"sync"
	"testing"

	"distredge/internal/cnn"
)

// TestMemoReturnsSearchResults checks that a Memo answers what Search
// answers, searches once per key, hands out copies, tells models apart by
// their layers rather than their names, and keeps no errors.
func TestMemoReturnsSearchResults(t *testing.T) {
	m := cnn.VGG16()
	cfg := Config{Alpha: 0.75, NumRandomSplits: 20, Providers: 3, Seed: 1}
	want, err := Search(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mm := NewMemo()
	for i := 0; i < 3; i++ {
		got, err := mm.Search(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("memo answered %v, Search %v", got, want)
		}
		got[0] = -1 // the caller's copy: the memo must not see this
	}
	if n := mm.Searches(); n != 1 {
		t.Errorf("three lookups of one key ran %d searches, want 1", n)
	}

	// Zero Alpha and NumRandomSplits take Search's defaults, and so does the
	// key: the defaulted config is the same search.
	if _, err := mm.Search(m, Config{Providers: 3, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := mm.Search(m, Config{Alpha: 0.75, NumRandomSplits: 100, Providers: 3, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if n := mm.Searches(); n != 2 {
		t.Errorf("a defaulted config and its spelled-out twin ran %d searches in all, want 2", n)
	}

	// The same name over other layers is another key.
	other := *m
	other.Layers = slices.Clone(m.Layers)
	other.Layers[0].Cout++
	if _, err := mm.Search(&other, cfg); err != nil {
		t.Fatal(err)
	}
	if n := mm.Searches(); n != 3 {
		t.Errorf("a model with other layers under the same name was not searched (%d searches)", n)
	}

	if _, err := mm.Search(m, Config{Alpha: 1.5, Providers: 3}); err == nil {
		t.Fatal("alpha 1.5 accepted")
	}
	if _, err := mm.Search(m, Config{Alpha: 1.5, Providers: 3}); err == nil {
		t.Fatal("alpha 1.5 accepted on the second try")
	}
	if n, l := mm.Searches(), len(mm.entries); n != 5 || l != 3 {
		t.Errorf("after two failing searches: %d searches and %d entries, want 5 and 3", n, l)
	}

	var none *Memo
	if got, err := none.Search(m, cfg); err != nil || !slices.Equal(got, want) {
		t.Errorf("nil memo: %v, %v; want %v", got, err, want)
	}
}

// TestMemoIsBounded fills a Memo past memoCapacity: it never holds more,
// keeps the newest key and searches a forgotten one again.
func TestMemoIsBounded(t *testing.T) {
	m := cnn.VGG16()
	mm := NewMemo()
	cfg := func(seed int64) Config { return Config{Alpha: 0.75, NumRandomSplits: 2, Providers: 2, Seed: seed} }
	for seed := int64(0); seed < memoCapacity+5; seed++ {
		if _, err := mm.Search(m, cfg(seed)); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(mm.entries); n != 5 {
		t.Fatalf("memo holds %d entries after %d keys, want 5 (it forgets all at %d)", n, memoCapacity+5, memoCapacity)
	}
	searched := mm.Searches()
	if _, err := mm.Search(m, cfg(memoCapacity+4)); err != nil {
		t.Fatal(err)
	}
	if _, err := mm.Search(m, cfg(0)); err != nil {
		t.Fatal(err)
	}
	if n := mm.Searches() - searched; n != 1 {
		t.Errorf("the newest key and a forgotten one ran %d searches, want 1 (the forgotten one)", n)
	}
}

// TestMemoConcurrent looks up four keys from eight goroutines at once (run
// it under -race): every answer is Search's, and each key is remembered
// once.
func TestMemoConcurrent(t *testing.T) {
	m := cnn.VGG16()
	mm := NewMemo()
	cfg := func(i int) Config {
		return Config{Alpha: 0.75, NumRandomSplits: 10, Providers: 2 + i%4, Seed: 1}
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			want, err := Search(m, cfg(i))
			if err != nil {
				t.Error(err)
				return
			}
			got, err := mm.Search(m, cfg(i))
			if err != nil || !slices.Equal(got, want) {
				t.Errorf("providers %d: memo %v, %v; Search %v", cfg(i).Providers, got, err, want)
			}
		}()
	}
	wg.Wait()
	if n := len(mm.entries); n != 4 {
		t.Errorf("memo holds %d entries for four keys", n)
	}
}

// TestMemoHitAllocs pins a hit to the caller's copy of the boundaries: the
// key is built in the memo's buffer and looked up without a string.
func TestMemoHitAllocs(t *testing.T) {
	m := cnn.ResNet50()
	mm := NewMemo()
	cfg := Config{Alpha: 0.75, NumRandomSplits: 10, Providers: 5, Seed: 1}
	want, err := mm.Search(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if got, err := mm.Search(m, cfg); err != nil || !slices.Equal(got, want) {
			t.Fatalf("hit answered %v, %v; want %v", got, err, want)
		}
	})
	if allocs != 1 {
		t.Errorf("a memo hit allocates %.0f objects, want 1 (the caller's copy)", allocs)
	}
}
