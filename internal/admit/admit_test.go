package admit

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

// queue is the test's stand-in for a caller: per tenant, the FIFO keys of
// its queued requests, head first.
type queue struct {
	tenants []Tenant
	keys    [][]float64
}

func (q *queue) head(i int) (*Tenant, float64, bool) {
	if len(q.keys[i]) == 0 {
		return &q.tenants[i], 0, false
	}
	return &q.tenants[i], q.keys[i][0], true
}

func newQueue(t *testing.T, s *Sched, weights []float64, windows []int) *queue {
	t.Helper()
	q := &queue{tenants: make([]Tenant, len(weights)), keys: make([][]float64, len(weights))}
	for i := range weights {
		var err error
		if q.tenants[i], err = s.Bind(weights[i], windows[i]); err != nil {
			t.Fatal(err)
		}
	}
	return q
}

// drain admits until Pick says stop and returns the tenants in order.
func (q *queue) drain(s *Sched) []int {
	var order []int
	for i := s.Pick(len(q.tenants), q.head); i >= 0; i = s.Pick(len(q.tenants), q.head) {
		s.Admit(&q.tenants[i])
		q.keys[i] = q.keys[i][1:]
		order = append(order, i)
	}
	return order
}

func TestValidation(t *testing.T) {
	for _, c := range []struct {
		policy string
		window int
		want   string
	}{
		{"lifo", 1, "unknown admission policy"},
		{FIFO, 0, "window must be >= 1"},
		{WFQ, -3, "window must be >= 1"},
	} {
		if _, err := New(c.policy, c.window); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("New(%q, %d) = %v, want error containing %q", c.policy, c.window, err, c.want)
		}
	}
	s, err := New("", 3)
	if err != nil || s.Policy() != FIFO {
		t.Fatalf(`New("", 3) = %+v, %v; want the FIFO default`, s, err)
	}
	for _, w := range []float64{math.NaN(), math.Inf(1), 1e-320} {
		if _, err := s.Bind(w, 1); err == nil || !strings.Contains(err.Error(), "no finite share") {
			t.Errorf("Bind(weight %g) = %v, want a no-finite-share error", w, err)
		}
	}
	for _, c := range []struct {
		weight, charge float64
		window, bound  int
	}{
		{0, 1, 0, 3}, {-2, 1, -1, 3}, {math.Inf(-1), 1, 5, 5}, {4, 0.25, 2, 2},
	} {
		got, err := s.Bind(c.weight, c.window)
		if err != nil || got.charge != c.charge || got.window != c.bound {
			t.Errorf("Bind(%g, %d) = %+v, %v; want charge %g window %d", c.weight, c.window, got, err, c.charge, c.bound)
		}
	}
}

func TestPickOrder(t *testing.T) {
	for _, c := range []struct {
		name    string
		policy  string
		window  int
		weights []float64
		windows []int
		keys    [][]float64
		want    []int
	}{
		{
			name: "fifo follows the caller's keys across tenants", policy: FIFO, window: 8,
			weights: []float64{1, 1, 1}, windows: []int{0, 0, 0},
			keys: [][]float64{{2, 5}, {0, 1, 6}, {3, 4}},
			want: []int{1, 1, 0, 2, 2, 0, 1},
		},
		{
			name: "fifo ignores weights", policy: FIFO, window: 8,
			weights: []float64{1, 100}, windows: []int{0, 0},
			keys: [][]float64{{0, 1}, {2, 3}},
			want: []int{0, 0, 1, 1},
		},
		{
			name: "fifo ties go to the lower index", policy: FIFO, window: 8,
			weights: []float64{1, 1, 1}, windows: []int{0, 0, 0},
			keys: [][]float64{{7}, {3, 3}, {3}},
			want: []int{1, 1, 2, 0},
		},
		{
			// Keys 1/w, 2/w, ...: tenant 1 (weight 2) is admitted twice for
			// each admission of tenant 0, the tie at 1.0 going to tenant 0.
			name: "wfq interleaves by weight, ties to the lower index", policy: WFQ, window: 8,
			weights: []float64{1, 2}, windows: []int{0, 0},
			keys: [][]float64{{9, 9, 9}, {0, 0, 0, 0}},
			want: []int{1, 0, 1, 1, 0, 1, 0},
		},
		{
			name: "wfq serves a backlogged light tenant alone", policy: WFQ, window: 8,
			weights: []float64{1, 4}, windows: []int{0, 0},
			keys: [][]float64{{0, 0}, nil},
			want: []int{0, 0},
		},
		{
			name: "tenant window gates its owner only", policy: FIFO, window: 8,
			weights: []float64{1, 1}, windows: []int{1, 0},
			keys: [][]float64{{0, 1, 2}, {3, 4}},
			want: []int{0, 1, 1},
		},
		{
			name: "global window gates everyone", policy: WFQ, window: 2,
			weights: []float64{1, 1}, windows: []int{0, 0},
			keys: [][]float64{{0, 0}, {0, 0}},
			want: []int{0, 1},
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			s, err := New(c.policy, c.window)
			if err != nil {
				t.Fatal(err)
			}
			q := newQueue(t, &s, c.weights, c.windows)
			copy(q.keys, c.keys)
			if got := q.drain(&s); !reflect.DeepEqual(got, c.want) {
				t.Errorf("admission order %v, want %v", got, c.want)
			}
		})
	}
}

// TestPickAsksEveryTenantWhenFull: sim.Serve learns the next burst arrival
// from the head callback, so a full window must not short-cut the sweep.
func TestPickAsksEveryTenantWhenFull(t *testing.T) {
	s, _ := New(FIFO, 1)
	q := newQueue(t, &s, []float64{1, 1, 1}, []int{0, 0, 0})
	q.keys[0] = []float64{0, 1}
	q.drain(&s)
	var asked []int
	got := s.Pick(3, func(i int) (*Tenant, float64, bool) {
		asked = append(asked, i)
		return q.head(i)
	})
	if got != -1 || !reflect.DeepEqual(asked, []int{0, 1, 2}) {
		t.Errorf("full window: picked %d after asking %v, want -1 after asking [0 1 2]", got, asked)
	}
}

// TestReleaseReopensWindowsAndReadmitIsFree: a released slot is admissible
// again, and a request re-admitted after losing its slot costs its tenant no
// second charge — the next pick sees the same virtual service as before.
func TestReleaseReopensWindowsAndReadmitIsFree(t *testing.T) {
	s, _ := New(WFQ, 2)
	q := newQueue(t, &s, []float64{1, 1}, []int{1, 0})
	q.keys = [][]float64{{0, 0, 0}, {0, 0, 0}}
	if got := q.drain(&s); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("first fill %v, want [0 1]", got)
	}
	// Tenant 0's request is aborted: its slots come back, it is re-admitted.
	s.Release(&q.tenants[0])
	before := q.tenants[0]
	s.Readmit(&q.tenants[0])
	if q.tenants[0].vserved != before.vserved || q.tenants[0].inflight != 1 || s.inflight != 2 {
		t.Fatalf("Readmit: tenant %+v sched %+v, want the charge of %+v and both windows full", q.tenants[0], s, before)
	}
	if got := s.Pick(2, q.head); got != -1 {
		t.Fatalf("picked %d with the global window full", got)
	}
	// Both complete. Each has been charged once, so the tie goes to tenant 0;
	// had the re-admission been charged, tenant 1 would run first.
	s.Release(&q.tenants[0])
	s.Release(&q.tenants[1])
	if got := q.drain(&s); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Errorf("after release %v, want [0 1]", got)
	}
}

// FuzzAdmit replays a byte-coded stream of enqueue / admit / release /
// abort-and-readmit operations over tenants with mixed weights and windows,
// under both policies, and checks every Pick against a brute-force oracle
// written from the rule's definition: the picked tenant is ready and under
// both windows, no other admissible tenant has a strictly smaller key (nor
// an equal one at a lower index), a -1 means nothing was admissible, and no
// in-flight count ever exceeds its window or goes negative.
func FuzzAdmit(f *testing.F) {
	f.Add([]byte{0, 3, 1, 2, 3, 0, 0, 0, 1, 1, 1, 2, 2, 2, 9, 9, 9, 3, 3, 9})
	f.Add([]byte{1, 2, 5, 0, 0, 0, 1, 1, 1, 9, 9, 9, 9, 4, 4, 9, 9, 3, 9})
	f.Add([]byte{1, 6, 0, 1, 2, 3, 4, 5, 0, 1, 2, 3, 4, 5, 9, 9, 9, 9, 9, 9, 9, 3, 3, 3, 9, 9, 9})
	f.Add([]byte{0, 1, 7, 0, 0, 9, 4, 9, 3, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		policy := []string{FIFO, WFQ}[next()%2]
		n := 1 + next()%6
		window := 1 + next()%5
		s, err := New(policy, window)
		if err != nil {
			t.Fatal(err)
		}
		mix := []float64{0, 0.5, 1, 2, 3}
		weights, windows := make([]float64, n), make([]int, n)
		for i := range weights {
			weights[i], windows[i] = mix[(i+window)%len(mix)], (i+n)%4
		}
		q := newQueue(t, &s, weights, windows)
		var flying []int // tenant of each admitted request
		seq := 0.0
		check := func() {
			total := 0
			for i := range q.tenants {
				if c := q.tenants[i].inflight; c < 0 || c > q.tenants[i].window {
					t.Fatalf("tenant %d in flight %d outside [0,%d]", i, c, q.tenants[i].window)
				}
				total += q.tenants[i].inflight
			}
			if s.inflight != total || total != len(flying) || total > window {
				t.Fatalf("global in flight %d, tenants sum %d, admitted %d, window %d", s.inflight, total, len(flying), window)
			}
		}
		for len(data) > 0 {
			switch op := next() % 10; {
			case op < 3: // a request arrives
				i := next() % n
				q.keys[i] = append(q.keys[i], seq)
				seq++
			case op == 3 && len(flying) > 0: // one completes
				k := next() % len(flying)
				s.Release(&q.tenants[flying[k]])
				flying = append(flying[:k], flying[k+1:]...)
			case op == 4 && len(flying) > 0: // one is aborted and re-admitted
				i := flying[next()%len(flying)]
				before := q.tenants[i].vserved
				s.Release(&q.tenants[i])
				s.Readmit(&q.tenants[i])
				if q.tenants[i].vserved != before {
					t.Fatalf("re-admission charged tenant %d: %g -> %g", i, before, q.tenants[i].vserved)
				}
			default: // the pick under test
				key := func(i int) float64 {
					if policy == WFQ {
						return q.tenants[i].vserved + q.tenants[i].charge
					}
					return q.keys[i][0]
				}
				admissible := func(i int) bool {
					return len(q.keys[i]) > 0 && q.tenants[i].inflight < q.tenants[i].window && len(flying) < window
				}
				got := s.Pick(n, q.head)
				for i := 0; i < n; i++ {
					if !admissible(i) {
						continue
					}
					if got < 0 {
						t.Fatalf("picked nobody while tenant %d is admissible", i)
					}
					if key(i) < key(got) || (key(i) == key(got) && i < got) {
						t.Fatalf("picked %d (key %g) over %d (key %g)", got, key(got), i, key(i))
					}
				}
				if got >= 0 {
					if !admissible(got) {
						t.Fatalf("picked %d, which is not ready or is over a window", got)
					}
					s.Admit(&q.tenants[got])
					q.keys[got] = q.keys[got][1:]
					flying = append(flying, got)
				}
			}
			check()
		}
	})
}
