package gateway

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"time"
)

// blockingBackend hands each Submit call to the test as a response channel:
// the test decides when and how each admitted request completes, which
// makes admission order observable one request at a time.
type blockingBackend struct {
	calls chan chan error
}

func newBlockingBackend() *blockingBackend {
	return &blockingBackend{calls: make(chan chan error, 64)}
}

func (b *blockingBackend) Submit() error {
	resp := make(chan error)
	b.calls <- resp
	return <-resp
}

// nopBackend completes every request instantly.
type nopBackend struct{}

func (nopBackend) Submit() error { return nil }

func recvCall(t *testing.T, b *blockingBackend) chan error {
	t.Helper()
	select {
	case resp := <-b.calls:
		return resp
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for a backend Submit call")
		return nil
	}
}

func recvResult(t *testing.T, ch <-chan Result) Result {
	t.Helper()
	select {
	case r := <-ch:
		return r
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for a request result")
		return Result{}
	}
}

func noCall(t *testing.T, b *blockingBackend, why string) {
	t.Helper()
	select {
	case <-b.calls:
		t.Fatal(why)
	case <-time.After(50 * time.Millisecond):
	}
}

// admitFirst enqueues one request for the tenant and waits for the backend
// to see it, so subsequent enqueues land in a queue with a known occupant.
func admitFirst(t *testing.T, g *Gateway, b *blockingBackend, tenant string) (<-chan Result, chan error) {
	t.Helper()
	ch, err := g.Enqueue(tenant)
	if err != nil {
		t.Fatal(err)
	}
	return ch, recvCall(t, b)
}

// runOrder releases the held head request, then serves the rest one at a
// time, asserting each completion lands on the expected tenant's channel —
// with a window of 1 the completion order IS the admission order.
func runOrder(t *testing.T, b *blockingBackend, resp chan error, expect []struct {
	name string
	ch   <-chan Result
}) {
	t.Helper()
	for i, e := range expect {
		resp <- nil
		r := recvResult(t, e.ch)
		if r.Err != nil || r.Tenant != e.name {
			t.Fatalf("completion %d: got tenant %q err %v, want %q", i, r.Tenant, r.Err, e.name)
		}
		if i < len(expect)-1 {
			resp = recvCall(t, b)
		}
	}
}

func TestGatewayFIFOServesEnqueueOrder(t *testing.T) {
	be := newBlockingBackend()
	g, err := New(be, Config{Window: 1, Policy: PolicyFIFO}, []TenantConfig{
		{Name: "heavy"}, {Name: "small", Weight: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	h0, resp := admitFirst(t, g, be, "heavy")
	var expect []struct {
		name string
		ch   <-chan Result
	}
	expect = append(expect, struct {
		name string
		ch   <-chan Result
	}{"heavy", h0})
	for _, name := range []string{"heavy", "heavy", "small", "small"} {
		ch, err := g.Enqueue(name)
		if err != nil {
			t.Fatal(err)
		}
		expect = append(expect, struct {
			name string
			ch   <-chan Result
		}{name, ch})
	}
	// FIFO: the heavy burst runs out before the small tenant is touched.
	runOrder(t, be, resp, expect)
}

func TestGatewayWFQInterleavesByWeight(t *testing.T) {
	be := newBlockingBackend()
	g, err := New(be, Config{Window: 1, Policy: PolicyWFQ}, []TenantConfig{
		{Name: "heavy", Weight: 1}, {Name: "small", Weight: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	h0, resp := admitFirst(t, g, be, "heavy")
	chans := map[string][]<-chan Result{}
	for _, name := range []string{"heavy", "heavy", "small", "small"} {
		ch, err := g.Enqueue(name)
		if err != nil {
			t.Fatal(err)
		}
		chans[name] = append(chans[name], ch)
	}
	// WFQ with the heavy head already charged 1 full unit: the small
	// tenant's cheap (1/4-unit) requests both jump the remaining heavy
	// backlog, then the heavy burst resumes — the same pick sequence
	// sim.Serve computes for these weights.
	expect := []struct {
		name string
		ch   <-chan Result
	}{
		{"heavy", h0},
		{"small", chans["small"][0]},
		{"small", chans["small"][1]},
		{"heavy", chans["heavy"][0]},
		{"heavy", chans["heavy"][1]},
	}
	runOrder(t, be, resp, expect)
}

func TestGatewayPerTenantWindow(t *testing.T) {
	be := newBlockingBackend()
	g, err := New(be, Config{Window: 4, Policy: PolicyFIFO}, []TenantConfig{
		{Name: "a", Window: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	var chs []<-chan Result
	for i := 0; i < 3; i++ {
		ch, err := g.Enqueue("a")
		if err != nil {
			t.Fatal(err)
		}
		chs = append(chs, ch)
	}
	resp := recvCall(t, be)
	// Global window 4 has room, but the tenant's own window of 1 must hold
	// the other two back until the head completes.
	noCall(t, be, "second request admitted past the tenant window")
	for i := 0; i < 3; i++ {
		resp <- nil
		if r := recvResult(t, chs[i]); r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
		if i < 2 {
			resp = recvCall(t, be)
		}
	}
}

func TestGatewayDeadlines(t *testing.T) {
	be := newBlockingBackend()
	g, err := New(be, Config{Window: 1, Policy: PolicyFIFO}, []TenantConfig{
		{Name: "d", Deadline: 30 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	r0, resp := admitFirst(t, g, be, "d")
	r1, err := g.Enqueue("d")
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(60 * time.Millisecond)
	resp <- nil
	// The served-but-slow head reports late WITH its measured latency...
	res0 := recvResult(t, r0)
	if !errors.Is(res0.Err, ErrDeadlineExceeded) || res0.LatencyMS <= 0 {
		t.Errorf("late request: got %+v, want ErrDeadlineExceeded with latency", res0)
	}
	// ...and the queued request expires without ever reaching the backend.
	res1 := recvResult(t, r1)
	if !errors.Is(res1.Err, ErrDeadlineExceeded) || res1.LatencyMS != 0 {
		t.Errorf("expired request: got %+v, want ErrDeadlineExceeded with zero latency", res1)
	}
	noCall(t, be, "queue-expired request reached the backend")
	s := g.Summary()[0]
	if s.Enqueued != 2 || s.Late != 1 || s.Expired != 1 || s.Completed != 0 {
		t.Errorf("summary %+v, want enqueued=2 late=1 expired=1", s)
	}
	if s.MeanLatMS <= 0 || s.P95LatMS <= 0 {
		t.Errorf("the late (served) request's latency must enter the distribution: %+v", s)
	}
}

func TestGatewayCloseFailsQueued(t *testing.T) {
	be := newBlockingBackend()
	g, err := New(be, Config{Window: 1, Policy: PolicyFIFO}, []TenantConfig{{Name: "a"}})
	if err != nil {
		t.Fatal(err)
	}
	r0, resp := admitFirst(t, g, be, "a")
	r1, err := g.Enqueue("a")
	if err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	go func() { g.Close(); close(closed) }()
	// The queued request is rejected immediately; the in-flight one is
	// allowed to finish and Close waits for it.
	if r := recvResult(t, r1); !errors.Is(r.Err, ErrClosed) {
		t.Errorf("queued request on close: err %v, want ErrClosed", r.Err)
	}
	select {
	case <-closed:
		t.Fatal("Close returned while a backend submit was still in flight")
	case <-time.After(30 * time.Millisecond):
	}
	resp <- nil
	if r := recvResult(t, r0); r.Err != nil {
		t.Errorf("in-flight request must complete normally, got %v", r.Err)
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close never returned")
	}
	if _, err := g.Enqueue("a"); !errors.Is(err, ErrClosed) {
		t.Errorf("post-close Enqueue err %v, want ErrClosed", err)
	}
	s := g.Summary()[0]
	if s.Completed != 1 || s.Failed != 1 {
		t.Errorf("summary %+v, want completed=1 failed=1", s)
	}
}

func TestGatewayBackendErrorCountsFailed(t *testing.T) {
	be := newBlockingBackend()
	g, err := New(be, Config{Window: 1}, []TenantConfig{{Name: "a"}})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	r0, resp := admitFirst(t, g, be, "a")
	boom := fmt.Errorf("backend exploded")
	resp <- boom
	if r := recvResult(t, r0); !errors.Is(r.Err, boom) {
		t.Errorf("result err %v, want the backend error", r.Err)
	}
	s := g.Summary()[0]
	if s.Failed != 1 || s.Completed != 0 || s.MeanLatMS != 0 {
		t.Errorf("summary %+v, want failed=1 and no latency recorded", s)
	}
}

// flakyBackend fails every third Submit.
type flakyBackend struct{ calls atomic.Int64 }

func (b *flakyBackend) Submit() error {
	if b.calls.Add(1)%3 == 0 {
		return errors.New("backend lost the image")
	}
	return nil
}

// TestGatewaySummaryAgreesWithResults: every request gets exactly one
// Result, and each tenant's Summary counts exactly the completions and
// failures its Results carried.
func TestGatewaySummaryAgreesWithResults(t *testing.T) {
	g, err := New(&flakyBackend{}, Config{Window: 4, Policy: PolicyWFQ}, []TenantConfig{
		{Name: "heavy", Weight: 1}, {Name: "small", Weight: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	want := map[string]*TenantSummary{"heavy": {Enqueued: 24}, "small": {Enqueued: 8}}
	var chs []<-chan Result
	for _, name := range []string{"heavy", "small"} {
		for j := 0; j < want[name].Enqueued; j++ {
			ch, err := g.Enqueue(name)
			if err != nil {
				t.Fatal(err)
			}
			chs = append(chs, ch)
		}
	}
	for _, ch := range chs {
		r := recvResult(t, ch)
		if r.Err != nil {
			want[r.Tenant].Failed++
		} else {
			want[r.Tenant].Completed++
		}
	}
	if want["heavy"].Failed+want["small"].Failed == 0 {
		t.Fatal("the backend failed no request")
	}
	for _, s := range g.Summary() {
		w := want[s.Tenant]
		if s.Enqueued != w.Enqueued || s.Completed != w.Completed || s.Failed != w.Failed {
			t.Errorf("%s: summary enqueued %d completed %d failed %d, results say %d/%d/%d",
				s.Tenant, s.Enqueued, s.Completed, s.Failed, w.Enqueued, w.Completed, w.Failed)
		}
	}
}

func TestGatewayValidation(t *testing.T) {
	tenant := []TenantConfig{{Name: "a"}}
	cases := []struct {
		name    string
		be      Backend
		cfg     Config
		tenants []TenantConfig
	}{
		{"nil backend", nil, Config{Window: 1}, tenant},
		{"bad window", nopBackend{}, Config{Window: 0}, tenant},
		{"bad policy", nopBackend{}, Config{Window: 1, Policy: "lifo"}, tenant},
		{"no tenants", nopBackend{}, Config{Window: 1}, nil},
		{"unnamed tenant", nopBackend{}, Config{Window: 1}, []TenantConfig{{}}},
		{"duplicate tenant", nopBackend{}, Config{Window: 1}, []TenantConfig{{Name: "a"}, {Name: "a"}}},
		// Weights with no finite share: under WFQ the tenant would be served
		// always or never (NaN key), for free (1/Inf), or once (1/1e-320 = +Inf).
		{"NaN weight", nopBackend{}, Config{Window: 1}, []TenantConfig{{Name: "a", Weight: math.NaN()}}},
		{"infinite weight", nopBackend{}, Config{Window: 1, Policy: PolicyWFQ}, []TenantConfig{{Name: "a", Weight: math.Inf(1)}}},
		{"denormal weight", nopBackend{}, Config{Window: 1, Policy: PolicyWFQ}, []TenantConfig{{Name: "a", Weight: 1e-320}}},
	}
	for _, c := range cases {
		if _, err := New(c.be, c.cfg, c.tenants); err == nil {
			t.Errorf("%s: New must fail", c.name)
		}
	}
	g, err := New(nopBackend{}, Config{Window: 1}, tenant)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if _, err := g.Enqueue("nope"); !errors.Is(err, ErrUnknownTenant) {
		t.Errorf("unknown tenant err %v, want ErrUnknownTenant", err)
	}
}

// BenchmarkGatewayAdmission measures one request's full trip through the
// gateway — enqueue, schedule, pick, serve, result delivery — over an
// instant backend.
func BenchmarkGatewayAdmission(b *testing.B) {
	g, err := New(nopBackend{}, Config{Window: 8, Policy: PolicyWFQ}, []TenantConfig{
		{Name: "heavy", Weight: 1}, {Name: "small", Weight: 4},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer g.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch, err := g.Enqueue("heavy")
		if err != nil {
			b.Fatal(err)
		}
		if r := <-ch; r.Err != nil {
			b.Fatal(r.Err)
		}
	}
}
