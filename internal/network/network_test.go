package network

import (
	"math"
	"testing"
	"testing/quick"
)

func TestConstantTrace(t *testing.T) {
	tr := Constant(100)
	for _, at := range []float64{0, 1.5, 3600, 1e6} {
		if got := tr.ThroughputAt(at); got != 100e6 {
			t.Fatalf("ThroughputAt(%g) = %g, want 1e8", at, got)
		}
	}
	if tr.Mean() != 100 {
		t.Errorf("Mean = %g, want 100", tr.Mean())
	}
}

func TestNilAndEmptyTrace(t *testing.T) {
	var tr *Trace
	if tr.ThroughputAt(5) != 0 {
		t.Error("nil trace must report 0 throughput")
	}
	empty := &Trace{SlotSeconds: 1}
	if empty.ThroughputAt(5) != 0 || empty.Mean() != 0 {
		t.Error("empty trace must report 0")
	}
}

func TestStableTraceStaysNearNominal(t *testing.T) {
	for _, bw := range []float64{50, 100, 200, 300} {
		tr := Stable(bw, 60, 1)
		if got := tr.Duration(); got != 3600 {
			t.Fatalf("duration = %g, want 3600", got)
		}
		mean := tr.Mean()
		if math.Abs(mean-bw) > 0.05*bw {
			t.Errorf("bw %g: mean %g drifted too far", bw, mean)
		}
		for i, v := range tr.Mbps {
			if v < 0.05*bw || v > 1.1*bw {
				t.Fatalf("bw %g: sample %d = %g out of bounds", bw, i, v)
			}
		}
	}
}

func TestDynamicTraceBounds(t *testing.T) {
	tr := Dynamic(40, 100, 60, 9)
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range tr.Mbps {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if lo < 20 || hi > 110 {
		t.Errorf("dynamic trace escaped bounds: [%g, %g]", lo, hi)
	}
	// It must actually fluctuate substantially (Fig. 12).
	if hi-lo < 20 {
		t.Errorf("dynamic trace too flat: range %g", hi-lo)
	}
}

func TestTracesDeterministic(t *testing.T) {
	a, b := Stable(200, 5, 11), Stable(200, 5, 11)
	for i := range a.Mbps {
		if a.Mbps[i] != b.Mbps[i] {
			t.Fatal("stable trace not deterministic under seed")
		}
	}
	c, d := Dynamic(40, 100, 5, 11), Dynamic(40, 100, 5, 11)
	for i := range c.Mbps {
		if c.Mbps[i] != d.Mbps[i] {
			t.Fatal("dynamic trace not deterministic under seed")
		}
	}
}

func TestTraceWraparound(t *testing.T) {
	tr := &Trace{SlotSeconds: 1, Mbps: []float64{10, 20, 30}}
	if tr.ThroughputAt(0) != 10e6 || tr.ThroughputAt(1) != 20e6 || tr.ThroughputAt(3) != 10e6 {
		t.Error("wraparound lookup broken")
	}
	if tr.ThroughputAt(4.7) != 20e6 {
		t.Error("fractional second lookup broken")
	}
}

func newTestNetwork() *Network {
	return &Network{
		Providers: []Link{
			DefaultLink(Constant(50)),
			DefaultLink(Constant(200)),
		},
		Requester: DefaultLink(Constant(300)),
	}
}

func TestPairThroughputIsMin(t *testing.T) {
	n := newTestNetwork()
	if got := pairThroughput(n.linkOf(0), n.linkOf(1), 0); got != 50e6 {
		t.Errorf("pair(0,1) = %g, want 5e7", got)
	}
	if got := pairThroughput(n.linkOf(Requester), n.linkOf(1), 0); got != 200e6 {
		t.Errorf("pair(req,1) = %g, want 2e8", got)
	}
	if n.linkOf(99) != nil || n.linkOf(-2) != nil {
		t.Error("an index that names no device must resolve to no link")
	}
	if n.TransferLatency(0, 99, 1e6, 0) != 0 {
		t.Error("unknown device must yield 0")
	}
}

func TestTransferLatencyComposition(t *testing.T) {
	n := newTestNetwork()
	bytes := 1e6 // 1 MB
	got := n.TransferLatency(Requester, 0, bytes, 0)
	// sender IO (1.5ms + 1MB/1GBps=1ms) + wire (8e6/50e6=160ms) + recv IO.
	want := 0.0025 + 0.16 + 0.0025
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("TransferLatency = %g, want %g", got, want)
	}
}

func TestTransferLatencyFreeCases(t *testing.T) {
	n := newTestNetwork()
	if n.TransferLatency(1, 1, 5e6, 0) != 0 {
		t.Error("self transfer must be free")
	}
	if n.TransferLatency(0, 1, 0, 0) != 0 {
		t.Error("zero bytes must be free")
	}
	if n.TransferLatency(0, -5, 1e6, 0) != 0 {
		t.Error("invalid endpoint must yield 0")
	}
}

func TestTransferLatencyMonotoneInBytes(t *testing.T) {
	n := newTestNetwork()
	f := func(a, b uint32) bool {
		x, y := float64(a%10_000_000), float64(b%10_000_000)
		if x > y {
			x, y = y, x
		}
		return n.TransferLatency(0, 1, x, 0) <= n.TransferLatency(0, 1, y, 0)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTransferLatencyIncludesIOFloor(t *testing.T) {
	// Even a tiny transfer pays the fixed I/O cost on both sides — the
	// effect the paper says pure-throughput models miss.
	n := newTestNetwork()
	got := n.TransferLatency(0, 1, 1, 0)
	if got < 0.003 {
		t.Errorf("tiny transfer latency %g below I/O floor", got)
	}
}

func TestNewStable(t *testing.T) {
	n := NewStable([]float64{50, 100, 200, 300}, 10, 4)
	if len(n.Providers) != 4 {
		t.Fatalf("providers = %d, want 4", len(n.Providers))
	}
	if n.Requester.Trace.Mean() < 280 {
		t.Errorf("requester should get max bandwidth, mean %g", n.Requester.Trace.Mean())
	}
	for i, bw := range []float64{50, 100, 200, 300} {
		m := n.Providers[i].Trace.Mean()
		if math.Abs(m-bw) > 0.05*bw {
			t.Errorf("provider %d mean %g, want ~%g", i, m, bw)
		}
	}
}

func TestTimeInvariant(t *testing.T) {
	if !Constant(100).TimeInvariant() {
		t.Error("constant trace must be time-invariant")
	}
	if !(&Trace{SlotSeconds: 1, Mbps: []float64{50, 50, 50}}).TimeInvariant() {
		t.Error("all-equal trace must be time-invariant")
	}
	if Stable(100, 5, 1).TimeInvariant() {
		t.Error("stable trace with jitter must not be time-invariant")
	}
	var nilTrace *Trace
	if !nilTrace.TimeInvariant() {
		t.Error("nil trace must count as time-invariant")
	}

	flat := &Network{Requester: DefaultLink(Constant(200))}
	for i := 0; i < 3; i++ {
		flat.Providers = append(flat.Providers, DefaultLink(Constant(100)))
	}
	if !flat.TimeInvariant() {
		t.Error("all-constant network must be time-invariant")
	}
	mixed := &Network{Requester: DefaultLink(Constant(200))}
	mixed.Providers = append(mixed.Providers, DefaultLink(Stable(100, 5, 1)))
	if mixed.TimeInvariant() {
		t.Error("network with a jittery link must not be time-invariant")
	}
}

// newAsymNetwork gives provider 0 a slow 10 Mbps uplink and fast 100 Mbps
// downlink; provider 1 and the requester stay symmetric at 100 Mbps.
func newAsymNetwork() *Network {
	n := &Network{
		Providers: []Link{
			DefaultLink(Constant(10)),
			DefaultLink(Constant(100)),
		},
		Requester: DefaultLink(Constant(100)),
	}
	n.Providers[0].Down = Constant(100)
	return n
}

func TestAsymmetricPairThroughput(t *testing.T) {
	n := newAsymNetwork()
	// Towards provider 0: sender uplink 100, receiver downlink 100.
	if got := pairThroughput(n.linkOf(1), n.linkOf(0), 0); got != 100e6 {
		t.Errorf("pair(1,0) = %g, want 1e8 (fast downlink)", got)
	}
	// From provider 0: its 10 Mbps uplink is the bottleneck.
	if got := pairThroughput(n.linkOf(0), n.linkOf(1), 0); got != 10e6 {
		t.Errorf("pair(0,1) = %g, want 1e7 (slow uplink)", got)
	}
}

func TestAsymmetricTransferLatencyIsDirectional(t *testing.T) {
	n := newAsymNetwork()
	bytes := 1e6
	up := n.TransferLatency(0, Requester, bytes, 0)
	down := n.TransferLatency(Requester, 0, bytes, 0)
	if up <= down {
		t.Errorf("uplink transfer %gs not slower than downlink %gs", up, down)
	}
	// Wire component: 8e6/1e7 = 0.8s up vs 8e6/1e8 = 0.08s down; I/O adds
	// 0.0025s per side either way.
	if math.Abs(up-(0.005+0.8)) > 1e-9 || math.Abs(down-(0.005+0.08)) > 1e-9 {
		t.Errorf("latencies %g / %g do not match the directional model", up, down)
	}
}

func TestAsymmetricDefaultsStaySymmetric(t *testing.T) {
	// A nil Down must be bit-identical to the pre-asymmetry model in both
	// directions.
	sym := newTestNetwork()
	for _, pair := range [][2]int{{0, 1}, {1, 0}, {Requester, 0}, {0, Requester}} {
		a := sym.TransferLatency(pair[0], pair[1], 123_456, 0)
		b := sym.TransferLatency(pair[1], pair[0], 123_456, 0)
		if a != b {
			t.Errorf("symmetric network: latency(%d,%d)=%g != latency(%d,%d)=%g",
				pair[0], pair[1], a, pair[1], pair[0], b)
		}
	}
}

func TestAsymmetricTimeInvariant(t *testing.T) {
	l := DefaultLink(Constant(50))
	if !l.TimeInvariant() {
		t.Error("symmetric constant link must be time-invariant")
	}
	l.Down = Stable(100, 5, 3)
	if l.TimeInvariant() {
		t.Error("jittery downlink must break time invariance")
	}
	n := &Network{Requester: DefaultLink(Constant(200)), Providers: []Link{l}}
	if n.TimeInvariant() {
		t.Error("network with a jittery downlink must not be time-invariant")
	}
}
