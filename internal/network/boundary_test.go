package network

import (
	"math"
	"testing"
)

// TestThroughputAtSegmentEdges pins the trace-sampling semantics at the
// awkward instants: t exactly on a slot boundary belongs to the slot it
// opens, t at or past the trace end wraps around, and negative t wraps
// backwards instead of indexing out of range.
func TestThroughputAtSegmentEdges(t *testing.T) {
	tr := &Trace{SlotSeconds: 2, Mbps: []float64{10, 20, 30}} // 6s period
	cases := []struct {
		name string
		t    float64
		want float64 // Mbps
	}{
		{"start", 0, 10},
		{"mid-slot", 1.999, 10},
		{"exact slot boundary", 2, 20},
		{"second boundary", 4, 30},
		{"exact trace end wraps", 6, 10},
		{"past trace end wraps", 7.5, 10},
		{"two periods out", 14, 20},
		{"negative wraps backwards", -1, 30},
		{"negative slot boundary", -2, 30},
		{"negative past period", -7, 30},
	}
	for _, c := range cases {
		if got := tr.ThroughputAt(c.t); got != c.want*1e6 {
			t.Errorf("%s: ThroughputAt(%g) = %g bps, want %g Mbps", c.name, c.t, got, c.want)
		}
	}
	var nilTrace *Trace
	if got := nilTrace.ThroughputAt(3); got != 0 {
		t.Errorf("nil trace throughput = %g", got)
	}
	if got := (&Trace{SlotSeconds: 1}).ThroughputAt(3); got != 0 {
		t.Errorf("empty trace throughput = %g", got)
	}
}

// floorSlot is the periodic slot rule ThroughputAt applies at every time
// outside the trace's first period: floor division, then the period's
// modulo folded into [0, slots).
func floorSlot(t, slotSeconds float64, slots int) int {
	slot := int(math.Floor(t/slotSeconds)) % slots
	if slot < 0 {
		slot += slots
	}
	return slot
}

// slotEdgeTimes returns the instants where a slot rule can go wrong on a
// trace of the given shape: ±0, each slot edge and the trace's end one ulp
// either side, negative and wrapped times, a far instant, ±Inf and NaN.
func slotEdgeTimes(slotSeconds float64, slots int) []float64 {
	ts := []float64{0, math.Copysign(0, -1), 1e12, -1e12, math.Inf(1), math.Inf(-1), math.NaN()}
	for k := -slots; k <= 2*slots; k++ {
		edge := float64(k) * slotSeconds
		ts = append(ts, edge, math.Nextafter(edge, math.Inf(-1)), math.Nextafter(edge, math.Inf(1)))
	}
	end := float64(slots) * slotSeconds
	return append(ts, math.Nextafter(end, 0), math.Nextafter(end, math.Inf(1)), -end-slotSeconds/2, 3.5*end)
}

// TestThroughputAtSlotRule holds ThroughputAt's truncated first-period
// slot to the floor-and-modulo slot at every edge slotEdgeTimes names, on
// slot lengths that divide time exactly (1), inexactly (0.1) and coarsely
// (3).
func TestThroughputAtSlotRule(t *testing.T) {
	mbps := []float64{11, 22, 33, 44, 55}
	for _, slotSeconds := range []float64{1, 0.1, 3} {
		tr := &Trace{SlotSeconds: slotSeconds, Mbps: mbps}
		for _, at := range slotEdgeTimes(slotSeconds, len(mbps)) {
			want := mbps[floorSlot(at, slotSeconds, len(mbps))] * 1e6
			if got := tr.ThroughputAt(at); got != want {
				t.Errorf("slot %gs: ThroughputAt(%.17g) = %g, floor and modulo give %g", slotSeconds, at, got, want)
			}
		}
	}
}

// TestTransferLatencyBoundaries is the table-driven edge sweep for the
// latency model itself: zero-byte payloads, self-transfers, unknown
// devices, and starts pinned exactly on trace-segment boundaries (where a
// step change in throughput must pick the new segment's rate).
func TestTransferLatencyBoundaries(t *testing.T) {
	// Device 0 steps 100 -> 50 Mbps at t=10; device 1 is flat 100 Mbps.
	step := &Trace{SlotSeconds: 10, Mbps: []float64{100, 50}}
	flat := Constant(100)
	n := &Network{
		Providers: []Link{
			{Trace: step, IOFixedMS: 0, IOGBps: 0},
			{Trace: flat, IOFixedMS: 0, IOGBps: 0},
		},
		Requester: Link{Trace: flat, IOFixedMS: 0, IOGBps: 0},
	}
	const bytes = 1e6 // 8 Mbit
	at100 := bytes * 8 / (100 * 1e6)
	at50 := bytes * 8 / (50 * 1e6)

	cases := []struct {
		name     string
		from, to int
		bytes    float64
		t        float64
		want     float64
	}{
		{"zero bytes are free", 0, 1, 0, 5, 0},
		{"negative bytes are free", 0, 1, -4, 5, 0},
		{"self transfer is free", 1, 1, bytes, 5, 0},
		{"requester self transfer is free", Requester, Requester, bytes, 5, 0},
		{"inside first segment", 0, 1, bytes, 9.999, at100},
		{"exactly on the step boundary", 0, 1, bytes, 10, at50},
		{"inside second segment", 0, 1, bytes, 19, at50},
		{"exactly at trace end wraps", 0, 1, bytes, 20, at100},
		{"past trace end wraps into step", 0, 1, bytes, 30, at50},
		{"pair throughput is the min", 1, 0, bytes, 10, at50},
		{"requester uplink unaffected by step", Requester, 1, bytes, 10, at100},
		{"unknown device is free", 0, 7, bytes, 5, 0},
		{"unknown negative device is free", -3, 1, bytes, 5, 0},
	}
	for _, c := range cases {
		got := n.TransferLatency(c.from, c.to, c.bytes, c.t)
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: TransferLatency(%d,%d,%g,%g) = %.9g, want %.9g",
				c.name, c.from, c.to, c.bytes, c.t, got, c.want)
		}
	}
}

// TestTransferLatencyIOAccounting checks both endpoints' I/O terms ride on
// top of the wire time — including for zero-throughput links, where the
// model returns 0 (the transfer never starts; callers treat the link as
// stalled, not instant — pinned by this test so a change is deliberate).
func TestTransferLatencyIOAccounting(t *testing.T) {
	n := &Network{
		Providers: []Link{
			{Trace: Constant(80), IOFixedMS: 2, IOGBps: 1},
			{Trace: Constant(80), IOFixedMS: 3, IOGBps: 2},
		},
		Requester: DefaultLink(Constant(80)),
	}
	const bytes = 1e6
	wire := bytes * 8 / (80 * 1e6)
	io0 := 2e-3 + bytes/1e9
	io1 := 3e-3 + bytes/(2*1e9)
	want := io0 + wire + io1
	if got := n.TransferLatency(0, 1, bytes, 0); math.Abs(got-want) > 1e-12 {
		t.Errorf("latency = %.9g, want %.9g", got, want)
	}
	dead := &Network{
		Providers: []Link{{Trace: Constant(0)}, {Trace: Constant(100)}},
		Requester: DefaultLink(Constant(100)),
	}
	if got := dead.TransferLatency(0, 1, bytes, 0); got != 0 {
		t.Errorf("zero-throughput link latency = %g, want 0", got)
	}
}

// FuzzTransferLatency asserts the model's total function contract: any
// (from, to, bytes, t) — garbage indices, negative, infinite and NaN times
// included, seeded with slotEdgeTimes' instants — yields a finite,
// non-negative latency and never panics, since churn re-planning queries
// transfers at event times the planner never saw.
func FuzzTransferLatency(f *testing.F) {
	f.Add(0, 1, 1e6, 0.0)
	f.Add(Requester, 0, 5e3, 59.999)
	f.Add(3, -2, 1e9, -17.3)
	f.Add(1, 1, 0.0, 1e12)
	n := NewStable([]float64{50, 100, 200}, 2, 7)
	for _, at := range slotEdgeTimes(n.Requester.Trace.SlotSeconds, len(n.Requester.Trace.Mbps)) {
		f.Add(Requester, 2, 1e6, at)
	}
	f.Fuzz(func(t *testing.T, from, to int, bytes, at float64) {
		if math.IsNaN(bytes) || math.IsInf(bytes, 0) {
			t.Skip()
		}
		got := n.TransferLatency(from, to, bytes, at)
		if math.IsNaN(got) || math.IsInf(got, 0) || got < 0 {
			t.Fatalf("TransferLatency(%d,%d,%g,%g) = %g", from, to, bytes, at, got)
		}
	})
}
