// Package network models the wireless network between edge devices:
// per-device throughput traces (stable and highly dynamic, Fig. 4 and
// Fig. 12 of the paper) and a transmission-latency model that includes the
// I/O reading/writing delay the paper insists must be accounted for
// (Section II-B: "calculating the transmission latency purely by the
// network throughput can be inaccurate").
//
// All devices hang off one WiFi router (star topology, Fig. 3), so the
// throughput between two devices is the minimum of their two link
// throughputs at that moment.
package network

import (
	"math"
	"math/rand"
)

// Requester is the pseudo-device index used for the service requester in
// pairwise transfer calculations.
const Requester = -1

// Trace is a throughput time series in Mbps sampled at fixed slots; queries
// wrap around, so a 60-minute trace serves arbitrarily long experiments.
type Trace struct {
	SlotSeconds float64
	Mbps        []float64
}

// ThroughputAt returns the link throughput in bits/second at absolute time
// t (seconds). Empty traces return 0. The trace extends periodically in
// both directions: the slot index uses floor division, so negative times —
// which int truncation toward zero would fold onto slot 0 — land on the
// slot a periodic extension puts them in. Inside the trace's first period
// floor equals truncation and the modulo is the identity, so a time there
// (the times a ranking at trace instant 0 asks for) takes its slot by
// truncation alone.
func (tr *Trace) ThroughputAt(t float64) float64 {
	if tr == nil || len(tr.Mbps) == 0 {
		return 0
	}
	q := t / tr.SlotSeconds
	if q >= 0 && q < float64(len(tr.Mbps)) {
		return tr.Mbps[int(q)] * 1e6
	}
	slot := int(math.Floor(q)) % len(tr.Mbps)
	if slot < 0 {
		slot += len(tr.Mbps)
	}
	return tr.Mbps[slot] * 1e6
}

// TimeInvariant reports whether the trace yields the same throughput at
// every instant (constant traces, or any trace whose samples are all equal).
func (tr *Trace) TimeInvariant() bool {
	if tr == nil || len(tr.Mbps) <= 1 {
		return true
	}
	for _, v := range tr.Mbps[1:] {
		if v != tr.Mbps[0] {
			return false
		}
	}
	return true
}

// Mean returns the average throughput of the trace in Mbps.
func (tr *Trace) Mean() float64 {
	if len(tr.Mbps) == 0 {
		return 0
	}
	var s float64
	for _, v := range tr.Mbps {
		s += v
	}
	return s / float64(len(tr.Mbps))
}

// Duration returns the trace length in seconds.
func (tr *Trace) Duration() float64 { return float64(len(tr.Mbps)) * tr.SlotSeconds }

// Constant returns a flat trace pinned at the given Mbps, useful in tests.
func Constant(mbps float64) *Trace {
	return &Trace{SlotSeconds: 1, Mbps: []float64{mbps}}
}

// Stable generates a trace like the paper's Fig. 4: WiFi shaped to a nominal
// bandwidth shows small fluctuation (a few percent jitter plus occasional
// short dips). One sample per second for the given number of minutes.
func Stable(nominalMbps float64, minutes int, seed int64) *Trace {
	rng := rand.New(rand.NewSource(seed))
	n := minutes * 60
	mbps := make([]float64, n)
	level := nominalMbps
	for i := 0; i < n; i++ {
		v := level * (1 + float64(0.03*rng.NormFloat64()))
		if rng.Float64() < 0.01 { // rare short dip (interference burst)
			v *= 0.7 + float64(0.2*rng.Float64())
		}
		if v < 0.05*nominalMbps {
			v = 0.05 * nominalMbps
		}
		if v > 1.1*nominalMbps {
			v = 1.1 * nominalMbps
		}
		mbps[i] = v
	}
	return &Trace{SlotSeconds: 1, Mbps: mbps}
}

// Dynamic generates a highly fluctuating trace like Fig. 12: a bounded
// random walk between lo and hi Mbps with occasional level jumps, sampled
// once per second.
func Dynamic(loMbps, hiMbps float64, minutes int, seed int64) *Trace {
	rng := rand.New(rand.NewSource(seed))
	n := minutes * 60
	mbps := make([]float64, n)
	span := hiMbps - loMbps
	level := loMbps + float64(span*rng.Float64())
	for i := 0; i < n; i++ {
		level += float64(span * 0.05 * rng.NormFloat64())
		if rng.Float64() < 0.02 { // abrupt shift
			level = loMbps + float64(span*rng.Float64())
		}
		if level < loMbps {
			level = loMbps
		}
		if level > hiMbps {
			level = hiMbps
		}
		mbps[i] = level * (1 + float64(0.02*rng.NormFloat64()))
		if mbps[i] < 0.5*loMbps {
			mbps[i] = 0.5 * loMbps
		}
	}
	return &Trace{SlotSeconds: 1, Mbps: mbps}
}

// Link is one device's attachment to the network: its WiFi trace plus its
// I/O character. IOFixedMS is the fixed cost of moving a buffer between the
// computing unit and the network stack (GPU readback, socket syscalls);
// IOGBps is the sustained I/O copy bandwidth.
//
// Trace is the device's uplink (device → router). Down, when set, is a
// separate downlink trace (router → device) — real WiFi and cellular
// uplinks are routinely several times slower than downlinks, and modelling
// both directions with the uplink trace overcharges every receive. A nil
// Down keeps the link symmetric (downlink = Trace), which is bit-identical
// to the pre-asymmetry model.
type Link struct {
	Trace     *Trace
	Down      *Trace
	IOFixedMS float64
	IOGBps    float64
}

// downTrace returns the trace governing traffic towards this device.
func (l *Link) downTrace() *Trace {
	if l.Down != nil {
		return l.Down
	}
	return l.Trace
}

// TimeInvariant reports whether both directions of the link are constant
// over time.
func (l Link) TimeInvariant() bool {
	return l.Trace.TimeInvariant() && l.downTrace().TimeInvariant()
}

// DefaultLink wraps a trace with the calibrated I/O character used in all
// experiments (1.5 ms fixed + 1 GB/s copy on each side of a transfer).
func DefaultLink(tr *Trace) Link {
	return Link{Trace: tr, IOFixedMS: 1.5, IOGBps: 1.0}
}

// ioLatency returns this endpoint's I/O contribution for a transfer of the
// given size.
func (l *Link) ioLatency(bytes float64) float64 {
	io := l.IOFixedMS / 1e3
	if l.IOGBps > 0 {
		io += bytes / (l.IOGBps * 1e9)
	}
	return io
}

// Network is the set of links for one experiment: one per provider plus the
// requester's own link.
type Network struct {
	Providers []Link
	Requester Link
}

// NewStable builds a network with stable traces at the given nominal
// bandwidths (Mbps) for each provider; the requester gets the maximum of
// the providers' bandwidths (the paper's requester is never the bottleneck).
func NewStable(bandwidthsMbps []float64, minutes int, seed int64) *Network {
	n := &Network{Providers: make([]Link, len(bandwidthsMbps))}
	maxBW := 0.0
	for i, bw := range bandwidthsMbps {
		n.Providers[i] = DefaultLink(Stable(bw, minutes, seed+int64(i)*101))
		if bw > maxBW {
			maxBW = bw
		}
	}
	n.Requester = DefaultLink(Stable(maxBW, minutes, seed+7919))
	return n
}

// TimeInvariant reports whether every link's throughput is constant over
// time, i.e. transfer latencies do not depend on when a transfer starts.
// Simulators use this to take the steady-state streaming fast path.
func (n *Network) TimeInvariant() bool {
	if !n.Requester.TimeInvariant() {
		return false
	}
	for _, l := range n.Providers {
		if !l.TimeInvariant() {
			return false
		}
	}
	return true
}

// linkOf returns the Link of a device index (Requester = -1), nil for an
// index that names no device.
func (n *Network) linkOf(dev int) *Link {
	if dev == Requester {
		return &n.Requester
	}
	if dev < 0 || dev >= len(n.Providers) {
		return nil
	}
	return &n.Providers[dev]
}

// pairThroughput returns the bits/second available from link `from` to
// link `to` at time t: both transfers cross the router, so the minimum of
// the sender's uplink and the receiver's downlink (which is the uplink
// trace again for symmetric links — the default).
func pairThroughput(from, to *Link, t float64) float64 {
	a := from.Trace.ThroughputAt(t)
	b := to.downTrace().ThroughputAt(t)
	if b < a {
		return b
	}
	return a
}

// TransferLatency returns the seconds to move bytes from device `from` to
// device `to` starting at time t: sender I/O + wire time + receiver I/O.
// Transfers between a device and itself, or of zero bytes, are free (data
// already resident, Section V-A preloads split-parts), and so are
// transfers from or to an index that names no device.
func (n *Network) TransferLatency(from, to int, bytes, t float64) float64 {
	if bytes <= 0 || from == to {
		return 0
	}
	lf, lt := n.linkOf(from), n.linkOf(to)
	if lf == nil || lt == nil {
		return 0
	}
	thr := pairThroughput(lf, lt, t)
	if thr <= 0 {
		return 0
	}
	return lf.ioLatency(bytes) + bytes*8/thr + lt.ioLatency(bytes)
}
