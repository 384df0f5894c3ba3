package transport

import (
	"testing"
	"time"

	"distredge/internal/network"
)

// shapedPair spins up a listener on device `to` over tr, drains everything
// it accepts, and returns a dialled conn from device `from`.
func shapedPair(t *testing.T, tr Transport, from, to int) Conn {
	t.Helper()
	ln, err := tr.Listen(to)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		for {
			if _, err := c.Recv(); err != nil {
				return
			}
		}
	}()
	conn, err := tr.Dial(from, ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func timeSend(t *testing.T, conn Conn, m Message) float64 {
	t.Helper()
	start := time.Now()
	if err := conn.Send(m); err != nil {
		t.Fatal(err)
	}
	return time.Since(start).Seconds()
}

// TestShapedAsymmetricLinkChargesDirection checks the model-fix satellite:
// with a provider whose uplink and downlink traces differ, a transfer
// towards the provider rides the fast downlink while a transfer from it
// pays the slow uplink — the directions must stop being charged the same.
func TestShapedAsymmetricLinkChargesDirection(t *testing.T) {
	// Requester at 10 Mbps both ways; provider 0 uplink 1 Mbps, downlink
	// 10 Mbps. No I/O cost, so wire time dominates.
	asym := network.Link{Trace: network.Constant(1), Down: network.Constant(10)}
	net := &network.Network{
		Requester: network.Link{Trace: network.Constant(10)},
		Providers: []network.Link{asym},
	}
	const timeScale = 0.5
	const payload = 12_500 // 0.1 model sec at 1 Mbps, 0.01 at 10 Mbps
	tr := NewShaped(NewInproc(), net, timeScale, 1)

	down := shapedPair(t, tr, Requester, 0) // requester -> provider: downlink
	downSec := timeSend(t, down, testMessage(payload))
	up := shapedPair(t, tr, 0, Requester) // provider -> requester: uplink
	upSec := timeSend(t, up, testMessage(payload))

	wantUp := 0.1 * timeScale
	wantDown := 0.01 * timeScale
	if upSec < 0.8*wantUp {
		t.Errorf("uplink send took %.3fs, want >= ~%.3fs (slow uplink)", upSec, wantUp)
	}
	if downSec > 0.5*wantUp {
		t.Errorf("downlink send took %.3fs — charged like the uplink (want ~%.3fs)", downSec, wantDown)
	}
}

// TestShapedPostCodecCharging checks Shaped charges the bytes the codec
// puts on the wire, not the raw payload: an int8-quantizing tcp stack moves
// 4x fewer bytes, so the charged latency is a quarter of what the raw
// payload would cost.
func TestShapedPostCodecCharging(t *testing.T) {
	net := &network.Network{
		Requester: network.Link{Trace: network.Constant(1)},
		Providers: []network.Link{{Trace: network.Constant(1)}},
	}
	const timeScale = 0.5
	const payload = 50_000 // 0.4 model sec raw at 1 Mbps; 0.1 quantized

	tr := NewShaped(NewTCP(Quant(QuantInt8, nil)), net, timeScale, 1)
	sec := timeSend(t, shapedPair(t, tr, Requester, 0), testMessage(payload))

	wantRaw := 0.4 * timeScale
	want := 0.1 * timeScale
	if sec < 0.8*want || sec > 0.5*wantRaw {
		t.Errorf("post-codec charge took %.3fs, want ~%.3fs (quantized bytes)", sec, want)
	}
}

// TestShapedPostCodecFallsBackWithoutWireCodec checks an inner transport
// with no wire codec (inproc: payloads cross by reference) is charged the
// raw payload bytes.
func TestShapedPostCodecFallsBackWithoutWireCodec(t *testing.T) {
	net := &network.Network{
		Requester: network.Link{Trace: network.Constant(1)},
		Providers: []network.Link{{Trace: network.Constant(1)}},
	}
	const timeScale = 0.5
	tr := NewShaped(NewInproc(), net, timeScale, 1)
	sec := timeSend(t, shapedPair(t, tr, Requester, 0), testMessage(12_500))
	want := 0.1 * timeScale
	if sec < 0.8*want {
		t.Errorf("fallback send took %.3fs, want >= ~%.3fs (raw bytes)", sec, want)
	}
}

// TestLagChainCompletesNearIdeal is the mechanism end to end, without the
// runtime: a payload crosses three shaped links and three paced compute
// stages, each costing 0.3 ms — well under the host's timer tick. Every
// stage back-dates its input by the Lag it arrived with and hands its own
// overshoot on, so the chain must finish within its ideal 1.8 ms plus one
// tick (the last sleep's overshoot, which nobody is left to absorb) plus
// the real hand-offs, and never before the ideal. With each stage sleeping
// its own relative duration the same chain takes six ticks (~6.6 ms where
// the tick is 1.1 ms). Over tcp the Lag crosses in the chunk header.
func TestLagChainCompletesNearIdeal(t *testing.T) {
	const stages = 3
	const timeScale = 0.3
	const payload = 1250 // 1 ms of model time at 10 Mbps
	const compute = 300 * time.Microsecond
	const handoffs = time.Millisecond // six goroutine or socket hops
	net := &network.Network{Requester: network.Link{Trace: network.Constant(10)}}
	for i := 0; i <= stages; i++ {
		net.Providers = append(net.Providers, network.Link{Trace: network.Constant(10)})
	}
	link := time.Duration(net.TransferLatency(0, 1, payload, 0) * timeScale * float64(time.Second))
	ideal := stages * (link + compute)

	for name, inner := range map[string]Transport{"inproc": NewInproc(), "tcp": NewTCP(nil)} {
		t.Run(name, func(t *testing.T) {
			tr := NewShaped(inner, net, timeScale, 1)
			// out[i] carries device i's output to device i+1, which reads it
			// from in[i]; stage i+1 receives, computes and sends on, and the
			// last reports its wake-up.
			out, in := make([]Conn, stages), make([]Conn, stages)
			for i := range out {
				ln, err := tr.Listen(i + 1)
				if err != nil {
					t.Fatal(err)
				}
				defer ln.Close()
				accepted := make(chan Conn, 1)
				go func() {
					c, err := ln.Accept()
					if err != nil {
						t.Error(err)
					}
					accepted <- c
				}()
				if out[i], err = tr.Dial(i, ln.Addr()); err != nil {
					t.Fatal(err)
				}
				defer out[i].Close()
				if in[i] = <-accepted; in[i] == nil {
					t.FailNow()
				}
				defer in[i].Close()
			}
			finished := make(chan time.Time)
			for i := 0; i < stages; i++ {
				recv := in[i]
				var next Conn
				if i+1 < stages {
					next = out[i+1]
				}
				go func() {
					var device Pacer
					for {
						m, err := recv.Recv()
						if err != nil {
							return
						}
						_, m.Lag = device.Charge(time.Now().Add(-m.Lag), compute)
						if next == nil {
							finished <- time.Now()
						} else if err := next.Send(m); err != nil {
							return
						}
					}
				}()
			}

			took := medianOf(9, func(round int) time.Duration {
				t0 := time.Now()
				if err := out[0].Send(testMessage(payload)); err != nil {
					t.Fatal(err)
				}
				took := (<-finished).Sub(t0)
				if took < ideal {
					t.Fatalf("round %d: chain finished in %s, before its ideal %s", round, took, ideal)
				}
				return took
			})
			t.Logf("ideal %s, median of 9 rounds %s", ideal, took)
			if limit := ideal + timerTick + handoffs; took > limit {
				t.Errorf("chain took %s (median of 9), want <= %s (ideal %s + one tick + %s of hand-offs): overshoot is accumulating along the chain",
					took, limit, ideal, handoffs)
			}
		})
	}
}

// TestShapedChargesPayloadBytesOnly pins what post-codec charging counts:
// the bytes the codec makes of the payload, with the whole fixed chunk
// header — Lag field included — left out, whatever Lag the message carries.
// The simulator's predicted IPS and the benchmark's payload KB per image
// both rest on this.
func TestShapedChargesPayloadBytesOnly(t *testing.T) {
	net := &network.Network{
		Requester: network.Link{Trace: network.Constant(100)},
		Providers: []network.Link{{Trace: network.Constant(100)}},
	}
	const n = 4096
	for _, tc := range []struct {
		codec Codec
		want  int
	}{
		{Binary(), n},
		{Quant(QuantInt8, nil), quantHeaderLen + n/4},
		{Quant(QuantFP16, nil), quantHeaderLen + n/2},
	} {
		tr := NewShaped(NewTCP(tc.codec), net, 1, 1)
		c := shapedPair(t, tr, Requester, 0).(*shapedConn)
		for _, lag := range []time.Duration{0, 700 * time.Microsecond, MaxLag} {
			m := testMessage(n)
			m.Lag = lag
			c.mu.Lock()
			got := c.wireSize(m)
			c.mu.Unlock()
			if got != tc.want {
				t.Errorf("%s, lag %s: charged %d bytes, want %d", tc.codec.Name(), lag, got, tc.want)
			}
		}
	}
}
