package runtime

import (
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"distredge/internal/cnn"
	"distredge/internal/device"
	"distredge/internal/network"
	"distredge/internal/sim"
	"distredge/internal/strategy"
	"distredge/internal/transport"
)

// TestTransportCompletionEquivalence is the acceptance-criterion
// equivalence test: under an identical kill script, the tcp and inproc
// transports must produce bit-equal completion semantics — the same
// Completed, Requeued and quarantined set. The script is built so the
// counts are deterministic: images == window (everything admitted at t=0)
// and provider 1, which every image's path crosses, is killed by its own
// first inbound data chunk once all the images' scatters have been sent.
// No chunk ever reaches its assembly, so no image can complete before the
// failure on either transport, and every admitted image is requeued by the
// recovery — however late any timer on the host fires.
func TestTransportCompletionEquivalence(t *testing.T) {
	env := testEnv(device.Xavier, device.Nano, device.TX2, device.Nano)
	s := stageStrategy(env, env.Model, []int{0, 10, 14, 18})
	const images, window, victim = 4, 4, 1

	type outcome struct {
		sim.ServeResult
		quarantined []int
	}
	run := func(name string, inner transport.Transport) outcome {
		t.Helper()
		o := recoverOpts()
		plan, err := BuildPlan(env, s, o)
		if err != nil {
			t.Fatal(err)
		}
		tr := &killOnArrival{Transport: inner, victim: victim, want: int64(images * len(plan.Scatter)), scattered: make(chan struct{})}
		o.Transport = tr
		cl, err := Deploy(env, s, o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		defer cl.Close()
		tr.cl.Store(cl)
		st, err := stream(cl, images, window)
		if err != nil {
			t.Fatalf("%s: recovery run failed: %v", name, err)
		}
		return outcome{st, quarantined(cl)}
	}
	tcpStats := run("tcp", transport.NewTCP(nil))
	inpStats := run("inproc", transport.NewInproc())

	t.Logf("kill on provider %d's first arrival  tcp: completed=%d requeued=%d quarantined=%v  inproc: completed=%d requeued=%d quarantined=%v",
		victim, tcpStats.Completed, tcpStats.Requeued, tcpStats.quarantined,
		inpStats.Completed, inpStats.Requeued, inpStats.quarantined)
	for name, st := range map[string]outcome{"tcp": tcpStats, "inproc": inpStats} {
		if st.Completed != images {
			t.Errorf("%s: completed %d of %d", name, st.Completed, images)
		}
		if st.Requeued != images {
			t.Errorf("%s: requeued %d, want %d (kill landed after a completion?)", name, st.Requeued, images)
		}
		if len(st.quarantined) != 1 || st.quarantined[0] != victim {
			t.Errorf("%s: quarantined %v, want [%d]", name, st.quarantined, victim)
		}
	}
	if tcpStats.Completed != inpStats.Completed || tcpStats.Requeued != inpStats.Requeued {
		t.Errorf("transports disagree on completion semantics: tcp %d/%d vs inproc %d/%d",
			tcpStats.Completed, tcpStats.Requeued, inpStats.Completed, inpStats.Requeued)
	}
}

// killOnArrival decorates a transport with an event-driven kill: the
// requester's links count the input chunks they send, and every data chunk
// inbound to provider victim is held until want of them have gone out; the
// first one released kills the victim through the cluster before any chunk
// reaches its assembly.
type killOnArrival struct {
	transport.Transport
	victim    int
	want      int64
	sent      atomic.Int64
	scattered chan struct{} // closed once want input chunks are sent
	cl        atomic.Pointer[Cluster]
	kill      sync.Once
}

func (t *killOnArrival) GetPayload(n int) []byte { return transport.GetPayload(t.Transport, n) }
func (t *killOnArrival) PutPayload(b []byte)     { transport.RecyclePayload(t.Transport, b) }
func (t *killOnArrival) SetBufferHint(n int)     { transport.SetBufferHint(t.Transport, n) }

func (t *killOnArrival) Listen(self int) (transport.Listener, error) {
	ln, err := t.Transport.Listen(self)
	if err != nil || self != t.victim {
		return ln, err
	}
	return &holdListener{ln, t}, nil
}

func (t *killOnArrival) Dial(self int, addr string) (transport.Conn, error) {
	c, err := t.Transport.Dial(self, addr)
	if err != nil || self != RequesterID {
		return c, err
	}
	return &countConn{c, t}, nil
}

type holdListener struct {
	transport.Listener
	t *killOnArrival
}

func (l *holdListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &holdConn{c, l.t}, nil
}

type holdConn struct {
	transport.Conn
	t *killOnArrival
}

func (c *holdConn) Recv() (transport.Message, error) {
	m, err := c.Conn.Recv()
	if err == nil {
		<-c.t.scattered
		c.t.kill.Do(func() { c.t.cl.Load().KillProvider(c.t.victim) })
	}
	return m, err
}

type countConn struct {
	transport.Conn
	t *killOnArrival
}

func (c *countConn) Send(m transport.Message) error {
	err := c.Conn.Send(m)
	if err == nil && m.Volume == volInput && c.t.sent.Add(1) == c.t.want {
		close(c.t.scattered)
	}
	return err
}

// dynamicEnv builds a four-device fleet on time-varying low-bandwidth
// WiFi traces, where transfer latency genuinely depends on when a transfer
// starts — the regime localhost TCP can never exercise.
func dynamicEnv(loMbps, hiMbps float64) *sim.Env {
	devs := device.Fleet(device.Xavier, device.Nano, device.TX2, device.Nano)
	net := &network.Network{Requester: network.DefaultLink(network.Dynamic(loMbps, hiMbps, 2, 991))}
	for i := range devs {
		net.Providers = append(net.Providers, network.DefaultLink(network.Dynamic(loMbps, hiMbps, 2, int64(i)*31+7)))
	}
	return &sim.Env{Model: cnn.VGG16(), Devices: device.AsModels(devs), Net: net}
}

// TestShapedInprocReproducesSimOnDynamicTrace is the acceptance-criterion
// differential test for the shaped transport: on a dynamic (time-varying)
// WiFi trace the simulator predicts a pipelined speedup, and the runtime —
// with the very same network.Network charged to its payload bytes by the
// shaped decorator, over the socket-free inproc transport — must reproduce
// the predicted ordering. It must also actually pay for the trace: the
// same run over plain inproc (transfers free, as on localhost TCP) has to
// be measurably faster, which is the fidelity gap this transport closes.
func TestShapedInprocReproducesSimOnDynamicTrace(t *testing.T) {
	env := dynamicEnv(20, 60)
	if env.Net.TimeInvariant() {
		t.Fatal("trace must be dynamic for this test")
	}
	s := stageStrategy(env, env.Model, []int{0, 10, 14, 18})

	// Simulator prediction on the dynamic trace (model time).
	seqSim, err := env.Serve(s, simPipelined(24, 1))
	if err != nil {
		t.Fatal(err)
	}
	pipSim, err := env.Serve(s, simPipelined(24, 4))
	if err != nil {
		t.Fatal(err)
	}
	if pipSim.IPS <= 1.1*seqSim.IPS {
		t.Fatalf("simulator must predict a pipelined speedup on the dynamic trace: %.3f vs %.3f",
			pipSim.IPS, seqSim.IPS)
	}

	const timeScale, bytesScale = 0.05, 0.001
	const images = 8
	run := func(window int, shaped bool) sim.ServeResult {
		t.Helper()
		var tr transport.Transport = transport.NewInproc()
		if shaped {
			tr = transport.NewShaped(tr, env.Net, timeScale, bytesScale)
		}
		opts := Options{
			TimeScale:         timeScale,
			BytesScale:        bytesScale,
			HeartbeatInterval: -1, // charged links must not delay liveness
			Transport:         tr,
		}
		cl, err := Deploy(env, s, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		st, err := stream(cl, images, window)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	seqRt := run(1, true)
	pipRt := run(4, true)
	plainRt := run(1, false)

	t.Logf("sim:    window 1 %.2f ips, window 4 %.2f ips (%.2fx), mean lat %.0fms",
		seqSim.IPS, pipSim.IPS, pipSim.IPS/seqSim.IPS, seqSim.MeanLatMS)
	t.Logf("shaped: window 1 %.2f ips, window 4 %.2f ips (%.2fx), mean lat %.0fms (model)",
		seqRt.IPS, pipRt.IPS, pipRt.IPS/seqRt.IPS, seqRt.PerImageSec[images-1]*1e3)
	t.Logf("plain inproc window 1: %.2f ips (transfers free)", plainRt.IPS)

	if pipRt.IPS <= 1.1*seqRt.IPS {
		t.Errorf("shaped runtime does not reproduce the predicted pipelined speedup: window 4 %.2f ips vs window 1 %.2f ips",
			pipRt.IPS, seqRt.IPS)
	}
	// The trace must have been charged: with transfers free the same run is
	// far faster. (This is exactly why the localhost-TCP runtime could
	// never reproduce a transfer-sensitive sim prediction.) Image against
	// image: one 0.3 s stall of the host in the 0.06 s free-wire run, two
	// runs in 300, inverted the totals.
	if seq, plain := lowerQuartile(seqRt.PerImageSec), lowerQuartile(plainRt.PerImageSec); seq <= 1.3*plain {
		t.Errorf("shaped image (%.1fms) is not measurably slower than the free-wire image (%.1fms) — trace latency not charged",
			seq*1e3, plain*1e3)
	}
	// Fidelity of magnitude, not just ordering: the shaped runtime's
	// sequential per-image latency, mapped back to model time, against the
	// simulator streaming the same number of images (the trace moves, so a
	// longer stream averages a different stretch of it). Measured 356-365 ms
	// against the sim's 368 (about 480 ms while every stage's timer overshoot
	// still accumulated).
	sameSim, err := env.Serve(s, simPipelined(images, 1))
	if err != nil {
		t.Fatal(err)
	}
	rtModelLatMS, simLatMS := lowerQuartile(seqRt.PerImageSec)*1e3, lowerQuartile(sameSim.PerImageSec)*1e3
	if math.Abs(rtModelLatMS-simLatMS) > 0.1*simLatMS {
		t.Errorf("shaped runtime latency %.0fms (model time) not within 10%% of sim prediction %.0fms",
			rtModelLatMS, simLatMS)
	}
}

// TestChaosTransportIsolationTriggersRecovery drives the PR 3 recovery
// machinery through the chaos transport instead of KillProvider: isolating
// a device partitions it (sends to and from it fail, its heartbeats stop
// arriving), and the cluster must quarantine it, re-plan and finish every
// image.
func TestChaosTransportIsolationTriggersRecovery(t *testing.T) {
	env := testEnv(device.Xavier, device.Nano, device.TX2, device.Nano)
	s := stageStrategy(env, env.Model, []int{0, 10, 14, 18})
	chaos := transport.NewChaos(transport.NewInproc(), transport.ChaosConfig{Seed: 7})
	opts := recoverOpts()
	opts.Transport = chaos
	cl, err := Deploy(env, s, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const images = 12
	cut := time.AfterFunc(40*time.Millisecond, func() { chaos.Isolate(1) })
	defer cut.Stop()
	stats, err := stream(cl, images, 4)
	if err != nil {
		t.Fatalf("recovery run failed: %v", err)
	}
	if stats.Completed != images {
		t.Fatalf("completed %d of %d", stats.Completed, images)
	}
	if stats.Recoveries < 1 {
		t.Fatalf("partition caused no recovery: %+v", stats)
	}
	if q := quarantined(cl); len(q) != 1 || q[0] != 1 {
		t.Errorf("quarantined %v, want [1]", q)
	}
	if live := strategy.CountAlive(cl.dep.Load().alive); live != 3 {
		t.Errorf("live providers = %d, want 3", live)
	}
}

// TestChaosTransportDropSurfacesAsTimeout checks lost chunks feed the
// sticky-failure path: with every data chunk dropped on the wire (but
// heartbeats — control messages — intact), the run can only fail via the
// per-image timeout, and the error must say so.
func TestChaosTransportDropSurfacesAsTimeout(t *testing.T) {
	env := testEnv(device.Xavier, device.Nano)
	s := equalStrategy(env, []int{0, 18})
	chaos := transport.NewChaos(transport.NewInproc(), transport.ChaosConfig{Seed: 3, Drop: 1})
	opts := fastOpts()
	opts.Transport = chaos
	opts.Timeout = 200 * time.Millisecond
	cl, err := Deploy(env, s, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	_, err = stream(cl, 1, 1)
	if err == nil {
		t.Fatal("run with all chunks dropped must fail")
	}
	if !strings.Contains(err.Error(), "timed out") {
		t.Errorf("drop-everything failure should be a timeout, got: %v", err)
	}
}
