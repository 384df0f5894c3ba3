package runtime

import (
	goruntime "runtime"
	"runtime/debug"
	"testing"

	"distredge/internal/baselines"
	"distredge/internal/device"
	"distredge/internal/strategy"
	"distredge/internal/transport"
)

// maxMallocsPerImage bounds the heap allocations one image costs the whole
// serving path — admission, scatter, every provider's receive, assembly,
// compute and send, the wire both ways, the result fan-in and the
// heartbeats meanwhile — on the layer-by-layer CoEdge plan over pooled tcp
// (the benchmark's wire-small shape, ~86 messages per image). It measures
// ≈ 0.1–0.3: the scatter senders and the waiters (token and timer) are
// reused image after image, and the caches a garbage collection empties
// (the payload pool, the runtime's select waiters) are refilled before
// the count starts, so what is left is provider assembly states growing
// to the window and a collection that lands inside it.
// A send goroutine per scatter destination but the last would add 3, a
// fresh await timer 3, a fresh done channel 1, one allocation per message
// ~86.
const maxMallocsPerImage = 1

// TestServingAllocationsPerImage is the serving path's allocation count
// guard, read from the runtime's own malloc counter rather than a timer:
// neither a data message nor an image costs an allocation anywhere between
// admission, the compute threads, the wire, the assembly and the result.
func TestServingAllocationsPerImage(t *testing.T) {
	env := testEnv(device.Xavier, device.TX2, device.TX2, device.Nano)
	s, err := baselines.Plan(baselines.CoEdge, env)
	if err != nil {
		t.Fatal(err)
	}
	const timeScale = 1e-6
	cl, err := Deploy(env, s, Options{TimeScale: timeScale, BytesScale: 0.01, Transport: transport.NewTCP(nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const window, warm, images = 8, 200, 1000
	// Warm-up: lazy dials, the payload pools, spare assembly states. Then a
	// forced collection and a second warm-up, so that the refills of what
	// a collection empties (the payload pool, the runtime's select
	// waiters) land before the measured window, not inside it.
	if _, err := stream(cl, warm, window); err != nil {
		t.Fatal(err)
	}
	goruntime.GC()
	if _, err := stream(cl, warm, window); err != nil {
		t.Fatal(err)
	}
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	st, err := stream(cl, images, window)
	goruntime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed != images {
		t.Fatalf("completed %d of %d images", st.Completed, images)
	}
	perImage := float64(after.Mallocs-before.Mallocs) / images
	t.Logf("%.1f mallocs per image over %d images (%.0f img/s of wall clock)", perImage, images, st.IPS/timeScale)
	if perImage > maxMallocsPerImage && !raceEnabled {
		t.Errorf("serving allocates %.1f times per image, want <= %d", perImage, maxMallocsPerImage)
	}
}

// TestRedeployReusesPayloadMemory: a fleet deployed after another one has
// closed serves its first images from the buffers the closed one left in
// the process payload pool, as the benchmark's set-up redeploys after
// one collection. Under a pool per transport the second warm-up allocated
// the first one's payload bytes over again.
func TestRedeployReusesPayloadMemory(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops a share of sync.Pool Puts")
	}
	env := testEnv(device.Xavier, device.TX2, device.TX2, device.Nano)
	pb := strategy.PoolBoundaries(env.Model)
	var boundaries []int
	for i, vols := 0, len(pb)-1; i <= 4; i++ {
		boundaries = append(boundaries, pb[i*vols/4])
	}
	s := stageStrategy(env, env.Model, boundaries)
	// warmUp deploys over a fresh default transport, streams images at full
	// payload size, closes and returns the bytes the stream allocated.
	warmUp := func(images int) uint64 {
		cl, err := Deploy(env, s, Options{TimeScale: 1e-6, BytesScale: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		var before, after goruntime.MemStats
		goruntime.ReadMemStats(&before)
		st, err := stream(cl, images, 8)
		goruntime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if st.Completed != images {
			t.Fatalf("completed %d of %d images", st.Completed, images)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	// Collections run only where the benchmark's set-up runs them: one
	// started by heap growth mid-warm-up ages pooled buffers out at random.
	// Two first empty the pool of what earlier tests left in it.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	goruntime.GC()
	goruntime.GC()
	// The first fleet streams long enough to reach its peak of payloads in
	// flight, which is what it leaves in the pool; the second a warm-up.
	first := warmUp(160)
	goruntime.GC()
	second := warmUp(40)
	t.Logf("streaming allocated %.1f MB on the first fleet, %.1f MB on the redeployed one", float64(first)/1e6, float64(second)/1e6)
	if second > first/4 {
		t.Errorf("the redeployed fleet's warm-up allocated %d bytes, want well under the first one's %d", second, first)
	}
}
