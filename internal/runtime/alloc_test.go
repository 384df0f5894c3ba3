package runtime

import (
	goruntime "runtime"
	"testing"

	"distredge/internal/baselines"
	"distredge/internal/device"
	"distredge/internal/transport"
)

// maxMallocsPerImage bounds the heap allocations one image costs the whole
// serving path — admission, scatter, every provider's receive, assembly,
// compute and send, the wire both ways, the result fan-in and the
// heartbeats meanwhile — on the layer-by-layer CoEdge plan over pooled tcp
// (the benchmark's wire-small shape, ~86 messages per image). It measures
// 18.1: the scatter's goroutine per destination (11), the registration's
// map and channel (3) and the await timer (3). One allocation per message
// would add ~86.
const maxMallocsPerImage = 24

// TestServingAllocationsPerImage is the serving path's allocation count
// guard, read from the runtime's own malloc counter rather than a timer: a
// data message costs no allocation anywhere between the compute thread, the
// wire and the assembly map, so what an image costs is per image, not per
// message.
func TestServingAllocationsPerImage(t *testing.T) {
	env := testEnv(device.Xavier, device.TX2, device.TX2, device.Nano)
	s, err := baselines.Plan(baselines.CoEdge, env)
	if err != nil {
		t.Fatal(err)
	}
	const timeScale = 1e-6
	cl, err := Deploy(env, s, Options{TimeScale: timeScale, BytesScale: 0.01, Transport: transport.NewPooledTCP(nil, nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const window, warm, images = 8, 200, 1000
	// Warm-up: lazy dials, the payload pools, spare assembly states.
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
