// Distributed execution: plan a strategy and actually run it over TCP on
// localhost. Each provider is a real listener with the paper's three-thread
// structure (receive / compute / send goroutines sharing queues,
// Section V-A); the requester scatters input rows, providers exchange halo
// rows between layer-volumes, the FC owner gathers the final feature map,
// and results stream back — one image in flight at a time, exactly the
// paper's measurement protocol, run as a one-tenant sim.Scenario with
// window 1.
//
// Compute is emulated by sleeping for the device model's latency (scaled
// down 20x here so the demo finishes quickly); the protocol is fully real.
package main

import (
	"fmt"
	"log"

	"distredge"
	"distredge/internal/runtime"
	"distredge/internal/sim"
)

func main() {
	sys, err := distredge.New("vgg16", []distredge.Provider{
		{Type: "xavier", BandwidthMbps: 200},
		{Type: "tx2", BandwidthMbps: 200},
		{Type: "nano", BandwidthMbps: 200},
	}, distredge.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}

	plan, err := sys.Plan(distredge.PlanConfig{Effort: distredge.EffortTiny})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(plan.Describe("vgg16"))

	cluster, err := sys.Deploy(plan, runtime.Options{
		TimeScale:  0.05, // sleep 1/20th of the modelled latency
		BytesScale: 0.01, // ship 1% of the real activation bytes
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	fmt.Printf("\ndeployed %d TCP providers; requester listening at %s\n\n",
		cluster.NumProviders(), cluster.Addr())

	// Serve reports in model time: the wall clock divided by TimeScale.
	stats, err := cluster.Serve(sim.Scenario{Tenants: []sim.TenantSpec{{Images: 10}}, Window: 1})
	if err != nil {
		log.Fatal(err)
	}
	for i, sec := range stats.PerImageSec {
		fmt.Printf("image %2d: %7.1f ms\n", i+1, sec*1e3)
	}
	fmt.Printf("\n%d images in %.2fs — %.1f images/sec over real sockets (model time)\n",
		stats.Completed, stats.TotalSec, stats.IPS)
}
