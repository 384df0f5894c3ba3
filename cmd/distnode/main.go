// Command distnode deploys a planned strategy over the runtime's wire
// stack — one listener per provider with receive/compute/send goroutines,
// exactly the runtime shape of the paper's testbed (Section V-A) — and
// streams images through it. The -transport flag picks the medium
// (localhost TCP with the binary chunk codec by default, inproc for
// socket-free channels) and -trace shapes
// it with the planned WiFi traces, so the deployment experiences the
// simulator's network conditions instead of localhost's free wire.
//
// Compute is emulated (sleep = device-model latency x -timescale) while the
// routing, framing, halo exchange and FC gathering are performed for real.
//
// Usage:
//
//	distnode -model vgg16 -providers xavier:200,nano:200 -images 20 -timescale 0.1
//	distnode -providers xavier:200,nano:200,tx2:200 -window 4 -recover -kill 1@0.5
//	distnode -providers xavier:50,nano:50 -transport inproc -trace
//	distnode -providers xavier:200,nano:200 -tenants heavy:24x1,small:4x4 -policy wfq -slo 2000
//	distnode -providers xavier:200,nano:200,tx2:200,nano:200 -tenants heavy:60x1,light:20x2 -window 4 -recover -kill 1@0.15 -heartbeat 15ms
//
// With -tenants, the deployment serves through the multi-tenant gateway
// instead of one pipelined stream: each tenant's backlog is enqueued up
// front, the -policy flag picks FIFO or weighted fair queueing, -window
// bounds the images in flight fleet-wide, and -slo (wall-clock ms) sets a
// per-request enqueue-to-completion deadline. The run prints a per-tenant
// outcome and latency summary.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"distredge"
	"distredge/internal/gateway"
	"distredge/internal/runtime"
	"distredge/internal/sim"
)

func main() {
	model := flag.String("model", "vgg16", "model: "+strings.Join(distredge.Models(), ", "))
	provSpec := flag.String("providers", "xavier:200,nano:200", "comma-separated type:bandwidthMbps list")
	images := flag.Int("images", 10, "images to stream")
	window := flag.Int("window", 1, "admission window: images kept in flight (1 = the paper's sequential protocol)")
	timescale := flag.Float64("timescale", 0.1, "compute emulation time scale (1.0 = full model latency)")
	bytescale := flag.Float64("bytescale", 0.01, "payload byte scale (1.0 = full activation sizes)")
	effort := flag.String("effort", "tiny", "planning effort: tiny|quick|full|paper")
	objectiveSpec := flag.String("objective", "latency", "planning objective: latency (sequential single-image), ips (sustained pipelined throughput) or slo (throughput under the -slo p95 bound)")
	objWindow := flag.Int("objwindow", 4, "admission window the ips/slo objectives optimise for")
	seed := flag.Int64("seed", 1, "random seed")
	recover := flag.Bool("recover", false, "survive provider deaths: quarantine, re-plan over survivors, re-scatter in-flight images")
	killSpec := flag.String("kill", "", "chaos injection: comma-separated dev@seconds provider kills (wall clock after the run starts), e.g. 1@0.5")
	heartbeat := flag.Duration("heartbeat", 0, "provider heartbeat period (0 = default 50ms, negative disables health tracking)")
	transportSpec := flag.String("transport", "tcp", "wire stack: tcp|tcp+deflate|tcp+quant|tcp+quant16|tcp+quant+deflate|inproc")
	trace := flag.Bool("trace", false, "shape the transport with the planned WiFi traces (charge trace latency per payload byte)")
	postCodec := flag.Bool("postcodec", false, "with -trace: charge the bytes the codec puts on the wire instead of the raw payload (quant/deflate then shorten the shaped wire)")
	batch := flag.Int("batch", 1, "step-batching cap: up to this many queued same-step images share one compute invocation (1 = off, 0 = adaptive: drain whatever queued)")
	planCacheCap := flag.Int("plancache", 0, "plan through a plan cache bounding this many entries and re-plan recoveries from it (0 = off)")
	tenantsSpec := flag.String("tenants", "", "serve through the multi-tenant gateway: comma-separated name:IMAGESxWEIGHT tenants (overrides -images)")
	policy := flag.String("policy", "wfq", "with -tenants: admission policy across tenants (fifo|wfq)")
	sloMS := flag.Float64("slo", 0, "p95 latency bound in wall-clock ms: per-request gateway deadline with -tenants, and the bound -objective slo plans under (0 = none)")
	flag.Parse()

	providers, err := distredge.ParseProviders(*provSpec)
	if err != nil {
		fatal(err)
	}
	objective, err := distredge.ParseObjective(*objectiveSpec)
	if err != nil {
		fatal(err)
	}
	sys, err := distredge.New(*model, providers, distredge.WithSeed(*seed))
	if err != nil {
		fatal(err)
	}
	var tenants []sim.TenantSpec
	if *tenantsSpec != "" {
		tenants, err = distredge.ParseTenants(*tenantsSpec)
		if err != nil {
			fatal(err)
		}
	}
	planCfg := distredge.PlanConfig{
		Effort:          distredge.Effort(*effort),
		Objective:       objective,
		ObjectiveWindow: *objWindow,
		SLOP95MS:        *sloMS,
	}
	var planCache *distredge.PlanCache
	var plan *distredge.Plan
	if *planCacheCap > 0 {
		planCache = distredge.NewPlanCache(*planCacheCap)
		var outcome distredge.PlanOutcome
		plan, outcome, err = sys.PlanCached(planCfg, planCache)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("plan cache: %s\n", outcome)
	} else {
		plan, err = sys.Plan(planCfg)
		if err != nil {
			fatal(err)
		}
	}
	fmt.Print(plan.Describe(*model))

	kills, err := parseKills(*killSpec)
	if err != nil {
		fatal(err)
	}

	tr, err := distredge.ParseTransport(*transportSpec)
	if err != nil {
		fatal(err)
	}
	rtObj, err := distredge.RuntimeObjective(distredge.PlanConfig{
		Objective:       objective,
		ObjectiveWindow: *objWindow,
		ObjectiveBatch:  *batch,
		SLOP95MS:        *sloMS,
	})
	if err != nil {
		fatal(err)
	}
	opts := runtime.Options{
		TimeScale:         *timescale,
		BytesScale:        *bytescale,
		Recover:           *recover,
		HeartbeatInterval: *heartbeat,
		Transport:         tr,
		Objective:         rtObj,
		Batch:             *batch,
	}
	if planCache != nil {
		opts.Replan, err = planCache.CachedReplan(planCfg, nil)
		if err != nil {
			fatal(err)
		}
	}
	if *trace {
		if *postCodec {
			opts.Transport = sys.ShapedTransportPostCodec(tr, opts)
		} else {
			opts.Transport = sys.ShapedTransport(tr, opts)
		}
	}
	cluster, err := sys.Deploy(plan, opts)
	if err != nil {
		fatal(err)
	}
	defer cluster.Close()
	fmt.Printf("deployed %d providers over %s; requester at %s\n",
		cluster.NumProviders(), cluster.Transport().Name(), cluster.Addr())

	for _, k := range kills {
		if k.dev < 0 || k.dev >= cluster.NumProviders() {
			fatal(fmt.Errorf("-kill device %d out of range [0,%d)", k.dev, cluster.NumProviders()))
		}
		k := k
		timer := time.AfterFunc(k.after, func() {
			if err := cluster.KillProvider(k.dev); err != nil {
				fmt.Printf("chaos: kill provider %d failed: %v\n", k.dev, err)
				return
			}
			fmt.Printf("chaos: killed provider %d (t=%.2fs)\n", k.dev, k.after.Seconds())
		})
		defer timer.Stop()
	}

	if len(tenants) > 0 {
		if err := serveTenants(cluster, tenants, *policy, *window, *sloMS); err != nil {
			fatal(err)
		}
		return
	}

	stats, runErr := cluster.RunPipelined(*images, *window)
	fmt.Printf("streamed %d of %d images (window %d) in %.2fs — %.2f images/sec goodput\n",
		stats.Completed, stats.Images, stats.Window, stats.TotalSec, stats.IPS)
	printRecovery(cluster)
	for i, ms := range stats.PerImageMS {
		if ms > 0 {
			fmt.Printf("  image %2d: %7.1f ms\n", i+1, ms)
		} else {
			fmt.Printf("  image %2d:    lost\n", i+1)
		}
	}
	if runErr != nil {
		fatal(runErr)
	}
}

// serveTenants runs the multi-tenant gateway path: every tenant's backlog
// is enqueued up front (the burst model the sim mirror sweeps), results are
// drained, and the per-tenant summary printed.
func serveTenants(cluster *runtime.Cluster, tenants []sim.TenantSpec, policy string, window int, sloMS float64) error {
	cfgs := make([]gateway.TenantConfig, len(tenants))
	for i, t := range tenants {
		cfgs[i] = gateway.TenantConfig{
			Name:     t.Name,
			Weight:   t.Weight,
			Deadline: time.Duration(sloMS * float64(time.Millisecond)),
		}
	}
	g, err := gateway.New(cluster, gateway.Config{Window: window, Policy: policy}, cfgs)
	if err != nil {
		return err
	}
	start := time.Now()
	var results []<-chan gateway.Result
	for i, t := range tenants {
		for j := 0; j < t.Images; j++ {
			ch, err := g.Enqueue(t.Name)
			if err != nil {
				return fmt.Errorf("enqueue %s[%d]: %w", tenants[i].Name, j, err)
			}
			results = append(results, ch)
		}
	}
	served := 0
	for _, ch := range results {
		if r := <-ch; r.Err == nil {
			served++
		}
	}
	total := time.Since(start).Seconds()
	g.Close()
	ips := 0.0
	if total > 0 {
		ips = float64(served) / total
	}
	fmt.Printf("gateway served %d of %d requests (policy %s, window %d) in %.2fs — %.2f images/sec\n",
		served, len(results), policy, window, total, ips)
	printRecovery(cluster)
	fmt.Printf("%-10s %8s %9s %5s %7s %6s %9s %9s %9s\n",
		"tenant", "enqueued", "completed", "late", "expired", "failed", "lat(ms)", "p95(ms)", "max(ms)")
	for _, s := range g.Summary() {
		fmt.Printf("%-10s %8d %9d %5d %7d %6d %9.1f %9.1f %9.1f\n",
			s.Tenant, s.Enqueued, s.Completed, s.Late, s.Expired, s.Failed,
			s.MeanLatMS, s.P95LatMS, s.MaxLatMS)
	}
	return nil
}

// printRecovery reports what -recover did, whichever path served.
func printRecovery(cluster *runtime.Cluster) {
	if n, requeued, replanMS, quarantined := cluster.Recovery(); n > 0 {
		fmt.Printf("recovered %d time(s): re-planned in %.1fms, requeued %d in-flight images, quarantined %v; %d of %d providers live\n",
			n, replanMS, requeued, quarantined, cluster.LiveProviders(), cluster.NumProviders())
	}
}

type killAt struct {
	dev   int
	after time.Duration
}

func parseKills(spec string) ([]killAt, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	var out []killAt
	for _, part := range strings.Split(spec, ",") {
		devSpec, atSpec, ok := strings.Cut(strings.TrimSpace(part), "@")
		if !ok {
			return nil, fmt.Errorf("bad -kill %q (want dev@seconds)", part)
		}
		dev, err := strconv.Atoi(devSpec)
		if err != nil {
			return nil, fmt.Errorf("bad device in -kill %q: %v", part, err)
		}
		sec, err := strconv.ParseFloat(atSpec, 64)
		if err != nil {
			return nil, fmt.Errorf("bad time in -kill %q: %v", part, err)
		}
		out = append(out, killAt{dev: dev, after: time.Duration(sec * float64(time.Second))})
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "distnode:", err)
	os.Exit(1)
}
