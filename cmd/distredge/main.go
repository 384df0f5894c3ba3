// Command distredge plans a CNN inference distribution strategy for a set
// of edge devices and reports the predicted streaming performance, along
// with every baseline method for comparison.
//
// With -deploy it runs the same scenario on the real runtime
// (runtime.Cluster.Serve) and reports the measurement in model time.
//
// Usage:
//
//	distredge -model vgg16 -providers xavier:200,xavier:200,nano:200,nano:200
//	distredge -model yolov2 -providers nano:50,nano:100,tx2:200 -effort full
//	distredge -model vgg16 -providers nano:100,nano:100 -baselines
//	distredge -model vgg16 -providers nano:50,nano:50 -deploy -transport inproc -trace
//	distredge -effort tiny -deploy -tenants heavy:60x1,light:20x2 -window 4 -churn drop:1@3 -heartbeat 15ms
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"distredge"
	"distredge/internal/experiments"
	"distredge/internal/runtime"
	"distredge/internal/sim"
	"distredge/internal/splitter"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "distredge:", err)
		os.Exit(1)
	}
}

// run is the command: it parses args on a FlagSet of its own and writes
// its report to w, so tests can drive it in-process.
func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("distredge", flag.ContinueOnError)
	model := fs.String("model", "vgg16", "model: "+strings.Join(distredge.Models(), ", "))
	provSpec := fs.String("providers", "xavier:200,xavier:200,nano:200,nano:200",
		"comma-separated type:bandwidthMbps provider list")
	alpha := fs.Float64("alpha", 0.75, "LC-PSS alpha (transmission/ops trade-off)")
	effort := fs.String("effort", "quick", "planning effort: tiny|quick|full|paper")
	objectiveSpec := fs.String("objective", "latency", "planning objective: latency (sequential single-image), ips (sustained pipelined throughput) or slo (throughput under the -slo p95 bound)")
	objWindow := fs.Int("objwindow", 4, "admission window the ips/slo objectives optimise for")
	sloMS := fs.Float64("slo", 0, "p95 latency bound in ms the slo objective plans under (0 = none)")
	images := fs.Int("images", 500, "images to stream in the evaluation")
	window := fs.Int("window", 1, "admission window: images kept in flight (1 = the paper's sequential protocol)")
	seed := fs.Int64("seed", 1, "random seed")
	withBaselines := fs.Bool("baselines", false, "also evaluate the seven baseline methods")
	describe := fs.Bool("describe", false, "print the model's per-layer summary and exit")
	timeline := fs.Bool("timeline", false, "render a per-device Gantt chart of one image")
	savePath := fs.String("save", "", "write the planned strategy to this JSON file")
	loadPath := fs.String("load", "", "evaluate a previously saved strategy instead of planning")
	churnSpec := fs.String("churn", "", "scripted fleet events, e.g. 'drop:1@2.5,slow:2x3@4,join:1@8' (see ParseChurn)")
	noRecover := fs.Bool("norecover", false, "with -churn: disable re-planning, so a drop truncates the stream")
	deploy := fs.Bool("deploy", false, "also run the scenario (-images or -tenants, -window, -batch, -churn, -norecover) on the real runtime and measure it")
	tenantsSpec := fs.String("tenants", "", "serve comma-separated name:IMAGESxWEIGHT tenants through the multi-tenant gateway (overrides -images)")
	policy := fs.String("policy", "wfq", "with -tenants: admission policy across tenants (fifo|wfq)")
	heartbeat := fs.Duration("heartbeat", 0, "with -deploy: provider heartbeat period (0 = default 50ms, negative disables health tracking)")
	transportSpec := fs.String("transport", "tcp", "with -deploy: wire stack tcp|tcp+deflate|tcp+quant|tcp+quant16|tcp+quant+deflate|inproc")
	trace := fs.Bool("trace", false, "with -deploy: shape the transport with the planned WiFi traces")
	batch := fs.Int("batch", 1, "step-batching cap — up to this many queued same-step images share one compute invocation (1 = off, 0 = adaptive: drain whatever queued)")
	planCacheCap := fs.Int("plancache", 0, "plan through a plan cache bounding this many entries, and re-plan churn recoveries from it (0 = off)")
	timescale := fs.Float64("timescale", 0.05, "with -deploy: compute emulation time scale")
	bytescale := fs.Float64("bytescale", 0.001, "with -deploy: payload byte scale")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *describe {
		s, err := distredge.DescribeModel(*model)
		if err != nil {
			return err
		}
		fmt.Fprint(w, s)
		return nil
	}

	providers, err := distredge.ParseProviders(*provSpec)
	if err != nil {
		return err
	}
	objective, err := distredge.ParseObjective(*objectiveSpec)
	if err != nil {
		return err
	}
	events, err := distredge.ParseChurn(*churnSpec)
	if err != nil {
		return err
	}
	// The scenario the simulator predicts below and -deploy runs.
	sc := sim.Scenario{Tenants: []sim.TenantSpec{{Images: *images}}, Window: *window, Batch: *batch, Events: events,
		ChurnOptions: sim.ChurnOptions{ReplanSec: experiments.ChurnReplanChargeSec}}
	if *tenantsSpec != "" {
		if sc.Tenants, err = distredge.ParseTenants(*tenantsSpec); err != nil {
			return err
		}
		sc.Policy = *policy
	}
	sys, err := distredge.New(*model, providers, distredge.WithSeed(*seed))
	if err != nil {
		return err
	}

	planCfg := distredge.PlanConfig{
		Alpha:           *alpha,
		Effort:          distredge.Effort(*effort),
		Objective:       objective,
		ObjectiveWindow: *objWindow,
		SLOP95MS:        *sloMS,
	}
	// The deployed fleet re-plans for the objective it serves, at the
	// batching cap it serves with, through the plan cache when there is
	// one; the prediction re-plans as it does.
	recoverCfg := distredge.PlanConfig{
		Objective:       objective,
		ObjectiveWindow: *objWindow,
		ObjectiveBatch:  *batch,
		SLOP95MS:        *sloMS,
	}
	rtObj, err := distredge.RuntimeObjective(recoverCfg)
	if err != nil {
		return err
	}
	sc.Replan = splitter.ObjectiveReplan(rtObj)
	var planCache *distredge.PlanCache
	if *planCacheCap > 0 {
		planCache = distredge.NewPlanCache(*planCacheCap)
		if sc.Replan, err = planCache.CachedReplan(recoverCfg); err != nil {
			return err
		}
	}
	if *noRecover {
		sc.Replan = nil
	}
	var plan *distredge.Plan
	if *loadPath != "" {
		data, err := os.ReadFile(*loadPath)
		if err != nil {
			return err
		}
		plan, err = sys.LoadPlan(data)
		if err != nil {
			return err
		}
	} else if planCache != nil {
		var outcome distredge.PlanOutcome
		plan, outcome, err = sys.PlanCached(planCfg, planCache)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "plan cache: %s\n", outcome)
	} else {
		plan, err = sys.Plan(planCfg)
		if err != nil {
			return err
		}
	}
	fmt.Fprint(w, plan.Describe(*model))
	if *savePath != "" {
		data, err := sys.SavePlan(plan)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*savePath, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "saved plan to %s\n", *savePath)
	}
	rep, err := sys.Evaluate(plan, *images)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\n%-14s IPS=%7.2f  latency=%7.1fms  maxComp=%6.1fms  maxTrans=%6.1fms\n",
		plan.Method, rep.IPS, rep.MeanLatMS, rep.MaxCompMS, rep.MaxTransMS)

	// An ips-planned strategy is meant to be served pipelined: report the
	// pipelined evaluation at its objective window even without -window.
	pipeWindow := *window
	if pipeWindow <= 1 && (objective == distredge.ObjectiveIPS || objective == distredge.ObjectiveSLO) {
		pipeWindow = *objWindow
	}
	if pipeWindow > 1 {
		pipe := sc
		pipe.Window, pipe.Events = pipeWindow, nil
		res, err := sys.Serve(plan, pipe)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-14s IPS=%7.2f  steady=%7.2f  latency=%7.1fms  p95=%7.1fms  (window %d)\n",
			"pipelined", res.IPS, res.SteadyIPS, res.MeanLatMS, res.P95LatMS, res.Window)
	}

	if len(sc.Events) > 0 {
		res, err := sys.Serve(plan, sc)
		if err != nil {
			return err
		}
		printServed(w, "churn", res)
	}

	if *deploy {
		tr, err := distredge.ParseTransport(*transportSpec)
		if err != nil {
			return err
		}
		opts := runtime.Options{TimeScale: *timescale, BytesScale: *bytescale, Replan: sc.Replan,
			HeartbeatInterval: *heartbeat, Batch: *batch}
		if *trace {
			opts.Transport = sys.ShapedTransportPostCodec(tr, opts)
		} else {
			opts.Transport = tr
		}
		cluster, err := sys.Deploy(plan, opts)
		if err != nil {
			return err
		}
		res, runErr := cluster.Serve(sc)
		cluster.Close()
		if res.Images > 0 { // measured in model time, reported as the churn prediction is
			printServed(w, "deployed", res)
			_, _, replanMS, quarantined := cluster.Recovery()
			fmt.Fprintf(w, "               measured over %s, policy %s; re-planned in %.1fms, quarantined %v\n",
				opts.Transport.Name(), res.Policy, replanMS, quarantined)
			for _, tr := range res.Tenants {
				fmt.Fprintf(w, "  %-12s completed=%d  latency=%7.1fms  p95=%7.1fms  max=%7.1fms\n", tr.Name, tr.Images, tr.MeanLatMS, tr.P95LatMS, tr.MaxLatMS)
			}
		}
		if runErr != nil {
			return runErr
		}
	}

	if *timeline {
		gantt, err := sys.Timeline(plan)
		if err != nil {
			return err
		}
		fmt.Fprintln(w)
		fmt.Fprint(w, gantt)
	}

	if planCache != nil {
		st := planCache.Stats()
		fmt.Fprintf(w, "plan cache: %d entr%s, %d hit(s), %d miss(es), %d warm hit(s)\n",
			st.Entries, plural(st.Entries, "y", "ies"), st.Hits, st.Misses, st.WarmHits)
	}

	if *withBaselines {
		for _, name := range distredge.Baselines() {
			bp, err := sys.Baseline(name)
			if err != nil {
				return err
			}
			brep, err := sys.Evaluate(bp, *images)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-14s IPS=%7.2f  latency=%7.1fms  maxComp=%6.1fms  maxTrans=%6.1fms\n",
				name, brep.IPS, brep.MeanLatMS, brep.MaxCompMS, brep.MaxTransMS)
		}
	}
	return nil
}

// printServed reports a served stream, the simulator's or the deployed
// fleet's, in model time.
func printServed(w io.Writer, label string, res sim.ServeResult) {
	fmt.Fprintf(w, "%-14s goodput=%5.2f  completed=%d/%d  latency=%7.1fms  p95=%7.1fms  (window %d)\n",
		label, res.IPS, res.Completed, res.Images, res.MeanLatMS, res.P95LatMS, res.Window)
	if res.Recoveries > 0 {
		fmt.Fprintf(w, "               recovered %d time(s), requeued %d in-flight images", res.Recoveries, res.Requeued)
		for i, rs := range res.EventRecoverySec {
			if rs >= 0 {
				fmt.Fprintf(w, "; event %d recovered in %.3fs", i+1, rs)
			}
		}
		fmt.Fprintln(w)
	}
	if res.FailedAtSec >= 0 {
		fmt.Fprintf(w, "               stream truncated at t=%.2fs: %d images lost\n", res.FailedAtSec, res.Failed)
	}
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}
