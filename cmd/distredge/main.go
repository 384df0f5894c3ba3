// Command distredge plans a CNN inference distribution strategy for a set
// of edge devices and reports the predicted streaming performance, along
// with every baseline method for comparison.
//
// Usage:
//
//	distredge -model vgg16 -providers xavier:200,xavier:200,nano:200,nano:200
//	distredge -model yolov2 -providers nano:50,nano:100,tx2:200 -effort full
//	distredge -model vgg16 -providers nano:100,nano:100 -baselines
//	distredge -model vgg16 -providers nano:50,nano:50 -deploy -transport inproc -trace
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"distredge"
	"distredge/internal/runtime"
	"distredge/internal/sim"
)

func main() {
	model := flag.String("model", "vgg16", "model: "+strings.Join(distredge.Models(), ", "))
	provSpec := flag.String("providers", "xavier:200,xavier:200,nano:200,nano:200",
		"comma-separated type:bandwidthMbps provider list")
	alpha := flag.Float64("alpha", 0.75, "LC-PSS alpha (transmission/ops trade-off)")
	effort := flag.String("effort", "quick", "planning effort: tiny|quick|full|paper")
	objectiveSpec := flag.String("objective", "latency", "planning objective: latency (sequential single-image), ips (sustained pipelined throughput) or slo (throughput under the -slo p95 bound)")
	objWindow := flag.Int("objwindow", 4, "admission window the ips/slo objectives optimise for")
	sloMS := flag.Float64("slo", 0, "p95 latency bound in ms the slo objective plans under (0 = none)")
	images := flag.Int("images", 500, "images to stream in the evaluation")
	window := flag.Int("window", 1, "admission window: images kept in flight (1 = the paper's sequential protocol)")
	seed := flag.Int64("seed", 1, "random seed")
	withBaselines := flag.Bool("baselines", false, "also evaluate the seven baseline methods")
	describe := flag.Bool("describe", false, "print the model's per-layer summary and exit")
	timeline := flag.Bool("timeline", false, "render a per-device Gantt chart of one image")
	savePath := flag.String("save", "", "write the planned strategy to this JSON file")
	loadPath := flag.String("load", "", "evaluate a previously saved strategy instead of planning")
	churnSpec := flag.String("churn", "", "scripted fleet events, e.g. 'drop:1@2.5,slow:2x3@4,join:1@8' (see ParseChurn)")
	noRecover := flag.Bool("norecover", false, "with -churn: disable re-planning, so a drop truncates the stream")
	deploy := flag.Bool("deploy", false, "also deploy the plan on the real runtime and measure it")
	transportSpec := flag.String("transport", "tcp", "with -deploy: wire stack tcp|tcp+deflate|tcp+quant|tcp+quant16|tcp+quant+deflate|inproc")
	trace := flag.Bool("trace", false, "with -deploy: shape the transport with the planned WiFi traces")
	batch := flag.Int("batch", 1, "with -deploy: step-batching cap — up to this many queued same-step images share one compute invocation (1 = off, 0 = adaptive: drain whatever queued)")
	planCacheCap := flag.Int("plancache", 0, "plan through a plan cache bounding this many entries, and re-plan churn recoveries from it (0 = off)")
	timescale := flag.Float64("timescale", 0.05, "with -deploy: compute emulation time scale")
	bytescale := flag.Float64("bytescale", 0.001, "with -deploy: payload byte scale")
	flag.Parse()

	if *describe {
		s, err := distredge.DescribeModel(*model)
		if err != nil {
			fatal(err)
		}
		fmt.Print(s)
		return
	}

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

	planCfg := distredge.PlanConfig{
		Alpha:           *alpha,
		Effort:          distredge.Effort(*effort),
		Objective:       objective,
		ObjectiveWindow: *objWindow,
		SLOP95MS:        *sloMS,
	}
	var planCache *distredge.PlanCache
	if *planCacheCap > 0 {
		planCache = distredge.NewPlanCache(*planCacheCap)
	}
	var plan *distredge.Plan
	if *loadPath != "" {
		data, err := os.ReadFile(*loadPath)
		if err != nil {
			fatal(err)
		}
		plan, err = sys.LoadPlan(data)
		if err != nil {
			fatal(err)
		}
	} else if planCache != nil {
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
	if *savePath != "" {
		data, err := sys.SavePlan(plan)
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*savePath, data, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("saved plan to %s\n", *savePath)
	}
	rep, err := sys.Evaluate(plan, *images)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\n%-14s IPS=%7.2f  latency=%7.1fms  maxComp=%6.1fms  maxTrans=%6.1fms\n",
		plan.Method, rep.IPS, rep.MeanLatMS, rep.MaxCompMS, rep.MaxTransMS)

	// An ips-planned strategy is meant to be served pipelined: report the
	// pipelined evaluation at its objective window even without -window.
	pipeWindow := *window
	if pipeWindow <= 1 && (objective == distredge.ObjectiveIPS || objective == distredge.ObjectiveSLO) {
		pipeWindow = *objWindow
	}
	if pipeWindow > 1 {
		prep, err := sys.EvaluatePipelined(plan, *images, pipeWindow)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-14s IPS=%7.2f  steady=%7.2f  latency=%7.1fms  p95=%7.1fms  (window %d)\n",
			"pipelined", prep.IPS, prep.SteadyIPS, prep.MeanLatMS, prep.P95LatMS, prep.Window)
	}

	if *churnSpec != "" {
		events, err := distredge.ParseChurn(*churnSpec)
		if err != nil {
			fatal(err)
		}
		var replan sim.ReplanFunc
		if planCache != nil {
			replan, err = planCache.CachedReplan(planCfg, nil)
			if err != nil {
				fatal(err)
			}
		}
		crep, err := sys.EvaluateChurnReplan(plan, *images, *window, events, !*noRecover, replan)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-14s goodput=%5.2f  completed=%d/%d  latency=%7.1fms  p95=%7.1fms  (window %d)\n",
			"churn", crep.GoodputIPS, crep.Completed, *images, crep.MeanLatMS, crep.P95LatMS, crep.Window)
		if crep.Recoveries > 0 {
			fmt.Printf("               recovered %d time(s), requeued %d in-flight images", crep.Recoveries, crep.Requeued)
			for i, rs := range crep.RecoverSec {
				if rs >= 0 {
					fmt.Printf("; event %d recovered in %.3fs", i+1, rs)
				}
			}
			fmt.Println()
		}
		if crep.FailedAtSec >= 0 {
			fmt.Printf("               stream truncated at t=%.2fs: %d images lost\n", crep.FailedAtSec, crep.Failed)
		}
	}

	if *deploy {
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
		opts := runtime.Options{TimeScale: *timescale, BytesScale: *bytescale, Objective: rtObj, Batch: *batch}
		if planCache != nil {
			opts.Replan, err = planCache.CachedReplan(planCfg, nil)
			if err != nil {
				fatal(err)
			}
		}
		if *trace {
			opts.Transport = sys.ShapedTransport(tr, opts)
		} else {
			opts.Transport = tr
		}
		cluster, err := sys.Deploy(plan, opts)
		if err != nil {
			fatal(err)
		}
		stats, runErr := cluster.RunPipelined(*images, *window)
		cluster.Close()
		if runErr != nil {
			fatal(runErr)
		}
		// Wall-clock measurements map back to model time via the scales.
		fmt.Printf("%-14s IPS=%7.2f  latency=%7.1fms  (measured over %s, %d images, window %d, model scale)\n",
			"deployed", stats.IPS**timescale, stats.MeanLatMS()/(*timescale),
			opts.Transport.Name(), stats.Completed, stats.Window)
	}

	if *timeline {
		gantt, err := sys.Timeline(plan)
		if err != nil {
			fatal(err)
		}
		fmt.Println()
		fmt.Print(gantt)
	}

	if planCache != nil {
		st := planCache.Stats()
		fmt.Printf("plan cache: %d entr%s, %d hit(s), %d miss(es), %d warm hit(s)\n",
			st.Entries, plural(st.Entries, "y", "ies"), st.Hits, st.Misses, st.WarmHits)
	}

	if *withBaselines {
		for _, name := range distredge.Baselines() {
			bp, err := sys.Baseline(name)
			if err != nil {
				fatal(err)
			}
			brep, err := sys.Evaluate(bp, *images)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("%-14s IPS=%7.2f  latency=%7.1fms  maxComp=%6.1fms  maxTrans=%6.1fms\n",
				name, brep.IPS, brep.MeanLatMS, brep.MaxCompMS, brep.MaxTransMS)
		}
	}
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "distredge:", err)
	os.Exit(1)
}
