// Dynamic networks: the fleet of the paper's Section V-F scenario. Four
// Nanos sit on highly fluctuating 40-100 Mbps links (Fig. 12). DistrEdge
// keeps its actor network online, so adapting is a few finetuning episodes
// instead of a re-plan from scratch (AOFL's brute-force re-plan takes ~10
// minutes on the paper's controller). This example trains once, then
// finetunes the live agent twice more on the same traces: the System's
// environment does not change between rounds. Fig. 13 (distbench -fig 13)
// is the run that moves through the traces over 60 minutes.
package main

import (
	"fmt"
	"log"

	"distredge"
)

func main() {
	sys, err := distredge.New("vgg16", []distredge.Provider{
		{Type: "nano", BandwidthMbps: 100},
		{Type: "nano", BandwidthMbps: 100},
		{Type: "nano", BandwidthMbps: 100},
		{Type: "nano", BandwidthMbps: 100},
	}, distredge.WithSeed(1), distredge.WithDynamicNetwork())
	if err != nil {
		log.Fatal(err)
	}

	// Initial training: the trainer handle stays alive for finetuning.
	ft, plan, err := sys.NewFinetuner(distredge.PlanConfig{Effort: distredge.EffortQuick})
	if err != nil {
		log.Fatal(err)
	}
	rep, err := sys.Evaluate(plan, 200)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("round 0  initial plan:   %6.2f IPS (mean %.1f ms)\n", rep.IPS, rep.MeanLatMS)

	// Each round finetunes the live agent for a handful of episodes — the
	// paper reports 20-210 s for this, versus 10 min for AOFL's full
	// re-plan.
	for round := 1; round <= 2; round++ {
		newPlan, err := ft.Finetune(30)
		if err != nil {
			log.Fatal(err)
		}
		r, err := sys.Evaluate(newPlan, 200)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("round %d  finetuned plan: %6.2f IPS (mean %.1f ms)\n", round, r.IPS, r.MeanLatMS)
	}

	// Compare with the static baselines that never adapt.
	for _, m := range []string{"CoEdge", "AOFL"} {
		bp, err := sys.Baseline(m)
		if err != nil {
			log.Fatal(err)
		}
		r, err := sys.Evaluate(bp, 200)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-9s static plan: %6.2f IPS (mean %.1f ms)\n", m, r.IPS, r.MeanLatMS)
	}
}
