package experiments

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"distredge/internal/baselines"
	"distredge/internal/cnn"
	"distredge/internal/device"
	"distredge/internal/network"
	"distredge/internal/partition"
	"distredge/internal/sim"
	"distredge/internal/splitter"
)

// ---------------------------------------------------------------- Fig. 4

// TraceRow summarises one throughput trace (Fig. 4 / Fig. 12).
type TraceRow struct {
	Name                 string
	MeanMbps             float64
	MinMbps, MaxMbps     float64
	StdMbps              float64
	DurationMin          float64
	CoefficientVariation float64
}

func traceRow(name string, tr *network.Trace) TraceRow {
	mean := tr.Mean()
	lo, hi := math.Inf(1), math.Inf(-1)
	var sq float64
	for _, v := range tr.Mbps {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
		sq += float64((v - mean) * (v - mean))
	}
	std := math.Sqrt(sq / float64(len(tr.Mbps)))
	return TraceRow{
		Name: name, MeanMbps: mean, MinMbps: lo, MaxMbps: hi,
		StdMbps: std, DurationMin: tr.Duration() / 60,
		CoefficientVariation: std / mean,
	}
}

// Fig04StableTraces regenerates the Fig. 4 traces: stable WiFi at
// {50,100,200,300} Mbps over 60 minutes.
func Fig04StableTraces(seed int64) []TraceRow {
	rows := make([]TraceRow, 0, 4)
	for _, bw := range []float64{50, 100, 200, 300} {
		tr := network.Stable(bw, 60, seed+int64(bw))
		rows = append(rows, traceRow(fmt.Sprintf("%gMbps", bw), tr))
	}
	return rows
}

// ---------------------------------------------------------------- Fig. 5

// AlphaRow is one bar of Fig. 5: DistrEdge IPS with a given LC-PSS α.
type AlphaRow struct {
	Case    string
	Alpha   float64
	Volumes int
	IPS     float64
}

// fig5Specs builds the four environment families of Fig. 5(a)-(d).
func fig5Specs(seed int64) []Spec {
	m := cnn.VGG16()
	specs := []Spec{}
	// (a) four homogeneous Nanos, bandwidth sweep.
	for _, bw := range []float64{50, 100, 200, 300} {
		specs = append(specs, Spec{
			Name:           fmt.Sprintf("homog-%gMbps", bw),
			Model:          m,
			Types:          []device.Type{device.Nano, device.Nano, device.Nano, device.Nano},
			BandwidthsMbps: uniform(bw, 4), Seed: seed,
		})
	}
	// (b) heterogeneous devices: Group DB at 200 Mbps.
	specs = append(specs, DeviceGroups()[1].Spec(m, 200, seed))
	// (c) heterogeneous bandwidths: Group NA with Nanos.
	specs = append(specs, NetworkGroups()[0].Spec(m, device.Nano, seed))
	// (d) large scale: LB, LC, LD.
	for _, c := range LargeScaleCases()[1:] {
		specs = append(specs, c.Spec(m, seed))
	}
	return specs
}

// Fig05AlphaSweep regenerates Fig. 5: DistrEdge IPS for
// α ∈ {0, 0.25, 0.5, 0.75, 1} across the four environment families.
// The paper finds α=0.75 best everywhere and the extremes poor. Each cell
// plans with the latency Request at its α. The case×α grid runs on the
// budget's worker pool; each cell rebuilds its environment from the spec,
// so rows are identical for any worker count.
func Fig05AlphaSweep(b Budget, cases int) ([]AlphaRow, error) {
	specs := fig5Specs(b.Seed)
	if cases > 0 && cases < len(specs) {
		specs = specs[:cases]
	}
	alphas := []float64{0, 0.25, 0.5, 0.75, 1}
	rows := make([]AlphaRow, len(specs)*len(alphas))
	err := runIndexed(len(rows), b.Workers(), func(i int) error {
		spec := specs[i/len(alphas)]
		alpha := alphas[i%len(alphas)]
		env := spec.Env()
		plan, err := Request{Budget: b, Alpha: alpha}.Plan(env, nil, nil)
		if err != nil {
			return err
		}
		stream, err := env.Stream(plan, b.StreamImages, 0)
		if err != nil {
			return err
		}
		rows[i] = AlphaRow{
			Case: spec.Name, Alpha: alpha,
			Volumes: plan.NumVolumes(), IPS: stream.IPS,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// ---------------------------------------------------------------- Fig. 6

// RrsRow is one group of Fig. 6: the IPS spread across LC-PSS repetitions
// at a given |R^r_s|.
type RrsRow struct {
	Case    string
	Rrs     int
	Reps    int
	MinIPS  float64
	MeanIPS float64
	MaxIPS  float64
}

// Fig06RrsSweep regenerates Fig. 6: repeat LC-PSS with different random
// split-decision draws and measure the IPS spread; the paper finds the
// spread collapses for |R^r_s| >= 100. The case×|Rrs| grid runs on the
// budget's worker pool; within one cell, OSDS results are cached per
// distinct partition scheme (the OSDS seed does not depend on the rep, so
// cached and recomputed values are identical).
func Fig06RrsSweep(b Budget, reps int) ([]RrsRow, error) {
	if reps <= 0 {
		reps = 10
	}
	m := cnn.VGG16()
	cases := []Spec{
		DeviceGroups()[1].Spec(m, 50, b.Seed),           // (a) DB, 50 Mbps
		NetworkGroups()[0].Spec(m, device.Nano, b.Seed), // (b) NA, Nano
	}
	rrsValues := []int{25, 50, 75, 100, 125, 150}
	// One OSDS-result memo per case, shared by that case's |Rrs| cells:
	// the same partition scheme recurs across rrs values (that collapse is
	// the figure's point) and the memoized IPS equals the recomputed one,
	// so sharing preserves byte-identical rows while deduplicating the
	// expensive searches.
	caches := make([]struct {
		sync.Mutex
		m map[string]float64
	}, len(cases))
	for i := range caches {
		caches[i].m = map[string]float64{}
	}
	rows := make([]RrsRow, len(cases)*len(rrsValues))
	err := runIndexed(len(rows), b.Workers(), func(i int) error {
		spec := cases[i/len(rrsValues)]
		cache := &caches[i/len(rrsValues)]
		rrs := rrsValues[i%len(rrsValues)]
		env := spec.Env()
		minI, maxI, sum := math.Inf(1), math.Inf(-1), 0.0
		for rep := 0; rep < reps; rep++ {
			boundaries, err := partition.Search(env.Model, partition.Config{
				Alpha:           0.75,
				NumRandomSplits: rrs,
				Providers:       env.NumProviders(),
				Seed:            b.Seed + int64(1000*rep) + int64(rrs),
			})
			if err != nil {
				return err
			}
			key := fmt.Sprint(boundaries)
			cache.Lock()
			ips, ok := cache.m[key]
			cache.Unlock()
			if !ok {
				// Computed outside the lock: concurrent cells may race to
				// fill the same key, but the value is deterministic so the
				// duplicate work is benign.
				res, err := splitter.Search(env, boundaries, osdsConfig(b, env.NumProviders()))
				if err != nil {
					return err
				}
				stream, err := env.Stream(res.Strategy, b.StreamImages, 0)
				if err != nil {
					return err
				}
				ips = stream.IPS
				cache.Lock()
				cache.m[key] = ips
				cache.Unlock()
			}
			minI = math.Min(minI, ips)
			maxI = math.Max(maxI, ips)
			sum += ips
		}
		rows[i] = RrsRow{
			Case: spec.Name, Rrs: rrs, Reps: reps,
			MinIPS: minI, MeanIPS: sum / float64(reps), MaxIPS: maxI,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// ------------------------------------------------------- Fig. 7 / 8 / 9

// Fig07HeterogeneousDevices regenerates Fig. 7: Table I groups at 50 and
// 300 Mbps, all methods, VGG-16. The case×method grid runs on the budget's
// worker pool.
func Fig07HeterogeneousDevices(b Budget) ([]MethodRow, error) {
	m := cnn.VGG16()
	var specs []Spec
	for _, bw := range []float64{50, 300} {
		for _, g := range DeviceGroups() {
			specs = append(specs, g.Spec(m, bw, b.Seed))
		}
	}
	return RunCases(specs, b)
}

// Fig08HeterogeneousNetworks regenerates Fig. 8: Table II groups with Nano
// and Xavier fleets, all methods, VGG-16.
func Fig08HeterogeneousNetworks(b Budget) ([]MethodRow, error) {
	m := cnn.VGG16()
	var specs []Spec
	for _, t := range []device.Type{device.Nano, device.Xavier} {
		for _, g := range NetworkGroups() {
			specs = append(specs, g.Spec(m, t, b.Seed))
		}
	}
	return RunCases(specs, b)
}

// Fig09LargeScale regenerates Fig. 9: Table III 16-device cases, all
// methods, VGG-16.
func Fig09LargeScale(b Budget) ([]MethodRow, error) {
	m := cnn.VGG16()
	var specs []Spec
	for _, c := range LargeScaleCases() {
		specs = append(specs, c.Spec(m, b.Seed))
	}
	return RunCases(specs, b)
}

// ------------------------------------------------------- Fig. 10 / 11

// fig10Models returns the seven non-VGG models of Fig. 10/11.
func fig10Models() []*cnn.Model {
	zoo := cnn.Zoo()
	var out []*cnn.Model
	for _, name := range cnn.ZooNames() {
		if name == "vgg16" {
			continue
		}
		out = append(out, zoo[name])
	}
	return out
}

// Fig10ModelsDB regenerates Fig. 10: seven further models on Group DB at
// 50 Mbps.
func Fig10ModelsDB(b Budget) ([]MethodRow, error) {
	var specs []Spec
	for _, m := range fig10Models() {
		spec := DeviceGroups()[1].Spec(m, 50, b.Seed)
		spec.Name = m.Name + "/DB-50Mbps"
		specs = append(specs, spec)
	}
	return RunCases(specs, b)
}

// Fig11ModelsNA regenerates Fig. 11: seven further models on Group NA with
// a Nano fleet.
func Fig11ModelsNA(b Budget) ([]MethodRow, error) {
	var specs []Spec
	for _, m := range fig10Models() {
		spec := NetworkGroups()[0].Spec(m, device.Nano, b.Seed)
		spec.Name = m.Name + "/NA-nano"
		specs = append(specs, spec)
	}
	return RunCases(specs, b)
}

// ---------------------------------------------------------------- Fig. 12

// Fig12DynamicTraces regenerates the Fig. 12 traces: four highly dynamic
// 40-100 Mbps device links over 60 minutes.
func Fig12DynamicTraces(seed int64) []TraceRow {
	rows := make([]TraceRow, 0, 4)
	for i := 0; i < 4; i++ {
		tr := network.Dynamic(40, 100, 60, seed+int64(i)*31)
		rows = append(rows, traceRow(fmt.Sprintf("device-%d", i+1), tr))
	}
	return rows
}

// ---------------------------------------------------------------- Fig. 13

// TimelineRow is one time slot of Fig. 13: per-image processing latency of
// the three online-capable methods under highly dynamic networks.
type TimelineRow struct {
	MinuteSlot  int
	CoEdgeMS    float64
	AOFLMS      float64
	DistrEdgeMS float64
}

// dynamicEnv builds the Fig. 13 environment: four Nanos on the Fig. 12
// traces.
func dynamicEnv(seed int64) *sim.Env {
	net := &network.Network{Requester: network.DefaultLink(network.Stable(300, 60, seed+997))}
	for i := 0; i < 4; i++ {
		net.Providers = append(net.Providers, network.DefaultLink(network.Dynamic(40, 100, 60, seed+int64(i)*31)))
	}
	return &sim.Env{
		Model:   cnn.VGG16(),
		Devices: device.AsModels(device.Fleet(device.Nano, device.Nano, device.Nano, device.Nano)),
		Net:     net,
	}
}

// Fig13DynamicLatency regenerates Fig. 13: a 60-minute run under the
// dynamic traces. CoEdge re-solves its linear model every slot from the
// monitored throughput; AOFL re-plans at minutes 20 and 40 but its
// brute-force search keeps the old scheme for 10 minutes (Section V-F);
// DistrEdge keeps its actor online for per-slot split decisions and
// finetunes after the partition updates at minutes 20/40 (20-210 s).
func Fig13DynamicLatency(b Budget) ([]TimelineRow, error) {
	env := dynamicEnv(b.Seed)

	// Initial plans at t=0.
	aoflStrat, err := baselines.Plan(baselines.AOFL, env)
	if err != nil {
		return nil, err
	}
	trainer, err := Request{Budget: b, Alpha: 0.75}.Trainer(env)
	if err != nil {
		return nil, err
	}
	trainer.Run()
	deStrat, _ := trainer.Best()

	var rows []TimelineRow
	aoflPlannedAt := -1 // slot when AOFL started replanning
	for slot := 0; slot < 60; slot++ {
		at := float64(slot) * 60

		// CoEdge: re-solve every slot with the current monitored
		// throughput (cheap linear solve).
		coStrat, err := baselines.Plan(baselines.CoEdge, env)
		if err != nil {
			return nil, err
		}

		// AOFL: kick off a re-plan at the shift points; the new scheme
		// lands 10 minutes later.
		if slot == 20 || slot == 40 {
			aoflPlannedAt = slot
		}
		if aoflPlannedAt >= 0 && slot >= aoflPlannedAt+10 {
			aoflStrat, err = baselines.Plan(baselines.AOFL, env)
			if err != nil {
				return nil, err
			}
			aoflPlannedAt = -1
		}

		// DistrEdge: finetune at the shift points (lands within the same
		// slot: 20-210 s), otherwise query the online actor for this slot.
		if slot == 20 || slot == 40 {
			res := trainer.Finetune(env, b.Episodes/5+1)
			if res.Strategy != nil {
				deStrat = res.Strategy
			}
		}

		co, _, err := env.Latency(coStrat, at)
		if err != nil {
			return nil, err
		}
		ao, _, err := env.Latency(aoflStrat, at)
		if err != nil {
			return nil, err
		}
		de, _, err := env.Latency(deStrat, at)
		if err != nil {
			return nil, err
		}
		rows = append(rows, TimelineRow{
			MinuteSlot: slot,
			CoEdgeMS:   co * 1e3, AOFLMS: ao * 1e3, DistrEdgeMS: de * 1e3,
		})
	}
	return rows, nil
}

// TimelineSummary aggregates Fig. 13 rows into the paper's comparison: the
// mean latency per method and DistrEdge's fraction of AOFL (paper: 40-65%).
type TimelineSummary struct {
	MeanCoEdgeMS      float64
	MeanAOFLMS        float64
	MeanDistrEdgeMS   float64
	DistrEdgeOverAOFL float64
}

// Summarise computes the Fig. 13 summary statistics.
func Summarise(rows []TimelineRow) TimelineSummary {
	var s TimelineSummary
	for _, r := range rows {
		s.MeanCoEdgeMS += r.CoEdgeMS
		s.MeanAOFLMS += r.AOFLMS
		s.MeanDistrEdgeMS += r.DistrEdgeMS
	}
	n := float64(len(rows))
	s.MeanCoEdgeMS /= n
	s.MeanAOFLMS /= n
	s.MeanDistrEdgeMS /= n
	if s.MeanAOFLMS > 0 {
		s.DistrEdgeOverAOFL = s.MeanDistrEdgeMS / s.MeanAOFLMS
	}
	return s
}

// ---------------------------------------------------------------- Fig. 14

// NonlinearRow is one point of Fig. 14: compute latency of a ten-layer
// volume against its output extent on one device.
type NonlinearRow struct {
	OutputRows int
	LatencyMS  float64
}

// Fig14Nonlinear regenerates Fig. 14: the staircase relationship between
// computing latency and the output extent of a ten-layer volume (the paper
// sweeps output width 50-350; height splitting is symmetric).
func Fig14Nonlinear(devType device.Type) []NonlinearRow {
	dev := device.MustNew(devType, "probe")
	b := cnn.NewBuilder("probe", 352, 352, 64)
	for i := 0; i < 10; i++ {
		b = b.Conv(fmt.Sprintf("c%d", i), 64, 3, 1, 1)
	}
	m := b.MustBuild()
	layers := m.SplittableLayers()
	var rows []NonlinearRow
	for r := 50; r <= 350; r += 2 {
		lat := device.VolumeLatency(dev, layers, cnn.RowRange{Lo: 0, Hi: r})
		rows = append(rows, NonlinearRow{OutputRows: r, LatencyMS: lat * 1e3})
	}
	return rows
}

// Staircaseness quantifies how non-linear a Fig. 14 curve is: the fraction
// of consecutive steps with (near-)zero slope. Linear curves score ~0.
func Staircaseness(rows []NonlinearRow) float64 {
	if len(rows) < 2 {
		return 0
	}
	flat := 0
	span := rows[len(rows)-1].LatencyMS - rows[0].LatencyMS
	if span <= 0 {
		return 0
	}
	typical := span / float64(len(rows)-1)
	for i := 1; i < len(rows); i++ {
		if rows[i].LatencyMS-rows[i-1].LatencyMS < 0.1*typical {
			flat++
		}
	}
	return float64(flat) / float64(len(rows)-1)
}

// ---------------------------------------------------------------- Fig. 15

// Fig15Breakdown regenerates Fig. 15: maximum transmission latency and
// maximum computing latency among the four devices of Group DB at 50 Mbps,
// per method.
func Fig15Breakdown(b Budget) ([]MethodRow, error) {
	spec := DeviceGroups()[1].Spec(cnn.VGG16(), 50, b.Seed)
	return RunCase(spec, b)
}

// SortRows orders rows by case then by MethodOrder, for stable rendering.
func SortRows(rows []MethodRow) {
	order := map[string]int{}
	for i, m := range MethodOrder() {
		order[m] = i
	}
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].Case != rows[j].Case {
			return rows[i].Case < rows[j].Case
		}
		return order[rows[i].Method] < order[rows[j].Method]
	})
}
