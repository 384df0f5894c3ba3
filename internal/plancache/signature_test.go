package plancache

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"

	"distredge/internal/cnn"
	"distredge/internal/device"
	"distredge/internal/network"
	"distredge/internal/sim"
	"distredge/internal/strategy"
)

// sigEnv builds an env with per-provider bandwidths and stable traces.
func sigEnv(m *cnn.Model, seed int64, bws []float64, types ...device.Type) *sim.Env {
	return &sim.Env{
		Model:   m,
		Devices: device.AsModels(device.Fleet(types...)),
		Net:     network.NewStable(bws, 10, seed),
	}
}

func TestSignatureDeterministic(t *testing.T) {
	build := func() Signature {
		env := sigEnv(cnn.VGG16(), 7, []float64{100, 200, 100, 50},
			device.Xavier, device.Nano, device.TX2, device.Pi3)
		return SignatureOf(env, sim.ThroughputObjective{Window: 8})
	}
	a, b := build(), build()
	if a.Key() != b.Key() {
		t.Fatalf("same env contents produced different keys:\n%s\n%s", a.Key(), b.Key())
	}
}

func TestSignatureJitterInvariant(t *testing.T) {
	// Two Stable traces of the same nominal bandwidth differ sample by
	// sample (different seeds) but describe the same regime: the signature
	// must alias them, or recurring fleets would never hit the cache.
	a := SignatureOf(sigEnv(cnn.VGG16(), 1, []float64{200, 200}, device.Nano, device.Nano), nil)
	b := SignatureOf(sigEnv(cnn.VGG16(), 99, []float64{200, 200}, device.Nano, device.Nano), nil)
	if a.Key() != b.Key() {
		t.Fatalf("same nominal regime, different seeds, keys differ:\n%s\n%s", a.Key(), b.Key())
	}
}

// TestSignatureCollisionProperty is the collision property test: distinct
// fleets (different device multiset, order, bandwidth tier, trace regime,
// model or objective) must never alias to one key, while rebuilding the
// same fleet must.
func TestSignatureCollisionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	models := []func() *cnn.Model{cnn.VGG16, cnn.YOLOv2}
	types := []device.Type{device.Nano, device.TX2, device.Xavier, device.Pi3}
	// Bandwidth tiers a full half-octave apart, so distinct tiers always
	// land in distinct buckets.
	tiers := []float64{50, 100, 200, 400}
	objectives := []sim.Objective{nil, sim.ThroughputObjective{Window: 8}}

	type fleetCfg struct {
		model int
		devs  []int
		bw    []int
		obj   int
	}
	key := func(c fleetCfg) string {
		m := models[c.model]()
		devs := make([]device.Type, len(c.devs))
		net := &network.Network{Requester: network.DefaultLink(network.Stable(400, 10, 3))}
		for i, d := range c.devs {
			devs[i] = types[d]
			net.Providers = append(net.Providers, network.DefaultLink(network.Stable(tiers[c.bw[i]], 10, int64(i))))
		}
		env := &sim.Env{Model: m, Devices: device.AsModels(device.Fleet(devs...)), Net: net}
		return SignatureOf(env, objectives[c.obj]).Key()
	}
	canon := func(c fleetCfg) string {
		// A canonical rendering of the config itself: two configs are the
		// same fleet iff their canonical renderings are equal.
		s := string(rune('m'+c.model)) + string(rune('o'+c.obj))
		for i := range c.devs {
			s += string(rune('0'+c.devs[i])) + string(rune('0'+c.bw[i]))
		}
		return s
	}

	seen := map[string]string{} // signature key -> canonical config
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(3)
		c := fleetCfg{model: rng.Intn(len(models)), obj: rng.Intn(len(objectives))}
		for i := 0; i < n; i++ {
			c.devs = append(c.devs, rng.Intn(len(types)))
			c.bw = append(c.bw, rng.Intn(len(tiers)))
		}
		k, cc := key(c), canon(c)
		if prev, ok := seen[k]; ok && prev != cc {
			t.Fatalf("signature collision: configs %q and %q share key %s", prev, cc, k)
		}
		seen[k] = cc
		if key(c) != k {
			t.Fatalf("rebuilding config %q changed its key", cc)
		}
	}
}

func TestSignatureSpreadRegime(t *testing.T) {
	// A flat link and a highly fluctuating link of similar mean bandwidth
	// are different regimes: they plan differently, so they must not share
	// a signature. Constant traces bucket to spread 0, the 40-160 Mbps
	// random walk to 1.5-2 octaves of spread.
	flat := &sim.Env{
		Model:   cnn.VGG16(),
		Devices: device.AsModels(device.Fleet(device.Nano, device.Nano)),
		Net: &network.Network{
			Requester: network.DefaultLink(network.Constant(200)),
			Providers: []network.Link{
				network.DefaultLink(network.Constant(100)),
				network.DefaultLink(network.Constant(100)),
			},
		},
	}
	churny := &sim.Env{
		Model:   flat.Model,
		Devices: flat.Devices,
		Net: &network.Network{
			Requester: network.DefaultLink(network.Constant(200)),
			Providers: []network.Link{
				network.DefaultLink(network.Dynamic(40, 160, 10, 5)),
				network.DefaultLink(network.Dynamic(40, 160, 10, 6)),
			},
		},
	}
	a, b := SignatureOf(flat, nil), SignatureOf(churny, nil)
	if a.Key() == b.Key() {
		t.Fatalf("flat and fluctuating regimes alias to %s", a.Key())
	}
	if a.Devices[0].Spread != 0 {
		t.Fatalf("constant trace spread bucket %d, want 0", a.Devices[0].Spread)
	}
	if b.Devices[0].Spread < 1 {
		t.Fatalf("dynamic trace spread bucket %d, want >= 1", b.Devices[0].Spread)
	}
}

func TestSignatureOrderMatters(t *testing.T) {
	a := SignatureOf(sigEnv(cnn.VGG16(), 1, []float64{100, 100}, device.Xavier, device.Nano), nil)
	b := SignatureOf(sigEnv(cnn.VGG16(), 1, []float64{100, 100}, device.Nano, device.Xavier), nil)
	if a.Key() == b.Key() {
		t.Fatal("permuted fleets alias: splits are provider-indexed, order must be identity")
	}
	// ... but as a multiset they are the same fleet, so the warm-start
	// distance between them is zero.
	if d := Distance(a, b); d != 0 {
		t.Fatalf("permuted same-multiset fleets at distance %v, want 0", d)
	}
}

func TestObjectiveKeyNormalisesDefaults(t *testing.T) {
	cases := []struct {
		a, b sim.Objective
	}{
		{nil, sim.LatencyObjective{}},
		{sim.ThroughputObjective{}, sim.ThroughputObjective{Window: 4, Images: 24, Batch: 1}},
		{sim.SLOThroughputObjective{P95Sec: 0.5}, sim.SLOThroughputObjective{Window: 4, Images: 24, Batch: 1, P95Sec: 0.5}},
	}
	for i, c := range cases {
		if ObjectiveKey(c.a) != ObjectiveKey(c.b) {
			t.Errorf("case %d: %q != %q, want equal", i, ObjectiveKey(c.a), ObjectiveKey(c.b))
		}
	}
	distinct := []sim.Objective{
		nil,
		sim.ThroughputObjective{},
		sim.ThroughputObjective{Window: 8},
		sim.SLOThroughputObjective{P95Sec: 0.5},
		sim.SLOThroughputObjective{P95Sec: 0.25},
	}
	keys := map[string]int{}
	for i, o := range distinct {
		k := ObjectiveKey(o)
		if j, ok := keys[k]; ok {
			t.Errorf("objectives %d and %d alias to %q", j, i, k)
		}
		keys[k] = i
	}
}

func TestDistance(t *testing.T) {
	base := SignatureOf(sigEnv(cnn.VGG16(), 1, []float64{100, 100}, device.Xavier, device.Nano), nil)
	if d := Distance(base, base); d != 0 {
		t.Fatalf("self distance %v", d)
	}
	otherModel := SignatureOf(sigEnv(cnn.YOLOv2(), 1, []float64{100, 100}, device.Xavier, device.Nano), nil)
	if d := Distance(base, otherModel); !math.IsInf(d, 1) {
		t.Fatalf("cross-model distance %v, want +Inf", d)
	}
	otherObj := SignatureOf(sigEnv(cnn.VGG16(), 1, []float64{100, 100}, device.Xavier, device.Nano), sim.ThroughputObjective{})
	if d := Distance(base, otherObj); !math.IsInf(d, 1) {
		t.Fatalf("cross-objective distance %v, want +Inf", d)
	}
	// A warm start never crosses planners: any planner input apart is
	// +Inf and another key; equal planners (Hidden slices distinct) are 0.
	planned := base
	planned.Planner = PlannerID{Method: "DistrEdge", Episodes: 25, Hidden: []int{16, 16}, Batch: 16, RandomSplits: 20, Alpha: 0.75, Seed: 1}
	for name, perturb := range map[string]func(*PlannerID){
		"none":         func(*PlannerID) {},
		"Method":       func(p *PlannerID) { p.Method = "ObjectiveReplan" },
		"Episodes":     func(p *PlannerID) { p.Episodes = 100 },
		"Hidden":       func(p *PlannerID) { p.Hidden = []int{16, 32} },
		"HiddenDepth":  func(p *PlannerID) { p.Hidden = []int{16, 16, 16} },
		"Batch":        func(p *PlannerID) { p.Batch = 32 },
		"RandomSplits": func(p *PlannerID) { p.RandomSplits = 50 },
		"Alpha":        func(p *PlannerID) { p.Alpha = 0.3 },
		"Seed":         func(p *PlannerID) { p.Seed = 7 },
	} {
		other := planned
		other.Planner.Hidden = []int{16, 16}
		perturb(&other.Planner)
		d, same := Distance(planned, other), planned.Key() == other.Key()
		if name == "none" && (d != 0 || !same) {
			t.Errorf("equal planners: distance %v, same key %v; want 0, true", d, same)
		}
		if name != "none" && (!math.IsInf(d, 1) || same) {
			t.Errorf("%s apart: distance %v, same key %v; want +Inf, false", name, d, same)
		}
	}
	// One tier up on both links: closer than losing a device.
	shifted := SignatureOf(sigEnv(cnn.VGG16(), 1, []float64{150, 150}, device.Xavier, device.Nano), nil)
	dShift := Distance(base, shifted)
	if dShift <= 0 || dShift >= unmatchedPenalty {
		t.Fatalf("bandwidth-shift distance %v, want in (0, %d)", dShift, unmatchedPenalty)
	}
	grown := SignatureOf(sigEnv(cnn.VGG16(), 1, []float64{100, 100, 100}, device.Xavier, device.Nano, device.Nano), nil)
	if d := Distance(base, grown); d < unmatchedPenalty {
		t.Fatalf("grown-fleet distance %v, want >= %d", d, unmatchedPenalty)
	}
}

func TestWarmSeedShapes(t *testing.T) {
	m := cnn.VGG16()
	big := sigEnv(m, 1, []float64{100, 100, 100}, device.Xavier, device.Nano, device.Nano)
	small := sigEnv(m, 1, []float64{100, 100}, device.Xavier, device.Nano)
	bigSig := SignatureOf(big, nil)
	smallSig := SignatureOf(small, nil)

	sBig := &strategy.Strategy{Boundaries: strategy.SingleVolume(m)}
	h := strategy.VolumeHeight(m, sBig.Boundaries, 0)
	sBig.Splits = [][]int{strategy.EqualCuts(h, 3)}
	sSmall := &strategy.Strategy{
		Boundaries: strategy.SingleVolume(m),
		Splits:     [][]int{strategy.EqualCuts(h, 2)},
	}

	// Equal counts: the strategy transfers as-is.
	if got := warmSeed(m, bigSig, bigSig, sBig); got != sBig {
		t.Fatal("equal-count warm seed should transfer index-for-index")
	}
	// Cached fleet larger: projection onto the survivor subsequence.
	proj := warmSeed(m, smallSig, bigSig, sBig)
	if proj == nil {
		t.Fatal("projection seed missing")
	}
	if err := proj.Validate(m, 2); err != nil {
		t.Fatalf("projected seed invalid: %v", err)
	}
	// Cached fleet smaller: lift onto the larger fleet.
	lifted := warmSeed(m, bigSig, smallSig, sSmall)
	if lifted == nil {
		t.Fatal("lift seed missing")
	}
	if err := lifted.Validate(m, 3); err != nil {
		t.Fatalf("lifted seed invalid: %v", err)
	}
	// No order-preserving correspondence: Pi3 never appears in the cached
	// fleet, so nothing transfers.
	alien := SignatureOf(sigEnv(m, 1, []float64{100, 100}, device.Pi3, device.Pi3), nil)
	if got := warmSeed(m, alien, bigSig, sBig); got != nil {
		t.Fatal("warm seed across unrelated fleets should be nil")
	}
}

// TestBucketBoundaryProperty pins the half-octave bandwidth buckets at
// their edges: a link just below an edge, where round(2*log2(mean)) steps
// from k to k+1, and one just above it land in adjacent buckets. bucketDelta
// is symmetric and 0 only between signatures of one bucket, and every
// signature is at distance 0 from itself.
func TestBucketBoundaryProperty(t *testing.T) {
	edges := func(k int8, eps uint16) bool {
		edge := math.Exp2((float64(k%24) + 0.5) / 2) // 2*log2(edge) = k+0.5
		rel := 1e-9 + float64(eps)/65536*0.01        // up to 1 % either side
		below, _ := linkRegime(network.DefaultLink(network.Constant(edge * (1 - rel))))
		above, _ := linkRegime(network.DefaultLink(network.Constant(edge * (1 + rel))))
		if below != int(k%24) || above != below+1 {
			t.Logf("edge %g (k=%d) ±%g: buckets %d and %d", edge, k%24, rel, below, above)
			return false
		}
		return true
	}
	if err := quick.Check(edges, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}

	delta := func(bwA, spA, bwB, spB int8) bool {
		a := DeviceSig{BW: int(bwA), Spread: int(spA)}
		b := DeviceSig{BW: int(bwB), Spread: int(spB)}
		d := bucketDelta(a, b)
		return d == bucketDelta(b, a) && d >= 0 && (d == 0) == (a.BW == b.BW && a.Spread == b.Spread)
	}
	if err := quick.Check(delta, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}

	types := []device.Type{device.Nano, device.TX2, device.Xavier, device.Pi3}
	self := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + int(n%5)
		bws, devs := make([]float64, k), make([]device.Type, k)
		for i := range bws {
			bws[i] = 10 + 390*rng.Float64()
			devs[i] = types[rng.Intn(len(types))]
		}
		sig := SignatureOf(sigEnv(cnn.VGG16(), seed, bws, devs...), nil)
		return Distance(sig, sig) == 0
	}
	if err := quick.Check(self, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestKeyMatchesFormattedKey holds Key, which appends into one buffer, to
// an fmt rendering, byte for byte, over random signatures (negative
// regimes, empty and long fields, up to 20 devices, random planners and
// objectives), and ObjectiveKey to the fmt.Sprintf rendering it replaced.
func TestKeyMatchesFormattedKey(t *testing.T) {
	formatted := func(s Signature) string {
		p := s.Planner
		hidden := ""
		for _, h := range p.Hidden {
			hidden += fmt.Sprintf("x%d", h)
		}
		k := s.Model + "|" + s.Objective + fmt.Sprintf("|%s/e%d/h%s/b%d/r%d/a%x/s%d",
			p.Method, p.Episodes, hidden, p.Batch, p.RandomSplits, math.Float64bits(p.Alpha), p.Seed)
		for _, d := range s.Devices {
			k += fmt.Sprintf("|%s@%d~%d", d.Dev, d.BW, d.Spread)
		}
		return k + fmt.Sprintf("|req@%d~%d", s.Requester.BW, s.Requester.Spread)
	}
	formattedObjective := func(obj sim.Objective) string {
		def := func(v, d int) int {
			if v <= 0 {
				return d
			}
			return v
		}
		switch o := obj.(type) {
		case sim.ThroughputObjective:
			w := def(o.Window, 4)
			return fmt.Sprintf("ips/w%d/i%d/b%d", w, def(o.Images, 4*w+8), def(o.Batch, 1))
		case sim.SLOThroughputObjective:
			w := def(o.Window, 4)
			return fmt.Sprintf("slo/w%d/i%d/b%d/p95=%s", w, def(o.Images, 4*w+8), def(o.Batch, 1),
				strconv.FormatFloat(o.P95Sec, 'g', -1, 64))
		}
		return "latency"
	}
	rng := rand.New(rand.NewSource(1))
	regime := func() DeviceSig {
		return DeviceSig{Dev: fmt.Sprintf("%x", rng.Uint64()), BW: rng.Intn(41) - 20, Spread: rng.Intn(1 << 20)}
	}
	for i := 0; i < 500; i++ {
		var obj sim.Objective
		switch w, im, b := rng.Intn(9)-2, rng.Intn(2000)-2, rng.Intn(9)-2; rng.Intn(3) {
		case 1:
			obj = sim.ThroughputObjective{Window: w, Images: im, Batch: b}
		case 2:
			obj = sim.SLOThroughputObjective{Window: w, Images: im, Batch: b, P95Sec: rng.ExpFloat64() / 10}
		}
		if got, want := ObjectiveKey(obj), formattedObjective(obj); got != want {
			t.Fatalf("ObjectiveKey %q, fmt renders %q", got, want)
		}
		s := Signature{Model: fmt.Sprint("m", rng.Intn(3)), Objective: ObjectiveKey(obj)}
		if rng.Intn(4) > 0 {
			s.Planner = PlannerID{Method: "DistrEdge", Episodes: rng.Intn(5000), Batch: rng.Intn(128),
				RandomSplits: rng.Intn(200), Alpha: rng.Float64(), Seed: rng.Int63() - rng.Int63()}
			for h := rng.Intn(4); h > 0; h-- {
				s.Planner.Hidden = append(s.Planner.Hidden, rng.Intn(500))
			}
		}
		for d := rng.Intn(21); d > 0; d-- {
			s.Devices = append(s.Devices, regime())
		}
		s.Requester = regime()
		s.Requester.Dev = ""
		if got, want := s.Key(), formatted(s); got != want {
			t.Fatalf("Key %q, fmt renders %q", got, want)
		}
	}
}

// TestLinkRegimeMatchesTwoPass holds the one-pass linkRegime to the two
// reads it replaced, Trace.Mean and then a math.Min/math.Max scan: both
// must bucket every trace alike, on the generators' traces and on
// hand-built ones with NaN, infinities, signed zeros and negative samples.
func TestLinkRegimeMatchesTwoPass(t *testing.T) {
	twoPass := func(l network.Link) (bw, spread int) {
		tr := l.Trace
		if tr == nil || len(tr.Mbps) == 0 {
			return -1 << 20, 0
		}
		mean := tr.Mean()
		if mean <= 0 {
			return -1 << 20, 0
		}
		bw = int(math.Round(2 * math.Log2(mean)))
		lo, hi := tr.Mbps[0], tr.Mbps[0]
		for _, v := range tr.Mbps[1:] {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		if lo > 0 && hi > lo {
			spread = int(math.Round(math.Log2(hi / lo)))
		}
		return bw, spread
	}
	check := func(name string, tr *network.Trace) {
		t.Helper()
		l := network.DefaultLink(tr)
		gb, gs := linkRegime(l)
		wb, ws := twoPass(l)
		if gb != wb || gs != ws {
			t.Errorf("%s: linkRegime (%d, %d), two passes (%d, %d)", name, gb, gs, wb, ws)
		}
	}
	trace := func(mbps ...float64) *network.Trace { return &network.Trace{SlotSeconds: 1, Mbps: mbps} }

	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		bw, seed := 1+999*rng.Float64(), rng.Int63()
		check(fmt.Sprintf("Stable(%g, seed %d)", bw, seed), network.Stable(bw, 60, seed))
		check(fmt.Sprintf("Dynamic(%g, %g, seed %d)", 0.4*bw, bw, seed), network.Dynamic(0.4*bw, bw, 60, seed))
	}
	for _, mbps := range []float64{0, 1, 150, 1e308, -3} {
		check(fmt.Sprintf("Constant(%g)", mbps), network.Constant(mbps))
	}

	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	check("nil trace", nil)
	check("empty trace", trace())
	for name, tr := range map[string]*network.Trace{
		"NaN first":         trace(nan, 100, 200),
		"NaN middle":        trace(100, nan, 200),
		"NaN last":          trace(100, 200, nan),
		"only NaN":          trace(nan),
		"+Inf":              trace(100, inf, 200),
		"-Inf":              trace(100, -inf, 200),
		"+Inf and -Inf":     trace(100, inf, -inf),
		"+Inf then NaN":     trace(inf, 100, nan),
		"overflow to +Inf":  trace(1e308, 1e308, 1),
		"overflow, -Inf":    trace(1e308, 1e308, -inf),
		"+0 then -0":        trace(0, negZero, 100),
		"-0 then +0":        trace(negZero, 0, 100),
		"-0 only":           trace(negZero),
		"+0 and -0 high":    trace(100, 0, negZero, 300),
		"single sample":     trace(120),
		"negative":          trace(-5, 100, 200),
		"all negative":      trace(-5, -100),
		"negative, NaN":     trace(-5, nan, 400),
		"subnormal minimum": trace(5e-324, 100),
	} {
		check(name, tr)
	}
	// Short random mixes of the same values, every order.
	pool := []float64{nan, inf, -inf, 0, negZero, 5e-324, 1, 100, 400, 1e308, -5}
	for i := 0; i < 5000; i++ {
		mbps := make([]float64, 1+rng.Intn(5))
		for j := range mbps {
			mbps[j] = pool[rng.Intn(len(pool))]
		}
		check(fmt.Sprint(mbps), trace(mbps...))
	}
}
