package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime/debug"
	"testing"
	"time"

	"distredge"
	"distredge/internal/transport"
)

func TestPercentileIsNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{
		{0.5, 5}, {0.95, 10}, {0.9, 9}, {0.0, 1}, {1.0, 10}, {0.14, 1}, {0.16, 2},
	} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
}

func TestMedianOverWindows(t *testing.T) {
	if got := median([]float64{156, 134, 157, 156, 155}); got != 156 {
		t.Errorf("odd median = %v, want 156 (one slow window must not move it)", got)
	}
	if got := median([]float64{4, 1}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	st := overWindows("ms", []float64{3, 1, 2}, 30)
	if st.Value != 2 || st.Min != 1 || st.Max != 3 || st.Windows != 3 || st.Samples != 30 {
		t.Errorf("overWindows = %+v", st)
	}
}

func TestBetterQuartileIgnoresDisturbedWindows(t *testing.T) {
	quiet := []float64{0.70, 0.71, 0.69, 0.72, 0.70, 0.71, 0.70, 0.69, 0.71, 0.70, 0.72, 0.70}
	// A third of the slices disturbed by half as much again: the median
	// would still hold here, the point is that the quartile holds too and
	// sits on the quiet side.
	loud := append([]float64(nil), quiet...)
	for i := 0; i < 4; i++ {
		loud[i] *= 1.5
	}
	q, l := betterQuartile("ms", quiet, 100, "lower"), betterQuartile("ms", loud, 100, "lower")
	if math.Abs(l.Value-q.Value) > 0.01*q.Value {
		t.Errorf("lower quartile moved from %v to %v when a third of the slices were disturbed", q.Value, l.Value)
	}
	if l.Max < 1.0 || l.Windows != len(loud) {
		t.Errorf("betterQuartile must keep the range and the window count: %+v", l)
	}
	// Higher is better: the third quartile; of five windows the mean of the
	// best two, so two slow windows in five do not show.
	if got := betterQuartile("img/s", []float64{156, 134, 157, 120, 155}, 500, "higher").Value; got != 156.5 {
		t.Errorf("upper quartile of five windows = %v, want 156.5", got)
	}
}

func TestCPUPerOpCountsCompletionsPerSlice(t *testing.T) {
	lr := loadResult{t0: 1000, windowNS: 300, windows: 1}
	for _, ms := range []float64{0, 10, 30, 60} {
		lr.slices = append(lr.slices, usage{cpuMS: ms})
	}
	done := []int64{1000, 1099, 1100, 1150, 1199, 1299, 999, 1300} // 2, 3, 1 inside; warm-up and the tail outside
	for _, d := range done {
		lr.recs = append(lr.recs, reqRec{done: d})
	}
	lr.recs = append(lr.recs, reqRec{done: 1250, outcome: outExpired}) // never served
	got := lr.cpuPerOp()
	want := []float64{5, 20.0 / 3, 30}
	if len(got) != 3 {
		t.Fatalf("cpuPerOp = %v, want three slices", got)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("slice %d: %v ms/op, want %v", i, got[i], want[i])
		}
	}
}

func TestSteadiedPassTakesEachRequestFromItsUndisturbedPasses(t *testing.T) {
	outcomes := make([]distredge.PlanOutcome, corpusLen)
	for k := range outcomes {
		outcomes[k] = distredge.PlanHit
	}
	outcomes[0], outcomes[1] = distredge.PlanCold, distredge.PlanCold
	pass := func(slowAt int) *planPass {
		p := &planPass{outcomes: outcomes}
		for k := 0; k < corpusLen; k++ {
			ms := 10.0
			if k == slowAt {
				ms = 1000 // a slow spell of the box lands on this request
			}
			p.reqNS = append(p.reqNS, int64(ms*1e6))
			p.reqCPU = append(p.reqCPU, ms)
			p.wallNS += int64(ms * 1e6)
		}
		return p
	}
	rec := newRunRecord(wlPlanMix, runConfig{})
	planMixEndToEnd(rec, []*planPass{pass(0), pass(7), pass(30)})
	m := rec.Metrics
	if got, want := m["plans_per_sec"].Value, corpusLen/(corpusLen*10.0/1e3); math.Abs(got-want) > 1e-9 {
		t.Errorf("plans_per_sec = %v, want %v: every spell hit another request, so none may count", got, want)
	}
	if m["plans_per_sec"].Max >= m["plans_per_sec"].Value {
		t.Errorf("every whole pass was slower than the steadied one: %+v", m["plans_per_sec"])
	}
	if cpu := rec.Info["cpu_ms_per_op"].Value; cpu != 10 || m["plan_cold_p50_ms"].Value != 10 || m["latency_p95_ms"].Value != 10 {
		t.Errorf("cpu %v cold %v p95 %v, want 10 each", cpu, m["plan_cold_p50_ms"].Value, m["latency_p95_ms"].Value)
	}
}

func TestRSSWatchSeesAPeakThatIsGoneAgain(t *testing.T) {
	if rssMB() == 0 {
		t.Skip("no /proc/self/statm here")
	}
	w := watchRSS()
	before := rssMB()
	buf := make([]byte, 64<<20)
	for i := 0; i < len(buf); i += 4096 {
		buf[i] = 1
	}
	time.Sleep(5 * rssWatchEvery)
	buf = nil
	debug.FreeOSMemory()
	peak := w.peakMB()
	if peak < before+48 {
		t.Errorf("peak %v MB after touching 64 MB on top of %v MB", peak, before)
	}
}

func TestWindowPercentilePoolsSparseWindows(t *testing.T) {
	dense := func(n int, scale float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i+1) * scale
		}
		return xs
	}
	// 200 samples per window leave 10 beyond p95: per-window, then the
	// lower quartile (of three windows, the lowest).
	st := windowPercentile("ms", [][]float64{dense(200, 2), dense(200, 1), dense(200, 3)}, 0.95)
	if st.Windows != 3 || st.Value != 190 || st.Max != 570 {
		t.Errorf("supported tail: %+v, want the lower quartile of the per-window p95s (190)", st)
	}
	// 199 do not: the windows pool.
	st = windowPercentile("ms", [][]float64{dense(199, 1), dense(200, 1)}, 0.95)
	if st.Windows != 1 || st.Samples != 399 {
		t.Errorf("sparse tail: %+v, want one pooled population of 399", st)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 = quartiles([]float64{1, 2, 4}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([5, 1], n=4) == [0.0, 3.0, 6.0]
	if q1, q2, q3 = quartiles([]float64{5, 1}); q1 != 0 || q2 != 3 || q3 != 6 {
		t.Errorf("quartiles(5,1) = %v %v %v", q1, q2, q3)
	}
}

func TestHistogramQuantileWithinTwoPercent(t *testing.T) {
	var h histogram
	before := h.snapshot()
	for ns := int64(1000); ns <= 100_000; ns += 100 {
		h.add(ns)
	}
	got, n := histQuantile(before, h.snapshot(), 0.5)
	if n != 991 || math.Abs(got/50_500-1) > 0.025 {
		t.Errorf("p50 = %v over %d samples, want 50500 within 2.5 %%", got, n)
	}
}

func TestOpenScheduleIsAPureFunctionOfTheSeed(t *testing.T) {
	const warm, window, windows = int64(time.Second), int64(3 * time.Second), 5
	a, b := openSchedule(7, warm, window, windows), openSchedule(7, warm, window, windows)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two schedules")
	}
	if reflect.DeepEqual(a, openSchedule(8, warm, window, windows)) {
		t.Fatal("two seeds gave the same schedule")
	}
	// Every window offers every light tenant exactly rate x span requests,
	// and the whole mix is 93 requests/s.
	perWindow := make(map[[2]int]int)
	for i, arr := range a {
		if i > 0 && arr.due < a[i-1].due {
			t.Fatal("schedule is not in due order")
		}
		if arr.due >= warm {
			perWindow[[2]int{arr.tenant, int((arr.due - warm) / window)}]++
		}
	}
	for lt := 1; lt <= lightTenants; lt++ {
		for w := 0; w < windows; w++ {
			if got := perWindow[[2]int{lt, w}]; got != 9 {
				t.Fatalf("light tenant %d window %d: %d arrivals, want 9", lt, w, got)
			}
		}
	}
	measured := 0
	for _, arr := range a {
		if arr.due >= warm {
			measured++
		}
	}
	if rate := float64(measured) / 15; math.Abs(rate-93) > 1 {
		t.Errorf("offered load %v req/s, want 93", rate)
	}
}

func TestCorpusIsAPureFunctionOfTheSeed(t *testing.T) {
	a, b := buildCorpus(3), buildCorpus(3)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two corpora")
	}
	other := buildCorpus(4)
	if reflect.DeepEqual(a.Sequence, other.Sequence) {
		t.Fatal("two seeds gave the same request order")
	}
	if !reflect.DeepEqual(a.Fleets, other.Fleets) {
		t.Fatal("the fleets must not depend on the seed")
	}
	if len(a.Fleets) != 2*corpusBase || len(a.Sequence) != corpusLen {
		t.Fatalf("%d fleets, %d requests", len(a.Fleets), len(a.Sequence))
	}
	distinct := make(map[string]bool)
	for _, f := range a.Fleets {
		key := f.combo()
		for _, p := range f.Providers {
			key += fmt.Sprintf("|%s:%.1f", p.Type, p.BandwidthMbps)
		}
		if distinct[key] {
			t.Fatalf("fleet %s duplicates another", f.Name)
		}
		distinct[key] = true
	}
	for seed := int64(1); seed <= 20; seed++ {
		c := buildCorpus(seed)
		counts := make(map[distredge.PlanOutcome]int)
		firstSeen := make(map[string][]int)
		seen := make(map[int]bool)
		for i, o := range c.expectedOutcomes() {
			counts[o]++
			if f := c.Sequence[i]; !seen[f] {
				seen[f] = true
				firstSeen[c.Fleets[f].combo()] = append(firstSeen[c.Fleets[f].combo()], f)
			}
		}
		if counts[distredge.PlanCold] != 8 || counts[distredge.PlanWarm] != 16 || counts[distredge.PlanHit] != 36 {
			t.Fatalf("seed %d: outcomes %v, want 8 cold, 16 warm, 36 hits", seed, counts)
		}
		// Every seed plans the same searches: within a combination the fleets
		// first appear in corpus order.
		for combo, order := range firstSeen {
			for i := 1; i < len(order); i++ {
				if order[i] < order[i-1] {
					t.Fatalf("seed %d: combination %s misses in order %v", seed, combo, order)
				}
			}
		}
	}
}

// The decorator over a tcp stack must leave the runtime on the code path it
// takes without it.
func TestDecoratorKeepsTheStacksCapabilities(t *testing.T) {
	rec := newWireRec()
	tcp, err := distredge.ParseTransport("tcp")
	if err != nil {
		t.Fatal(err)
	}
	var tr transport.Transport = &tracedTransport{inner: tcp, rec: rec, counts: true, timeline: true}
	if _, ok := tr.(transport.PayloadPool); !ok {
		t.Error("decorated tcp lost PayloadPool")
	}
	if _, ok := tr.(transport.BufferSizer); !ok {
		t.Error("decorated tcp lost BufferSizer")
	}
	if wc, ok := tr.(transport.WireCodec); !ok || wc.WireCodec() == nil {
		t.Error("decorated tcp lost WireCodec")
	}
	ln, err := tr.Listen(transport.Requester)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan transport.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			t.Error(err)
		}
		accepted <- c
	}()
	dialled, err := tr.Dial(0, ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer dialled.Close()
	server := <-accepted
	if server == nil {
		t.FailNow()
	}
	defer server.Close()
	for name, c := range map[string]transport.Conn{"dialled": dialled, "accepted": server} {
		if _, ok := c.(transport.BatchConn); !ok {
			t.Errorf("%s tcp conn lost BatchConn behind the decorator", name)
		}
	}

	// A burst through the Coalescer shares flushes.
	const burst = 32
	co := transport.NewCoalescer(dialled)
	for i := 0; i < burst; i++ {
		payload := transport.GetPayload(tr, 512)
		if err := co.Send(transport.Message{Image: 1, Volume: 0, Lo: int32(i), Hi: int32(i + 1), Payload: payload}, i < burst-1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < burst; i++ {
		m, err := server.Recv()
		if err != nil {
			t.Fatal(err)
		}
		transport.RecyclePayload(tr, m.Payload)
	}
	if got := rec.msgs.Load(); got != burst {
		t.Errorf("decorator counted %d messages, want %d", got, burst)
	}
	if per := float64(rec.flushes.Load()) / burst; per >= 1 {
		t.Errorf("flushes_per_msg = %v on a burst, want < 1", per)
	}
	if got := rec.ledger.Load(); got != 0 {
		t.Errorf("payload ledger = %d after every buffer was sent or recycled, want 0", got)
	}
	if got := rec.payloadBytes.Load(); got != burst*512 {
		t.Errorf("payload bytes = %d, want %d", got, burst*512)
	}

	// A stack without deferred flushes must not grow them.
	inproc, err := distredge.ParseTransport("inproc")
	if err != nil {
		t.Fatal(err)
	}
	plain := &tracedTransport{inner: inproc, rec: newWireRec(), counts: true, timeline: true}
	iln, err := plain.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	defer iln.Close()
	go func() {
		if _, err := iln.Accept(); err != nil {
			t.Error(err)
		}
	}()
	ic, err := plain.Dial(1, iln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer ic.Close()
	if _, ok := ic.(transport.BatchConn); ok {
		t.Error("decorated inproc conn claims BatchConn")
	}
}

// Every workload runs end to end, untraced and traced, on tiny budgets:
// `go test ./...` keeps the benchmark building and its checks passing.
func TestSmokeEveryWorkload(t *testing.T) {
	outDir = t.TempDir()
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{seed: 1, seconds: 0.25, traced: traced, smoke: true}
			start := time.Now()
			rec, err := runWorkload(name, cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			t.Logf("%s traced=%v: %d attempted, %v", name, traced, rec.Attempted, time.Since(start).Round(time.Millisecond))
			for _, v := range rec.Violations {
				t.Errorf("%s traced=%v: %s", name, traced, v)
			}
			if rec.Attempted < 1 || rec.Failed != 0 {
				t.Errorf("%s traced=%v: attempted %d, failed %d", name, traced, rec.Attempted, rec.Failed)
			}
			line := contractLine(rec)
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(line.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics in the result object, want %d", name, traced, len(line.Metrics), len(defs))
			}
			if !traced {
				for _, d := range defs {
					if _, ok := rec.Metrics[d.Name]; !ok {
						t.Errorf("%s: end-to-end metric %s missing", name, d.Name)
					}
				}
			}
			if _, err := json.Marshal(line); err != nil {
				t.Errorf("%s traced=%v: result object does not encode: %v", name, traced, err)
			}
		}
	}
}

func TestContractLineNeedsEveryEndToEndMetric(t *testing.T) {
	rec := newRunRecord(wlWireSmall, runConfig{seconds: 1})
	rec.Attempted = 10
	for _, d := range endToEnd {
		rec.Metrics[d.Name] = exact(d.Unit, 1, 1)
	}
	if line := contractLine(rec); !line.Correct || len(line.Metrics) != len(endToEnd) {
		t.Errorf("complete record: %+v", line)
	}
	delete(rec.Metrics, "images_per_sec")
	if line := contractLine(rec); line.Correct {
		t.Error("a record without images_per_sec passed as correct")
	}
}

func TestJudge(t *testing.T) {
	mk := func(vals ...float64) side { return summarise(overWindows("ms", vals, len(vals))) }
	steadyA := mk(100, 100.5, 99.5, 100.2, 99.8)
	for _, c := range []struct {
		name   string
		b      side
		better string
		want   string
	}{
		{"same", mk(101, 101.5, 100.5, 101.2, 100.8), "lower", verdictSame},
		{"worse", mk(110, 110.5, 109.5, 110.2, 109.8), "lower", verdictWorse},
		{"better", mk(90, 90.5, 89.5, 90.2, 89.8), "lower", verdictBetter},
		{"higher is better", mk(110, 110.5, 109.5, 110.2, 109.8), "higher", verdictBetter},
		{"noisy", mk(80, 120, 100, 140, 60), "lower", verdictUnresolved},
		{"noisy but every window wins", mk(50, 70, 60, 80, 40), "lower", verdictBetter},
	} {
		if got, _ := judge(steadyA, c.b, c.better, 0.05); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareResultsPrintsEveryPair(t *testing.T) {
	mkFile := func(scale float64) *resultFile {
		rf := &resultFile{}
		for _, name := range workloadNames {
			rec := newRunRecord(name, runConfig{seconds: 1})
			for _, d := range endToEnd {
				rec.Metrics[d.Name] = overWindows(d.Unit, []float64{scale, scale * 1.001, scale * 0.999}, 3)
			}
			rf.Runs = append(rf.Runs, rec)
		}
		return rf
	}
	var out bytes.Buffer
	if code := compareResults(mkFile(1), mkFile(1), &out); code != 0 {
		t.Errorf("identical files compare with exit %d", code)
	}
	if lines := bytes.Count(out.Bytes(), []byte("\n")); lines != 1+len(workloadNames)*len(endToEnd) {
		t.Errorf("%d lines, want a header and %d pairs", lines, len(workloadNames)*len(endToEnd))
	}
	out.Reset()
	// Doubling everything is worse for the lower-is-better metrics.
	if code := compareResults(mkFile(1), mkFile(2), &out); code != 1 {
		t.Errorf("a 2x regression compares with exit %d", code)
	}
}

// BENCHMARK.json is what the acceptance driver reads; catalog.go is what
// the program prints and compares with. They must not drift apart.
func TestBenchmarkJSONMatchesTheCatalog(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the package: %v", err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloadNames))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadNames[i] || w.Why != workloadWhy[w.Name] {
			t.Errorf("workload %d: %q / %q differs from the program's %q / %q", i, w.Name, w.Why, workloadNames[i], workloadWhy[workloadNames[i]])
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("metric counts: %d/%d in BENCHMARK.json, %d/%d in the program", len(doc.EndToEnd), len(doc.PerLayer), len(endToEnd), len(perLayer))
	}
	sawSetup := false
	for i, m := range doc.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: %+v differs from the program's %+v", i, m, d)
		}
		for w, b := range d.On {
			if b > d.Bound {
				t.Errorf("%s: the bound on %s (%v) is looser than the metric's (%v)", d.Name, w, b, d.Bound)
			}
		}
		sawSetup = sawSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !sawSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for i, m := range doc.PerLayer {
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d: %+v differs from the program's %+v", i, m, d)
		}
	}
}
