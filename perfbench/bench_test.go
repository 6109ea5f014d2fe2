package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"bgpvr/internal/core"
	"bgpvr/internal/img"
	"bgpvr/internal/machine"
)

func TestPercentileNearestRank(t *testing.T) {
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for _, c := range []struct{ p, want float64 }{
		{1, 1}, {10, 1}, {11, 2}, {50, 5}, {51, 6}, {90, 9}, {99, 10}, {100, 10},
	} {
		if got := percentile(ten, c.p); got != c.want {
			t.Errorf("p%g of 1..10 = %g, want %g", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples is not NaN")
	}
}

// No percentile may exceed the slowest sample or fall below the
// fastest, however the samples are spread; each is one of the samples.
func TestPercentileWithinSamples(t *testing.T) {
	sets := [][]float64{
		{43.87},
		{1, 1, 1, 1},
		{0.001, 1e9},
		{5, 5, 5, 5, 5, 5, 5, 5, 5, 43.87},
		{43.87, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1},
		{-3, 0, 2.5, 64, 63.99, 64.0000001},
		{3, 1, 2},
	}
	for _, s := range sets {
		lo, hi := s[0], s[0]
		member := map[float64]bool{}
		for _, v := range s {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
			member[v] = true
		}
		prev := math.Inf(-1)
		for _, p := range []float64{0.1, 1, 25, 50, 75, 90, 99, 99.9, 100} {
			v := percentile(s, p)
			if v > hi || v < lo || !member[v] {
				t.Errorf("p%g of %v = %g, outside the samples", p, s, v)
			}
			if v < prev {
				t.Errorf("p%g of %v = %g is below a lower percentile's %g", p, s, v, prev)
			}
			prev = v
		}
	}
}

func TestPercentileLeavesInputUnsorted(t *testing.T) {
	s := []float64{3, 1, 2}
	percentile(s, 50)
	if s[0] != 3 || s[1] != 1 || s[2] != 2 {
		t.Errorf("percentile reordered its input: %v", s)
	}
}

func TestMixSequenceFollowsSeed(t *testing.T) {
	const n = 4000
	seq := func(seed int64) []mixReq {
		out := make([]mixReq, n)
		for i := range out {
			out[i] = mixAt(seed, i)
		}
		return out
	}
	a, b, c := seq(7), seq(7), seq(8)
	differs := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 7 gave request %d as %+v, then %+v", i, a[i], b[i])
		}
		differs = differs || a[i] != c[i]
	}
	if !differs {
		t.Error("seeds 7 and 8 gave the same sequence")
	}
	var model, real, image int
	azimuths := map[float64]int{}
	for _, r := range a {
		azimuths[r.azimuth]++
		switch {
		case r.model:
			model++
		case r.image:
			image++
			real++
		default:
			real++
		}
	}
	if len(azimuths) != azimuthPool {
		t.Errorf("sequence used %d azimuths, want the pool of %d", len(azimuths), azimuthPool)
	}
	if f := float64(model) / n; math.Abs(f-1.0/modelOneIn) > 0.03 {
		t.Errorf("model share %.3f, want about 1/%d", f, modelOneIn)
	}
	if f := float64(image) / float64(real); math.Abs(f-1.0/imageOneIn) > 0.03 {
		t.Errorf("image share of real requests %.3f, want about 1/%d", f, imageOneIn)
	}
}

func TestSameImageIsBitExact(t *testing.T) {
	a := img.New(4, 3)
	a.Set(1, 2, img.RGBA{R: 0.5, G: 0.25, B: 0.125, A: 1})
	b := a.Clone()
	if !sameImage(a, b) {
		t.Fatal("an image differs from its clone")
	}
	b.Pix[7].G = math.Nextafter32(b.Pix[7].G, 1)
	if sameImage(a, b) {
		t.Error("a one-ulp change went unnoticed")
	}
	if sameImage(a, img.New(3, 4)) || sameImage(a, nil) {
		t.Error("images of different shapes compare equal")
	}
}

// The metric tables must describe exactly what BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []def, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics here, %d in BENCHMARK.json", kind, len(got), len(want))
		}
		for i, d := range got {
			if d.name != want[i].Name || d.unit != want[i].Unit {
				t.Errorf("%s[%d]: %s (%s) here, %s (%s) in BENCHMARK.json", kind, i, d.name, d.unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads here, %d in BENCHMARK.json", len(workloads), len(spec.Workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %s here, %s in BENCHMARK.json", i, w.name, spec.Workloads[i].Name)
		}
	}
	layers := map[string]bool{}
	for _, d := range perLayer {
		layers[d.name] = true
	}
	for _, name := range countMetrics {
		if !layers[name] {
			t.Errorf("count metric %s is not a per-layer metric", name)
		}
	}
}

// countMetrics are the per-layer metrics that count work rather than
// time it; they must repeat exactly for the same inputs.
var countMetrics = []string{
	"mpiio.physical_mb", "mpiio.accesses", "render.samples",
	"compose.messages", "compose.mb", "flowsim.events", "flowsim.msgs",
}

// tracedCounts runs a traced window on st and returns the count
// metrics it reported.
func tracedCounts(t *testing.T, st state) map[string]float64 {
	t.Helper()
	res := newResult()
	if err := st.run(time.Now(), nil, res); err != nil {
		t.Fatal(err)
	}
	if err := st.run(time.Now(), newRecorder(), res); err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 {
		t.Fatalf("%d of %d operations failed: %q", res.failed, res.attempted, res.failures)
	}
	out := map[string]float64{}
	for _, name := range countMetrics {
		if v, ok := res.values[name]; ok {
			out[name] = v
		}
	}
	return out
}

// Work counts depend only on the inputs: two traced runs of the same
// frame (read through MPI-IO, so every frame count is exercised) must
// report identical counts.
func TestFrameCountsRepeat(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	s := core.DefaultScene(32, 64)
	s.Seed = 11
	s.RenderWorkers = 1
	st, err := setupFrameFile(s, frameProcs)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	first, second := tracedCounts(t, st), tracedCounts(t, st)
	for _, name := range []string{"render.samples", "compose.messages", "compose.mb", "mpiio.physical_mb", "mpiio.accesses"} {
		if first[name] <= 0 {
			t.Errorf("%s = %v, want a positive count", name, first[name])
		}
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("counts changed between runs:\n%v\n%v", first, second)
	}
}

func TestFlowCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 2048-rank flow kernel twice")
	}
	st := &exhibitsState{mach: machine.NewBGP(), workers: 2}
	var counts [2][2]int
	for i := range counts {
		if err := st.flowPass(i, newRecorder()); err != nil {
			t.Fatal(err)
		}
		counts[i] = [2]int{st.flow.events, st.flow.msgs}
	}
	if counts[0] != counts[1] || counts[0][0] <= 0 || counts[0][1] <= 0 {
		t.Errorf("flow kernel counts %v then %v", counts[0], counts[1])
	}
}

func TestBaselineMatchesScorecard(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates the fidelity scorecard")
	}
	b, err := loadBaseline("../" + baselinePath)
	if err != nil {
		t.Fatal(err)
	}
	st := &exhibitsState{mach: machine.NewBGP(), baseline: b, workers: 2}
	if err := st.tracedPass(0, newRecorder()); err != nil {
		t.Fatal(err)
	}
}

func TestHeapPeakCoversOperation(t *testing.T) {
	t0 := time.Now()
	h := &heapSampler{t0: t0,
		at:    []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond},
		bytes: []float64{5, 1, 3, 9}}
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	for _, c := range []struct {
		from, to int
		want     float64
	}{
		{12, 18, 1}, // only the reading in force at the start
		{12, 25, 3}, // plus one taken during the operation
		{0, 29, 5},  // the reading at the start itself
		{21, 40, 9}, // the last reading
		{-5, 0, 5},  // an operation before the first reading sees it
		{31, 31, 9}, // after the last reading, the last one is in force
	} {
		if got := h.peak(at(c.from), at(c.to)); got != c.want {
			t.Errorf("peak over [%d, %d] ms = %v, want %v", c.from, c.to, got, c.want)
		}
	}
}

// A short serve-mix window, untraced then traced, must send requests
// from every client without a failed reply, hit the warm field cache
// on every real request, and report the service's per-layer values.
func TestServeMixWindow(t *testing.T) {
	st, err := setupServeMix(3)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	res := newResult()
	if err := st.run(time.Now().Add(300*time.Millisecond), nil, res); err != nil {
		t.Fatal(err)
	}
	if err := st.run(time.Now().Add(300*time.Millisecond), newRecorder(), res); err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 || res.attempted == 0 {
		t.Fatalf("%d of %d requests failed: %q", res.failed, res.attempted, res.failures)
	}
	for _, name := range []string{"p50_ms", "p90_ms", "ops_per_s", "serve.real_p50_ms", "model.run_ms", "torus.phase_ms"} {
		if res.values[name] <= 0 {
			t.Errorf("%s = %v, want a positive value", name, res.values[name])
		}
	}
	if r := res.values["serve.field_cache_hit_ratio"]; r != 1 {
		t.Errorf("field cache hit ratio %v after warm-up, want 1", r)
	}
}
