package main

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// mb is the byte size of the MB unit the benchmark reports (MiB).
const mb = 1 << 20

// def names one metric the benchmark reports and its unit. The two
// lists mirror BENCHMARK.json (a test keeps them equal).
type def struct{ name, unit string }

// endToEnd is what a user of bgpvr sees; every workload reports each
// of them from an untraced run. An operation is one frame (frame-gen,
// frame-cdf), one client-observed request (serve-mix), or one
// regeneration of the paper exhibits (exhibits).
var endToEnd = []def{
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"peak_heap_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer comes from the traced run. A layer the workload does not
// call reports 0.
var perLayer = []def{
	{"volume.generate_ms", "ms"},
	{"volume.ns_per_voxel", "ns"},
	{"mpiio.read_ms", "ms"},
	{"mpiio.physical_mb", "MB"},
	{"mpiio.accesses", "count"},
	{"mpiio.density", "ratio"},
	{"mpiio.plan_ms", "ms"},
	{"netcdf.decode_ms", "ms"},
	{"render.ms", "ms"},
	{"render.samples", "count"},
	{"render.ns_per_sample", "ns"},
	{"compose.ms", "ms"},
	{"compose.messages", "count"},
	{"compose.mb", "MB"},
	{"core.io_ms", "ms"},
	{"core.render_ms", "ms"},
	{"core.composite_ms", "ms"},
	{"core.other_ms", "ms"},
	{"serve.real_p50_ms", "ms"},
	{"serve.model_p50_ms", "ms"},
	{"serve.overhead_ms", "ms"},
	{"serve.field_cache_hit_ratio", "ratio"},
	{"serve.rejected", "count"},
	{"serve.deadline_expired", "count"},
	{"model.run_ms", "ms"},
	{"torus.phase_ms", "ms"},
	{"bench.fig3_ms", "ms"},
	{"bench.fig4_ms", "ms"},
	{"bench.fig5_ms", "ms"},
	{"bench.fig6_ms", "ms"},
	{"bench.fig7_ms", "ms"},
	{"bench.table2_ms", "ms"},
	{"fidelity.score_ms", "ms"},
	{"flowsim.simulate_ms", "ms"},
	{"flowsim.events", "count"},
	{"flowsim.events_per_s", "1/s"},
	{"flowsim.msgs", "count"},
	{"go.alloc_mb_per_op", "MB"},
	{"go.gc_pause_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
}

// window is what one measuring window produced: every operation that
// passed its checks, and the window's length.
type window struct {
	ops     []op
	elapsed time.Duration
}

// op is one operation that passed its checks.
type op struct {
	start time.Time
	dur   time.Duration
}

func (w *window) add(start time.Time, dur time.Duration) { w.ops = append(w.ops, op{start, dur}) }

// ms is the wall time of every operation in ms.
func (w window) ms() []float64 {
	out := make([]float64, len(w.ops))
	for i, o := range w.ops {
		out[i] = msOf(o.dur)
	}
	return out
}

func (w window) perSecond() float64 {
	if w.elapsed <= 0 {
		return 0
	}
	return float64(len(w.ops)) / w.elapsed.Seconds()
}

// result accumulates one invocation's counts and metrics.
type result struct {
	attempted, failed int
	heap              *heapSampler // nil: peak_heap_mb is not measured
	values            map[string]float64
	// percentiles records each percentile reported with the number of
	// samples behind it, for the detail line.
	percentiles map[string]int
	failures    []string
}

func newResult() *result {
	return &result{values: map[string]float64{}, percentiles: map[string]int{}}
}

func (r *result) set(name string, v float64) { r.values[name] = v }

// setPct reports the nearest-rank percentile p of samples as name; no
// samples leave the metric unmeasured.
func (r *result) setPct(name string, samples []float64, p float64) {
	if len(samples) == 0 {
		return
	}
	r.values[name] = percentile(samples, p)
	r.percentiles[name] = len(samples)
}

// fail counts one failed operation and keeps the first few reasons.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// endWindow records an untraced window's end-to-end metrics.
// peak_heap_mb is the median over operations of the highest live heap
// seen while each ran. The live heap is what the last collection found
// reachable; the heap in use also holds garbage whose amount depends on
// how far allocation outran a concurrent collection, which the host's
// speed sets, and the single highest reading of a window depends on
// where collections fall relative to large buffers.
func (r *result) endWindow(w window) {
	ms := w.ms()
	r.setPct("p50_ms", ms, 50)
	r.setPct("p90_ms", ms, 90)
	r.set("ops_per_s", w.perSecond())
	if r.heap == nil {
		return
	}
	peaks := make([]float64, len(w.ops))
	for i, o := range w.ops {
		peaks[i] = r.heap.peak(o.start, o.start.Add(o.dur)) / mb
	}
	r.setPct("peak_heap_mb", peaks, 50)
}

// detail is the JSON line printed before the result: the run's
// provenance, every value with the number of samples behind each
// percentile, and the first failure reasons.
func (r *result) detail(prov provenance) string {
	b, _ := json.Marshal(map[string]any{"detail": map[string]any{ // maps of finite numbers always marshal
		"provenance": prov, "values": r.values, "samples": r.percentiles, "failures": r.failures,
	}})
	return string(b)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// final is the result line. An end-to-end metric the workload did not
// produce is an error; a per-layer one the workload does not exercise
// reads 0.
func (r *result) final(traced bool) (string, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	m := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok && !traced {
			return "", fmt.Errorf("metric %s was not measured; failures: %q", d.name, r.failures)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s is %v", d.name, v)
		}
		m[d.name] = metricValue{v, d.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, m})
	return string(b), err
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// of samples: the smallest sample with at least p% of the samples at
// or below it. It is always one of the samples, so it never exceeds
// the maximum. It returns NaN for no samples.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	rank = min(max(rank, 1), len(s))
	return s[rank-1]
}

func median(samples []float64) float64 { return percentile(samples, 50) }

// heapSampler records the live Go heap (the bytes the last collection
// marked reachable) every heapTick by polling runtime/metrics, which
// does not stop the world.
type heapSampler struct {
	t0    time.Time
	stopc chan struct{}
	done  chan struct{}
	mu    sync.Mutex
	at    []time.Duration // since t0
	bytes []float64
}

const heapTick = 2 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{t0: time.Now(), stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(heapTick)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.mu.Lock()
			h.at = append(h.at, time.Since(h.t0))
			h.bytes = append(h.bytes, float64(s[0].Value.Uint64()))
			h.mu.Unlock()
			select {
			case <-h.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// peak is the highest reading in bytes from the one in force at start
// through end.
func (h *heapSampler) peak(start, end time.Time) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	from, to := start.Sub(h.t0), end.Sub(h.t0)
	i := sort.Search(len(h.at), func(i int) bool { return h.at[i] > from })
	i = max(i-1, 0)
	p := 0.0
	for ; i < len(h.at) && h.at[i] <= to; i++ {
		p = max(p, h.bytes[i])
	}
	return p
}

// stop ends sampling and waits for the sampler to exit.
func (h *heapSampler) stop() {
	close(h.stopc)
	<-h.done
}

// recorder keeps spans in memory for the traced run. A span covers
// one call the benchmark makes into a layer; the benchmark never nests
// them, so a span's self time is its duration. op identifies the
// operation (frame, request, exhibit pass) that caused the span and
// track the rank or client that ran it.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

type span struct {
	Layer   string  `json:"layer"`
	Op      int     `json:"op"`
	Track   int     `json:"track"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin starts a span and returns the function that ends it. A nil
// recorder records nothing.
func (r *recorder) begin(layer string, op, track int) func() {
	if r == nil {
		return func() {}
	}
	start := time.Now()
	return func() {
		end := time.Now()
		r.mu.Lock()
		r.spans = append(r.spans, span{layer, op, track,
			float64(start.Sub(r.t0).Nanoseconds()) / 1e3, float64(end.Sub(start).Nanoseconds()) / 1e3})
		r.mu.Unlock()
	}
}

// layerMs is a layer's self time per operation in ms: for each
// operation, the slowest track's total time in the layer's spans.
func (r *recorder) layerMs(layer string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	type key struct{ op, track int }
	per := map[key]float64{}
	for _, s := range r.spans {
		if s.Layer == layer {
			per[key{s.Op, s.Track}] += s.DurUS / 1e3
		}
	}
	slowest := map[int]float64{}
	for k, v := range per {
		slowest[k.op] = max(slowest[k.op], v)
	}
	out := make([]float64, 0, len(slowest))
	for _, v := range slowest {
		out = append(out, v)
	}
	return out
}

// setLayer reports the median over operations of a layer's self time.
func (r *result) setLayer(rec *recorder, name, layer string) {
	r.setPct(name, rec.layerMs(layer), 50)
}
