package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// TestPrometheusGolden pins the text exposition format and its stable
// name-sorted ordering.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("test_ops_total", "Operations performed.")
	c.Add(41)
	c.Inc()
	g := r.NewGauge("test_depth", "Current depth.")
	g.Set(2.5)
	r.NewGaugeFunc("test_cores", "Cores available.", func() float64 { return 4 })
	h := r.NewHistogram("test_sizes", "Sizes observed.", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(5)
	h.Observe(100)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP test_cores Cores available.
# TYPE test_cores gauge
test_cores 4
# HELP test_depth Current depth.
# TYPE test_depth gauge
test_depth 2.5
# HELP test_ops_total Operations performed.
# TYPE test_ops_total counter
test_ops_total 42
# HELP test_sizes Sizes observed.
# TYPE test_sizes histogram
test_sizes_bucket{le="1"} 1
test_sizes_bucket{le="10"} 3
test_sizes_bucket{le="+Inf"} 4
test_sizes_sum 110.5
test_sizes_count 4
`
	if b.String() != want {
		t.Errorf("exposition mismatch:\n got:\n%s\nwant:\n%s", b.String(), want)
	}
}

// TestRegistryReRegister pins the get-or-create contract: same name
// and kind share an instance, a kind clash panics.
func TestRegistryReRegister(t *testing.T) {
	r := NewRegistry()
	a := r.NewCounter("x_total", "x")
	b := r.NewCounter("x_total", "x")
	if a != b {
		t.Error("re-registering a counter returned a new instance")
	}
	defer func() {
		if recover() == nil {
			t.Error("kind clash did not panic")
		}
	}()
	r.NewGauge("x_total", "x")
}

// TestRegistryConcurrent hammers every metric kind from concurrent
// writers while readers snapshot — the -race leg of CI runs this with
// the detector on; here we check the totals land exactly.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("conc_ops_total", "ops")
	g := r.NewGauge("conc_gauge", "g")
	h := r.NewHistogram("conc_sizes", "sizes", []float64{8, 64, 512})
	const workers, perWorker = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Add(1)
				g.Set(float64(i))
				h.Observe(float64(i % 1000))
				if i%512 == 0 {
					_ = r.Snapshot()
					var b strings.Builder
					_ = r.WritePrometheus(&b)
				}
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	var count float64
	for _, s := range r.Snapshot() {
		if s.Name == "conc_sizes_count" {
			count = s.Value
		}
	}
	if count != workers*perWorker {
		t.Errorf("histogram count = %v, want %d", count, workers*perWorker)
	}
}

// TestHistogramSum checks the CAS-folded sum survives concurrency.
func TestHistogramSum(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("sum_sizes", "sizes", []float64{10})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(1)
			}
		}()
	}
	wg.Wait()
	for _, s := range r.Snapshot() {
		if s.Name == "sum_sizes_sum" && s.Value != 4000 {
			t.Errorf("sum = %v, want 4000", s.Value)
		}
	}
}

// TestHistogramQuantile pins the monotone-interpolation quantile
// estimator's edge cases: empty, single bucket, interpolation inside a
// bucket, the +Inf overflow bucket, and out-of-range q.
func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()

	empty := r.NewHistogram("q_empty", "e", []float64{1, 2})
	if v := empty.Quantile(0.5); !math.IsNaN(v) {
		t.Errorf("empty histogram Quantile(0.5) = %v, want NaN", v)
	}

	// Single finite bucket: 4 observations land in (0, 10]; quantiles
	// interpolate linearly from the bucket's lower edge (0), then clamp
	// into the observed range [2, 8].
	single := r.NewHistogram("q_single", "s", []float64{10})
	for _, v := range []float64{2, 4, 6, 8} {
		single.Observe(v)
	}
	if v := single.Quantile(0.5); v != 5 {
		t.Errorf("single-bucket Quantile(0.5) = %v, want 5", v)
	}
	if v := single.Quantile(0.1); v != 2 {
		t.Errorf("single-bucket Quantile(0.1) = %v, want 2 (the minimum)", v)
	}
	if v := single.Quantile(1); v != 8 {
		t.Errorf("single-bucket Quantile(1) = %v, want 8 (the maximum)", v)
	}

	// Uniform fill of (0,1],(1,2],(2,4]: the median sits exactly at a
	// bucket edge, and the top rank clamps to the largest observation.
	h := r.NewHistogram("q_uniform", "u", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 0.5, 1.5, 1.5, 3, 3} {
		h.Observe(v)
	}
	if v := h.Quantile(0.5); v != 1.5 {
		t.Errorf("Quantile(0.5) = %v, want 1.5", v)
	}
	if v := h.Quantile(1.0 / 6); v != 0.5 {
		t.Errorf("Quantile(1/6) = %v, want 0.5", v)
	}
	if v := h.Quantile(1); v != 3 {
		t.Errorf("Quantile(1) = %v, want 3 (the maximum)", v)
	}
	// Monotone in q.
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.05 {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("Quantile not monotone: q=%.2f gave %v after %v", q, v, prev)
		}
		prev = v
	}

	// Observations past the last finite bound land in +Inf: the bucket
	// estimate is the highest finite bound, which lies below every
	// observation, so it clamps up to the minimum observed.
	over := r.NewHistogram("q_over", "o", []float64{1, 2})
	over.Observe(100)
	over.Observe(200)
	if v := over.Quantile(0.99); v != 100 {
		t.Errorf("overflow-bucket Quantile(0.99) = %v, want 100 (the minimum)", v)
	}

	if v := h.Quantile(-0.1); !math.IsNaN(v) {
		t.Errorf("Quantile(-0.1) = %v, want NaN", v)
	}
	if v := h.Quantile(1.1); !math.IsNaN(v) {
		t.Errorf("Quantile(1.1) = %v, want NaN", v)
	}
}

// TestHistogramQuantileWithinObservedRange is the adversarial case for
// bucket interpolation: every sample sits just above a bucket's lower
// edge, where the interpolated estimate runs far past the slowest
// sample. No percentile may exceed the maximum observed or undercut
// the minimum.
func TestHistogramQuantileWithinObservedRange(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("q_adv", "a", ExpBuckets(0.001, 2, 12))
	const lo, hi = 0.0320001, 0.0320009 // just above the 32ms edge
	for i := 0; i < 1000; i++ {
		h.Observe(lo + (hi-lo)*float64(i%10)/9)
	}
	for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
		v := h.Quantile(q)
		if v > hi || v < lo {
			t.Errorf("Quantile(%g) = %v outside the observed range [%v, %v]", q, v, lo, hi)
		}
	}
	// A NaN observation never becomes an extreme.
	h.Observe(math.NaN())
	if v := h.Quantile(0.5); math.IsNaN(v) || v > hi || v < lo {
		t.Errorf("after a NaN observation Quantile(0.5) = %v, want within [%v, %v]", v, lo, hi)
	}
}

// TestExpBuckets pins the log-spaced layout helper.
func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(0.001, 10, 4)
	want := []float64{0.001, 0.01, 0.1, 1}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("ExpBuckets[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("ExpBuckets(0, 2, 3) did not panic")
		}
	}()
	ExpBuckets(0, 2, 3)
}

// TestVecGolden pins the labeled families' exposition: children sorted
// by label string, histogram children interleaving their labels with
// le, and With's get-or-create contract.
func TestVecGolden(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("vec_requests_total", "Requests by endpoint and code.")
	v.With(Labels("endpoint", "/render", "code", "200")).Add(3)
	v.With(Labels("endpoint", "/render", "code", "429")).Inc()
	v.With(Labels("endpoint", "/status", "code", "200")).Inc()
	if a, b := v.With(`x="1"`), v.With(`x="1"`); a != b {
		t.Error("CounterVec.With returned a new child for the same labels")
	}
	v.With(`x="1"`).Inc()

	hv := r.NewHistogramVec("vec_latency_seconds", "Latency by endpoint.", []float64{0.1, 1})
	hv.With(`endpoint="/render"`).Observe(0.05)
	hv.With(`endpoint="/render"`).Observe(0.5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP vec_latency_seconds Latency by endpoint.
# TYPE vec_latency_seconds histogram
vec_latency_seconds_bucket{endpoint="/render",le="0.1"} 1
vec_latency_seconds_bucket{endpoint="/render",le="1"} 2
vec_latency_seconds_bucket{endpoint="/render",le="+Inf"} 2
vec_latency_seconds_sum{endpoint="/render"} 0.55
vec_latency_seconds_count{endpoint="/render"} 2
# HELP vec_requests_total Requests by endpoint and code.
# TYPE vec_requests_total counter
vec_requests_total{endpoint="/render",code="200"} 3
vec_requests_total{endpoint="/render",code="429"} 1
vec_requests_total{endpoint="/status",code="200"} 1
vec_requests_total{x="1"} 1
`
	if b.String() != want {
		t.Errorf("vec exposition mismatch:\n got:\n%s\nwant:\n%s", b.String(), want)
	}

	// A plain metric colliding with a family panics with a clear message.
	defer func() {
		if recover() == nil {
			t.Error("plain-counter/family name clash did not panic")
		}
	}()
	r.NewCounter("vec_requests_total", "clash")
}
