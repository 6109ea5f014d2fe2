package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

func floatBits(v float64) uint64     { return math.Float64bits(v) }
func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }

// Sample is one exposed time-series value: a metric name (histograms
// emit several derived names), an optional rendered label list, and
// the value. Integer-valued samples render without a decimal point so
// counter output stays exact at any magnitude.
type Sample struct {
	Name   string
	Labels string // rendered pairs without braces, e.g. `le="4096"`
	Value  float64
	Int    bool
	// ExemplarID/ExemplarVal carry the bucket's last exemplar when the
	// histogram has exemplars enabled and one was recorded: the trace ID
	// of a request that landed in this bucket and its observed value.
	// Rendered as an OpenMetrics-style suffix (`# {trace_id="..."} v`).
	ExemplarID  string
	ExemplarVal float64
}

// metric is what the registry stores: anything that can describe
// itself and append its current samples.
type metric interface {
	typ() string
	helpText() string
	collect(out []Sample) []Sample
}

// Registry holds named metrics and renders them in Prometheus text
// exposition format with stable (name-sorted) ordering. The zero
// Registry is not usable; use NewRegistry or the package Default.
// Registration is get-or-create: asking twice for the same name and
// kind returns the same instance, so package-level metric variables
// stay cheap and idempotent across tests.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: map[string]metric{}}
}

// Default is the process-global registry the instrumented layers
// register into and the /metrics endpoint serves.
var Default = NewRegistry()

// register returns the existing metric under name or installs the one
// built by mk. A name registered with a different kind panics: that is
// a programming error, not a runtime condition.
func (r *Registry) register(name, kind string, mk func() metric) metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if m.typ() != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, kind, m.typ()))
		}
		return m
	}
	m := mk()
	r.metrics[name] = m
	return m
}

// NewCounter registers (or returns) the named monotonic counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	return r.register(name, "counter", func() metric {
		return &Counter{name: name, help: help}
	}).(*Counter)
}

// NewGauge registers (or returns) the named settable gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	return r.register(name, "gauge", func() metric {
		return &Gauge{name: name, help: help}
	}).(*Gauge)
}

// NewGaugeFunc registers a gauge whose value is read from fn at
// collection time — the natural shape for layers that already keep
// their own totals (par.Stats, runtime stats).
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	r.register(name, "gauge", func() metric {
		return &gaugeFunc{name: name, help: help, fn: fn}
	})
}

// NewHistogram registers (or returns) the named fixed-bucket
// histogram. bounds are ascending upper bounds; an implicit +Inf
// bucket is always appended.
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	return r.register(name, "histogram", func() metric {
		return newHistogram(name, "", help, append([]float64(nil), bounds...))
	}).(*Histogram)
}

// Snapshot returns every sample the registry would expose, in the
// exposition's stable order.
func (r *Registry) Snapshot() []Sample {
	var out []Sample
	for _, name := range r.sortedNames() {
		r.mu.Lock()
		m := r.metrics[name]
		r.mu.Unlock()
		out = m.collect(out)
	}
	return out
}

func (r *Registry) sortedNames() []string {
	r.mu.Lock()
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	r.mu.Unlock()
	sort.Strings(names)
	return names
}

// WritePrometheus writes the registry in Prometheus text exposition
// format (version 0.0.4), metrics sorted by name so the output is
// stable and diffable.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, name := range r.sortedNames() {
		r.mu.Lock()
		m := r.metrics[name]
		r.mu.Unlock()
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, m.helpText(), name, m.typ()); err != nil {
			return err
		}
		for _, s := range m.collect(nil) {
			if err := writeSample(w, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSample(w io.Writer, s Sample) error {
	var v string
	if s.Int {
		v = strconv.FormatInt(int64(s.Value), 10)
	} else {
		v = strconv.FormatFloat(s.Value, 'g', -1, 64)
	}
	ex := ""
	if s.ExemplarID != "" {
		ex = fmt.Sprintf(" # {trace_id=%q} %s", s.ExemplarID,
			strconv.FormatFloat(s.ExemplarVal, 'g', -1, 64))
	}
	var err error
	if s.Labels != "" {
		_, err = fmt.Fprintf(w, "%s{%s} %s%s\n", s.Name, s.Labels, v, ex)
	} else {
		_, err = fmt.Fprintf(w, "%s %s%s\n", s.Name, v, ex)
	}
	return err
}

// Counter is a monotonic atomic counter.
type Counter struct {
	name, help string
	labels     string // rendered label list when part of a CounterVec
	v          atomic.Int64
}

// Add adds n (which must be non-negative) to the counter.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current total.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) typ() string      { return "counter" }
func (c *Counter) helpText() string { return c.help }
func (c *Counter) collect(out []Sample) []Sample {
	return append(out, Sample{Name: c.name, Labels: c.labels, Value: float64(c.v.Load()), Int: true})
}

// Gauge is a settable atomic float64 gauge.
type Gauge struct {
	name, help string
	bits       atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(floatBits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return floatFromBits(g.bits.Load()) }

func (g *Gauge) typ() string      { return "gauge" }
func (g *Gauge) helpText() string { return g.help }
func (g *Gauge) collect(out []Sample) []Sample {
	return append(out, Sample{Name: g.name, Value: g.Value()})
}

// gaugeFunc reads its value from a callback at collection time.
type gaugeFunc struct {
	name, help string
	fn         func() float64
}

func (g *gaugeFunc) typ() string      { return "gauge" }
func (g *gaugeFunc) helpText() string { return g.help }
func (g *gaugeFunc) collect(out []Sample) []Sample {
	return append(out, Sample{Name: g.name, Value: g.fn()})
}

// Labels renders alternating key, value pairs as a Prometheus label
// list without braces (`endpoint="/render",code="200"`), quoting the
// values. It is how callers build the label argument of the Vec
// families' With.
func Labels(kv ...string) string {
	if len(kv)%2 != 0 {
		panic("obs: Labels needs alternating key, value pairs")
	}
	var b []byte
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, kv[i]...)
		b = append(b, '=')
		b = strconv.AppendQuote(b, kv[i+1])
	}
	return string(b)
}

// CounterVec is a family of counters sharing one name and help text,
// distinguished by a rendered label list (see Labels). With is
// get-or-create and returns a plain *Counter, so hot paths resolve
// their child once and pay only the atomic add.
type CounterVec struct {
	name, help string
	mu         sync.Mutex
	children   map[string]*Counter
}

// NewCounterVec registers (or returns) the named counter family.
func (r *Registry) NewCounterVec(name, help string) *CounterVec {
	m := r.register(name, "counter", func() metric {
		return &CounterVec{name: name, help: help, children: map[string]*Counter{}}
	})
	v, ok := m.(*CounterVec)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q already registered as a plain counter, not a family", name))
	}
	return v
}

// With returns the child counter for the rendered label list.
func (v *CounterVec) With(labels string) *Counter {
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.children[labels]
	if !ok {
		c = &Counter{name: v.name, labels: labels}
		v.children[labels] = c
	}
	return c
}

// Each calls f for every child in label order — how a status page
// enumerates per-endpoint counters without knowing the labels upfront.
func (v *CounterVec) Each(f func(labels string, c *Counter)) {
	v.mu.Lock()
	labels := make([]string, 0, len(v.children))
	for l := range v.children {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	children := make([]*Counter, len(labels))
	for i, l := range labels {
		children[i] = v.children[l]
	}
	v.mu.Unlock()
	for i, l := range labels {
		f(l, children[i])
	}
}

func (v *CounterVec) typ() string      { return "counter" }
func (v *CounterVec) helpText() string { return v.help }
func (v *CounterVec) collect(out []Sample) []Sample {
	v.mu.Lock()
	labels := make([]string, 0, len(v.children))
	for l := range v.children {
		labels = append(labels, l)
	}
	children := make([]*Counter, len(labels))
	sort.Strings(labels)
	for i, l := range labels {
		children[i] = v.children[l]
	}
	v.mu.Unlock()
	for _, c := range children {
		out = c.collect(out)
	}
	return out
}

// HistogramVec is a family of fixed-bucket histograms sharing one
// name, help text, and bucket layout, distinguished by a rendered
// label list (see Labels).
type HistogramVec struct {
	name, help string
	bounds     []float64
	mu         sync.Mutex
	children   map[string]*Histogram
	exemplars  bool
}

// EnableExemplars arms exemplar slots on every present and future
// child of the family.
func (v *HistogramVec) EnableExemplars() {
	v.mu.Lock()
	v.exemplars = true
	children := make([]*Histogram, 0, len(v.children))
	for _, h := range v.children {
		children = append(children, h)
	}
	v.mu.Unlock()
	for _, h := range children {
		h.EnableExemplars()
	}
}

// NewHistogramVec registers (or returns) the named histogram family.
// bounds are ascending upper bounds shared by every child.
func (r *Registry) NewHistogramVec(name, help string, bounds []float64) *HistogramVec {
	m := r.register(name, "histogram", func() metric {
		return &HistogramVec{name: name, help: help,
			bounds: append([]float64(nil), bounds...), children: map[string]*Histogram{}}
	})
	v, ok := m.(*HistogramVec)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q already registered as a plain histogram, not a family", name))
	}
	return v
}

// With returns the child histogram for the rendered label list.
func (v *HistogramVec) With(labels string) *Histogram {
	v.mu.Lock()
	defer v.mu.Unlock()
	h, ok := v.children[labels]
	if !ok {
		h = newHistogram(v.name, labels, "", v.bounds)
		if v.exemplars {
			h.EnableExemplars()
		}
		v.children[labels] = h
	}
	return h
}

// Each calls f for every child in label order.
func (v *HistogramVec) Each(f func(labels string, h *Histogram)) {
	v.mu.Lock()
	labels := make([]string, 0, len(v.children))
	for l := range v.children {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	children := make([]*Histogram, len(labels))
	for i, l := range labels {
		children[i] = v.children[l]
	}
	v.mu.Unlock()
	for i, l := range labels {
		f(l, children[i])
	}
}

func (v *HistogramVec) typ() string      { return "histogram" }
func (v *HistogramVec) helpText() string { return v.help }
func (v *HistogramVec) collect(out []Sample) []Sample {
	v.mu.Lock()
	labels := make([]string, 0, len(v.children))
	for l := range v.children {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	children := make([]*Histogram, len(labels))
	for i, l := range labels {
		children[i] = v.children[l]
	}
	v.mu.Unlock()
	for _, h := range children {
		out = h.collect(out)
	}
	return out
}

// Histogram counts observations into fixed buckets. Observe is
// lock-free: one atomic add on the bucket plus CAS loops on the sum and
// on the exact minimum and maximum observed.
type Histogram struct {
	name, help string
	labels     string // rendered label list when part of a HistogramVec
	bounds     []float64
	counts     []atomic.Int64 // len(bounds)+1; last is +Inf
	sumBits    atomic.Uint64
	// minBits and maxBits hold the extreme observations (+Inf and -Inf
	// before the first), so Quantile can clamp its bucket estimate into
	// the range actually seen.
	minBits, maxBits atomic.Uint64
	// exemplars, when enabled, holds one last-exemplar slot per bucket
	// (len(bounds)+1, matching counts). The slice pointer doubles as the
	// on/off switch: ObserveEx pays one atomic load when off and
	// allocates nothing, so exemplar-capable call sites cost the same
	// as Observe until EnableExemplars flips them on.
	exemplars atomic.Pointer[[]atomic.Pointer[Exemplar]]
}

func newHistogram(name, labels, help string, bounds []float64) *Histogram {
	h := &Histogram{name: name, labels: labels, help: help, bounds: bounds}
	h.counts = make([]atomic.Int64, len(bounds)+1)
	h.minBits.Store(floatBits(math.Inf(1)))
	h.maxBits.Store(floatBits(math.Inf(-1)))
	return h
}

// Exemplar links one observed value to the trace that produced it —
// how a latency bucket names a stored request trace.
type Exemplar struct {
	TraceID string
	Value   float64
}

// EnableExemplars arms the per-bucket exemplar slots. Idempotent and
// safe to call concurrently with observations.
func (h *Histogram) EnableExemplars() {
	if h.exemplars.Load() != nil {
		return
	}
	slots := make([]atomic.Pointer[Exemplar], len(h.bounds)+1)
	h.exemplars.CompareAndSwap(nil, &slots)
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.observe(v)
}

// ObserveEx records one value and, when exemplars are enabled, stamps
// the bucket it lands in with the trace ID as its last exemplar. With
// exemplars off it is exactly Observe: one atomic pointer load extra,
// zero allocations.
func (h *Histogram) ObserveEx(v float64, traceID string) {
	i := h.observe(v)
	if slots := h.exemplars.Load(); slots != nil {
		(*slots)[i].Store(&Exemplar{TraceID: traceID, Value: v})
	}
}

func (h *Histogram) observe(v float64) int {
	// The extremes move before the count does, so any reader that sees
	// this observation counted also sees it inside [min, max]. A NaN
	// fails both comparisons and never becomes an extreme.
	for {
		old := h.minBits.Load()
		if !(v < floatFromBits(old)) || h.minBits.CompareAndSwap(old, floatBits(v)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if !(v > floatFromBits(old)) || h.maxBits.CompareAndSwap(old, floatBits(v)) {
			break
		}
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, floatBits(floatFromBits(old)+v)) {
			return i
		}
	}
}

// BucketExemplar returns bucket i's last exemplar (i in
// [0, len(bounds)]; the final index is the +Inf bucket). ok is false
// when exemplars are off or the bucket has not seen an exemplared
// observation yet.
func (h *Histogram) BucketExemplar(i int) (Exemplar, bool) {
	slots := h.exemplars.Load()
	if slots == nil || i < 0 || i >= len(*slots) {
		return Exemplar{}, false
	}
	e := (*slots)[i].Load()
	if e == nil {
		return Exemplar{}, false
	}
	return *e, true
}

// SlowestExemplar returns the exemplar from the highest populated
// bucket — the trace of (one of) the slowest requests the histogram
// has seen — or ok=false when there is none.
func (h *Histogram) SlowestExemplar() (Exemplar, bool) {
	slots := h.exemplars.Load()
	if slots == nil {
		return Exemplar{}, false
	}
	for i := len(*slots) - 1; i >= 0; i-- {
		if e := (*slots)[i].Load(); e != nil {
			return *e, true
		}
	}
	return Exemplar{}, false
}

// Count returns the number of observations so far.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return floatFromBits(h.sumBits.Load()) }

// Quantile estimates the q-quantile (q in [0, 1]) from the bucket
// counts by monotone linear interpolation over the cumulative
// distribution: the quantile rank is located in its bucket and
// interpolated linearly between the bucket's bounds, so estimates are
// non-decreasing in q and exact at bucket edges. The first bucket
// interpolates from zero (observations are assumed non-negative, which
// holds for the durations and sizes this package tracks). A rank
// landing in the +Inf overflow bucket takes the highest finite bound.
// The estimate is then clamped into the exact [min, max] of the
// observations, so no quantile exceeds the slowest sample observed or
// undercuts the fastest. Returns NaN on an empty histogram, when the
// histogram has no finite buckets, or when q is outside [0, 1].
func (h *Histogram) Quantile(q float64) float64 {
	if q < 0 || q > 1 || len(h.bounds) == 0 {
		return math.NaN()
	}
	// Snapshot the counts once so a concurrent Observe cannot tear the
	// cumulative walk.
	counts := make([]int64, len(h.counts))
	var total int64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return math.NaN()
	}
	lo, hi := floatFromBits(h.minBits.Load()), floatFromBits(h.maxBits.Load())
	return min(max(h.bucketQuantile(counts, q*float64(total)), lo), hi)
}

// bucketQuantile interpolates the value at the given cumulative rank
// from a snapshot of the bucket counts.
func (h *Histogram) bucketQuantile(counts []int64, rank float64) float64 {
	var cum float64
	for i, c := range counts[:len(counts)-1] {
		prev := cum
		cum += float64(c)
		if cum < rank {
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		hi := h.bounds[i]
		if c == 0 {
			return hi
		}
		return lo + (hi-lo)*(rank-prev)/float64(c)
	}
	// The rank lands in the +Inf overflow bucket.
	return h.bounds[len(h.bounds)-1]
}

// ExpBuckets returns n ascending bucket bounds starting at start and
// growing by factor — the standard log-spaced latency layout. It
// panics on a non-positive start, a factor <= 1, or n < 1: bucket
// layouts are compile-time decisions, not runtime conditions.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

func (h *Histogram) typ() string      { return "histogram" }
func (h *Histogram) helpText() string { return h.help }
func (h *Histogram) collect(out []Sample) []Sample {
	prefix := ""
	if h.labels != "" {
		prefix = h.labels + ","
	}
	var cum int64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		s := Sample{
			Name:   h.name + "_bucket",
			Labels: prefix + `le="` + strconv.FormatFloat(b, 'g', -1, 64) + `"`,
			Value:  float64(cum), Int: true,
		}
		if e, ok := h.BucketExemplar(i); ok {
			s.ExemplarID, s.ExemplarVal = e.TraceID, e.Value
		}
		out = append(out, s)
	}
	cum += h.counts[len(h.bounds)].Load()
	inf := Sample{Name: h.name + "_bucket", Labels: prefix + `le="+Inf"`, Value: float64(cum), Int: true}
	if e, ok := h.BucketExemplar(len(h.bounds)); ok {
		inf.ExemplarID, inf.ExemplarVal = e.TraceID, e.Value
	}
	out = append(out, inf)
	out = append(out, Sample{Name: h.name + "_sum", Labels: h.labels, Value: floatFromBits(h.sumBits.Load())})
	out = append(out, Sample{Name: h.name + "_count", Labels: h.labels, Value: float64(cum), Int: true})
	return out
}
