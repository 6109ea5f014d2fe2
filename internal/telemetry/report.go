package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"bgpvr/internal/critpath"
	"bgpvr/internal/trace"
	"bgpvr/internal/tree"
)

// ReportSchema is the perf-report schema version. Bump it on any
// incompatible change to Report's JSON layout; cmd/perfdiff refuses to
// compare reports with different schemas.
//
// Schema history:
//
//	1 — phases, counters, histograms, network, runtime
//	2 — adds the critpath and imbalance sections
//	3 — adds the fidelity section (paper-fidelity scorecard)
//	4 — runtime section gains workers and parallel_speedup
//	5 — adds the flowsim section (approx_eps / observed_err accuracy
//	    telemetry of the clustered contention approximation)
//	6 — adds the service section (render-service load-test results:
//	    per-concurrency latency percentiles, throughput, error and
//	    admission counts)
//	7 — adds the trace section (per-request tail-sampling verdict) and
//	    the service points' slowest-request / failed-request IDs
//	8 — flowsim section gains approx_endpoint (endpoint-hop
//	    aggregation engaged), approx_used_links (distinct model links
//	    the flow set references), and wall_sec (simulation wall time)
const ReportSchema = 8

// Report is the machine-readable perf record of one run: the trace
// breakdown, telemetry aggregates, runtime/alloc stats, and the run
// configuration, merged into one versioned document. CI stores these
// as artifacts (the BENCH_*.json trajectory) and cmd/perfdiff compares
// two of them.
type Report struct {
	Schema int    `json:"schema"`
	Label  string `json:"label,omitempty"`
	// Config is the run configuration as flat name/value pairs
	// (mode, procs, format, ...). Maps marshal with sorted keys, so
	// the output is deterministic.
	Config     map[string]string `json:"config,omitempty"`
	TotalSec   float64           `json:"total_sec"`
	Phases     []PhaseStat       `json:"phases,omitempty"`
	Counters   map[string]int64  `json:"counters,omitempty"`
	Histograms []HistogramStat   `json:"histograms,omitempty"`
	Network    *NetworkStat      `json:"network,omitempty"`
	CritPath   *CritPathStat     `json:"critpath,omitempty"`
	Imbalance  []ImbalanceStat   `json:"imbalance,omitempty"`
	Fidelity   *FidelityStat     `json:"fidelity,omitempty"`
	Flowsim    *FlowsimStat      `json:"flowsim,omitempty"`
	Service    *ServiceStat      `json:"service,omitempty"`
	Trace      *TraceStat        `json:"trace,omitempty"`
	Runtime    *RuntimeStat      `json:"runtime,omitempty"`
}

// TraceStat records a request's tail-sampling verdict in its perf
// report: whether the trace was retained in the service's trace store
// and why, so a client holding a slow response knows immediately
// whether /traces/{trace_id} will answer.
type TraceStat struct {
	TraceID string `json:"trace_id"`
	// Spans is the number of recorded span events (before nesting).
	Spans    int  `json:"spans"`
	Retained bool `json:"retained"`
	// Reason is "error", "slo", "p90", or "rand" when retained.
	Reason string `json:"reason,omitempty"`
}

// ServiceStat records a render-service load test: one point per
// concurrency level of a sweep (a soak is a single point), with
// client-observed latency percentiles, throughput, and the admission
// outcomes. cmd/serveload builds it; perfdiff -only service gates p99,
// throughput, and error-rate drift between two of them.
type ServiceStat struct {
	// Mode is "sweep" or "soak".
	Mode string `json:"mode"`
	// Target is the service address, or "in-process" when the harness
	// spun the server inside its own process.
	Target string         `json:"target,omitempty"`
	Points []ServicePoint `json:"points,omitempty"`
}

// ServicePoint is one steady concurrency level's aggregate outcome.
type ServicePoint struct {
	Concurrency int   `json:"concurrency"`
	Requests    int64 `json:"requests"`
	OK          int64 `json:"ok_2xx"`
	Rejected    int64 `json:"rejected_429"`
	Deadline    int64 `json:"deadline_503"`
	// Errors counts every other non-2xx outcome, including transport
	// failures.
	Errors      int64   `json:"errors_other,omitempty"`
	DurationSec float64 `json:"duration_sec"`
	RPS         float64 `json:"rps"`
	// Latency percentiles are nearest-rank order statistics over every
	// completed request's client-observed wall time, so each is a
	// latency some request had and none exceeds SlowestMs.
	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MeanMs float64 `json:"mean_ms"`
	// CacheHits/CacheMisses are the service-side volume-cache deltas
	// across the point, when the harness could read them from /status.
	CacheHits   int64 `json:"cache_hits,omitempty"`
	CacheMisses int64 `json:"cache_misses,omitempty"`
	// SlowestMs/SlowestID identify the level's slowest request by the
	// server-assigned X-Request-ID, so it can be looked up in the
	// service's trace store (/traces/{id}) after the run.
	SlowestMs float64 `json:"slowest_ms,omitempty"`
	SlowestID string  `json:"slowest_id,omitempty"`
	// FailIDs are the request IDs of non-2xx outcomes (capped by the
	// harness), for the same post-hoc trace lookup.
	FailIDs []string `json:"fail_ids,omitempty"`
}

// ErrorRate returns the fraction of requests that did not end 2xx.
func (p ServicePoint) ErrorRate() float64 {
	if p.Requests == 0 {
		return 0
	}
	return float64(p.Requests-p.OK) / float64(p.Requests)
}

// FlowsimStat records the contention-kernel configuration of the run
// and, in approximate mode, its accuracy telemetry: the requested
// error bound and the error actually observed. ObservedErr is the true
// relative error when an exact cross-check ran (small configs), else
// the bound gap — (time - certified lower bound)/time — the distance
// between two lower bounds on the exact time, which does not bound the
// true error.
type FlowsimStat struct {
	ApproxEps   float64 `json:"approx_eps"`
	ObservedErr float64 `json:"observed_err"`
	// ErrExact marks ObservedErr as a true exact-vs-approx comparison
	// rather than the bound gap.
	ErrExact      bool    `json:"err_exact,omitempty"`
	RegionSide    int     `json:"region_side,omitempty"`
	Regions       int     `json:"regions,omitempty"`
	ModelLinks    int     `json:"model_links,omitempty"`
	PhysLinks     int     `json:"phys_links,omitempty"`
	LowerBoundSec float64 `json:"lower_bound_sec,omitempty"`
	ExactSec      float64 `json:"exact_sec,omitempty"`
	ApproxSec     float64 `json:"approx_sec,omitempty"`
	Events        int64   `json:"events,omitempty"`
	Workers       int     `json:"workers,omitempty"`
	// EndpointAgg marks that endpoint-hop aggregation engaged: only
	// injection and ejection hops kept physical identity, interior
	// endpoint-region hops pooled onto regional aggregates.
	EndpointAgg bool `json:"approx_endpoint,omitempty"`
	// UsedLinks is the number of distinct model links the flow set
	// actually referenced — the working-set size the kernel iterates,
	// which endpoint aggregation exists to shrink.
	UsedLinks int `json:"approx_used_links,omitempty"`
	// WallSec is the simulation's wall-clock cost (not simulated
	// time), the quantity the scale sweeps optimize.
	WallSec float64 `json:"wall_sec,omitempty"`
}

// FidelityStat is the paper-fidelity scorecard section: how closely
// the model tracks the paper's published values and qualitative shape
// claims. Package fidelity builds it (Scorecard.Stat); it lives here
// so perf reports can carry it without telemetry importing the bench
// stack.
type FidelityStat struct {
	// Score is the aggregate fidelity in [0, 1]: the mean over claims
	// of 1 (pass), 0.5 (warn), 0 (fail).
	Score  float64     `json:"score"`
	Pass   int         `json:"pass"`
	Warn   int         `json:"warn"`
	Fail   int         `json:"fail"`
	Claims []ClaimStat `json:"claims,omitempty"`
}

// ClaimStat is one evaluated paper claim.
type ClaimStat struct {
	ID     string `json:"id"`     // e.g. "fig3/best-total"
	Figure string `json:"figure"` // fig3..fig7, table2
	Kind   string `json:"kind"`   // point, shape, crossover
	// Paper and Measured are display strings (a point value with its
	// unit, or a predicate description) — the numeric comparison is
	// RelErr.
	Paper    string `json:"paper"`
	Measured string `json:"measured"`
	// RelErr is |measured-paper|/|paper| for point claims; nil for
	// shape predicates (which are pass/fail) and when the measured
	// point is missing.
	RelErr *float64 `json:"rel_err,omitempty"`
	Status string   `json:"status"` // pass, warn, fail
	Detail string   `json:"detail,omitempty"`
}

// PhaseStat is one pipeline phase's per-rank time summary.
type PhaseStat struct {
	Name      string  `json:"name"`
	MeanSec   float64 `json:"mean_sec"`
	MaxSec    float64 `json:"max_sec"`
	Imbalance float64 `json:"imbalance,omitempty"`
}

// HistogramStat is one size histogram with only its non-empty buckets.
type HistogramStat struct {
	Name    string       `json:"name"`
	Count   int64        `json:"count"`
	SumB    int64        `json:"sum_bytes"`
	Buckets []BucketStat `json:"buckets,omitempty"`
}

// BucketStat is one non-empty log2 bucket.
type BucketStat struct {
	LoB   int64 `json:"lo_bytes"`
	HiB   int64 `json:"hi_bytes"`
	Count int64 `json:"count"`
}

// NetworkStat summarizes a phase's per-link usage.
type NetworkStat struct {
	Links            int     `json:"links"`
	ActiveLinks      int     `json:"active_links"`
	TotalLinkBytes   int64   `json:"total_link_bytes"`
	MaxLinkBytes     int64   `json:"max_link_bytes"`
	MaxLinkFlows     int32   `json:"max_link_flows"`
	PeakUtilization  float64 `json:"peak_utilization"`
	BottleneckEvents int64   `json:"bottleneck_events"`
}

// CritPathStat summarizes the critical-path analysis of the run's
// causal event graph (package critpath).
type CritPathStat struct {
	Ranks    int     `json:"ranks"`
	Deps     int     `json:"deps"`
	PathSec  float64 `json:"path_sec"`
	IdleSec  float64 `json:"idle_sec,omitempty"`
	Hops     int     `json:"hops"`
	Dominant string  `json:"dominant_phase"`
	// PhaseSec attributes the path's duration to phases; maps marshal
	// with sorted keys, so the output is deterministic.
	PhaseSec map[string]float64 `json:"phase_sec,omitempty"`
	WhatIf   []WhatIfStat       `json:"what_if,omitempty"`
}

// WhatIfStat is one balanced-phase estimate.
type WhatIfStat struct {
	Phase        string  `json:"phase"`
	EstimatedSec float64 `json:"estimated_sec"`
	SavedSec     float64 `json:"saved_sec"`
}

// ImbalanceStat is one phase's per-rank busy-time distribution.
type ImbalanceStat struct {
	Phase     string  `json:"phase"`
	MeanSec   float64 `json:"mean_sec"`
	MaxSec    float64 `json:"max_sec"`
	P95Sec    float64 `json:"p95_sec"`
	Imbalance float64 `json:"imbalance"`
	CoV       float64 `json:"cov"`
	Gini      float64 `json:"gini"`
	SlackSec  float64 `json:"slack_sec"`
}

// RuntimeStat captures the Go runtime's view of the run. It is
// intentionally the only non-deterministic section; perfdiff ignores
// it by default.
type RuntimeStat struct {
	GoVersion       string  `json:"go_version"`
	GOMAXPROCS      int     `json:"gomaxprocs"`
	WallSec         float64 `json:"wall_sec"`
	HeapAllocBytes  uint64  `json:"heap_alloc_bytes"`
	TotalAllocBytes uint64  `json:"total_alloc_bytes"`
	NumGC           uint32  `json:"num_gc"`
	// Workers is the resolved -workers pool width the run used (0 when
	// the run predates the flag or never touched a pool).
	Workers int `json:"workers,omitempty"`
	// ParallelSpeedup is the realized pool speedup: cumulative
	// worker-busy seconds over pool-call elapsed seconds (par.Stats).
	// ~1.0 means the run was effectively serial.
	ParallelSpeedup float64 `json:"parallel_speedup,omitempty"`
}

// NewReport starts a report with the schema version and label set.
func NewReport(label string) *Report {
	return &Report{Schema: ReportSchema, Label: label, Config: map[string]string{}}
}

// AddBreakdown fills the phase table and counters from a trace
// breakdown (nil-safe; a nil breakdown changes nothing).
func (r *Report) AddBreakdown(b *trace.Breakdown) {
	if b == nil {
		return
	}
	for p := trace.Phase(0); p < trace.NumPhases; p++ {
		s := b.PerRank[p]
		if s.N == 0 {
			continue
		}
		r.Phases = append(r.Phases, PhaseStat{
			Name: p.String(), MeanSec: s.Mean(), MaxSec: s.MaxV, Imbalance: s.Imbalance(),
		})
	}
	for c := trace.Counter(0); c < trace.NumCounters; c++ {
		if v := b.Counters[c]; v != 0 {
			if r.Counters == nil {
				r.Counters = map[string]int64{}
			}
			r.Counters[c.String()] = v
		}
	}
}

// AddNetTelemetry fills the histogram and network sections (nil-safe).
func (r *Report) AddNetTelemetry(n *NetTelemetry) {
	if n == nil {
		return
	}
	for _, h := range []struct {
		name string
		h    *Histogram
	}{
		{"send_sizes", &n.SendSizes},
		{"collective_sizes", &n.CollectiveSizes},
		{"access_sizes", &n.AccessSizes},
	} {
		if h.h.Count() == 0 {
			continue
		}
		hs := HistogramStat{Name: h.name, Count: h.h.Count(), SumB: h.h.Sum()}
		for i := 0; i < histBuckets; i++ {
			if c := h.h.Bucket(i); c > 0 {
				lo, hi := BucketBounds(i)
				hs.Buckets = append(hs.Buckets, BucketStat{LoB: lo, HiB: hi, Count: c})
			}
		}
		r.Histograms = append(r.Histograms, hs)
	}
	if n.Tree.TotalOps() > 0 {
		if r.Counters == nil {
			r.Counters = map[string]int64{}
		}
		for op := tree.Op(0); op < tree.NumOps; op++ {
			if c := n.Tree.Ops[op]; c != 0 {
				r.Counters["tree_"+op.String()] = c
			}
		}
		if n.Tree.Bytes != 0 {
			r.Counters["tree_bytes"] = n.Tree.Bytes
		}
	}
	if u := n.Links; u.Links() > 0 {
		mb, _ := u.MaxBytes()
		mf, _ := u.MaxFlows()
		r.Network = &NetworkStat{
			Links:            u.Links(),
			ActiveLinks:      countActive(u),
			TotalLinkBytes:   u.TotalBytes(),
			MaxLinkBytes:     mb,
			MaxLinkFlows:     mf,
			PeakUtilization:  u.PeakUtilization(),
			BottleneckEvents: u.TotalBottlenecks(),
		}
	}
}

// AddCritPath fills the critpath and imbalance sections from a
// critical-path analysis (nil-safe; a nil analysis changes nothing).
func (r *Report) AddCritPath(a *critpath.Analysis) {
	if a == nil || a.Ranks == 0 {
		return
	}
	cs := &CritPathStat{
		Ranks:    a.Ranks,
		Deps:     a.Deps,
		PathSec:  a.PathSec,
		IdleSec:  a.IdleSec,
		Hops:     a.Hops,
		Dominant: a.Dominant,
	}
	if len(a.PathPhaseSec) > 0 {
		cs.PhaseSec = map[string]float64{}
		for ph, sec := range a.PathPhaseSec {
			cs.PhaseSec[ph] = sec
		}
	}
	for _, w := range a.WhatIf {
		cs.WhatIf = append(cs.WhatIf, WhatIfStat{
			Phase: w.Phase, EstimatedSec: w.EstimatedSec, SavedSec: w.SavedSec,
		})
	}
	r.CritPath = cs
	for _, p := range a.Phases {
		r.Imbalance = append(r.Imbalance, ImbalanceStat{
			Phase: p.Phase, MeanSec: p.MeanSec, MaxSec: p.MaxSec, P95Sec: p.P95Sec,
			Imbalance: p.Imbalance, CoV: p.CoV, Gini: p.Gini, SlackSec: p.SlackSec,
		})
	}
}

// AddRuntime fills the runtime section from the live Go runtime.
func (r *Report) AddRuntime(wallSec float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.Runtime = &RuntimeStat{
		GoVersion:       runtime.Version(),
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		WallSec:         wallSec,
		HeapAllocBytes:  ms.HeapAlloc,
		TotalAllocBytes: ms.TotalAlloc,
		NumGC:           ms.NumGC,
	}
}

// AddParallel records the run's resolved pool width and realized
// speedup (worker-busy time over pool elapsed time) in the runtime
// section; call it after AddRuntime. Zero wallSec leaves the speedup
// unset.
func (r *Report) AddParallel(workers int, busySec, wallSec float64) {
	if r.Runtime == nil {
		r.Runtime = &RuntimeStat{}
	}
	r.Runtime.Workers = workers
	if wallSec > 0 {
		r.Runtime.ParallelSpeedup = busySec / wallSec
	}
}

// WriteJSON writes the report as indented JSON with a trailing
// newline. Struct field order and sorted map keys make the output
// deterministic for golden tests.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteFile writes the report to path, creating missing parent
// directories.
func (r *Report) WriteFile(path string) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return r.WriteJSON(f)
}

// ReadReport loads a report from path and checks its schema version.
func ReadReport(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("telemetry: parsing report %s: %w", path, err)
	}
	if r.Schema != ReportSchema {
		return nil, fmt.Errorf("telemetry: report %s has schema %d, want %d", path, r.Schema, ReportSchema)
	}
	return &r, nil
}

// Delta is one compared metric between two reports.
type Delta struct {
	Metric string
	// Class groups deltas for filtering: "timing", "counter", or
	// "imbalance".
	Class string
	// Unit labels the values: "s", "count", or "ratio".
	Unit       string
	Old, New   float64
	Regression bool // new is worse than old beyond the threshold
}

// Change returns the relative change (new-old)/old, or 0 when old is 0.
func (d Delta) Change() float64 {
	if d.Old == 0 {
		return 0
	}
	return (d.New - d.Old) / d.Old
}

// CompareReports compares the timing metrics of two reports: the total
// and each phase's mean time present in both. threshold is the
// relative slowdown (e.g. 0.10 for 10%) beyond which a metric is
// flagged as a regression. Metrics are ordered total first, then
// phases sorted by name.
func CompareReports(old, new *Report, threshold float64) []Delta {
	deltas := []Delta{flagDelta("total_sec", "timing", "s", old.TotalSec, new.TotalSec, threshold)}
	oldPhases := map[string]PhaseStat{}
	for _, p := range old.Phases {
		oldPhases[p.Name] = p
	}
	var names []string
	for _, p := range new.Phases {
		if _, ok := oldPhases[p.Name]; ok {
			names = append(names, p.Name)
		}
	}
	sort.Strings(names)
	newPhases := map[string]PhaseStat{}
	for _, p := range new.Phases {
		newPhases[p.Name] = p
	}
	for _, name := range names {
		deltas = append(deltas, flagDelta("phase "+name+" mean_sec", "timing", "s",
			oldPhases[name].MeanSec, newPhases[name].MeanSec, threshold))
	}
	return deltas
}

// CompareCounters compares the counter aggregates present in both
// reports (messages, bytes, accesses, tree ops), sorted by name. A
// counter growing beyond the threshold is a regression: more traffic
// or more physical accesses for the same configuration.
func CompareCounters(old, new *Report, threshold float64) []Delta {
	var names []string
	for name := range new.Counters {
		if _, ok := old.Counters[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var deltas []Delta
	for _, name := range names {
		deltas = append(deltas, flagDelta("counter "+name, "counter", "count",
			float64(old.Counters[name]), float64(new.Counters[name]), threshold))
	}
	return deltas
}

// CompareImbalance compares the per-phase load-imbalance factors
// (max/mean busy time) present in both reports, sorted by phase, plus
// the critical-path duration when both reports carry one. Imbalance
// growing beyond the threshold means the same configuration now
// distributes its load worse — a regression the timing comparison can
// miss while the mean stays flat.
func CompareImbalance(old, new *Report, threshold float64) []Delta {
	oldPhases := map[string]ImbalanceStat{}
	for _, p := range old.Imbalance {
		oldPhases[p.Phase] = p
	}
	var names []string
	newPhases := map[string]ImbalanceStat{}
	for _, p := range new.Imbalance {
		newPhases[p.Phase] = p
		if _, ok := oldPhases[p.Phase]; ok {
			names = append(names, p.Phase)
		}
	}
	sort.Strings(names)
	var deltas []Delta
	for _, name := range names {
		deltas = append(deltas, flagDelta("imbalance "+name+" max/mean", "imbalance", "ratio",
			oldPhases[name].Imbalance, newPhases[name].Imbalance, threshold))
	}
	if old.CritPath != nil && new.CritPath != nil {
		deltas = append(deltas, flagDelta("critpath path_sec", "imbalance", "s",
			old.CritPath.PathSec, new.CritPath.PathSec, threshold))
	}
	return deltas
}

// CompareFlowsim compares the contention-kernel accuracy telemetry of
// two reports. The observed error growing beyond the threshold is a
// regression, and an observed error exceeding the run's own requested
// eps is always one — the bounded-error contract is broken no matter
// what the baseline said. Both reports must carry a flowsim section
// for anything to compare.
func CompareFlowsim(old, new *Report, threshold float64) []Delta {
	if old.Flowsim == nil || new.Flowsim == nil {
		return nil
	}
	d := flagDelta("flowsim observed_err", "flowsim", "ratio",
		old.Flowsim.ObservedErr, new.Flowsim.ObservedErr, threshold)
	if new.Flowsim.ApproxEps > 0 && new.Flowsim.ObservedErr > new.Flowsim.ApproxEps {
		d.Regression = true
	}
	deltas := []Delta{d}
	if old.Flowsim.ApproxEps != new.Flowsim.ApproxEps {
		// A changed bound is a config drift worth a line, not a timing
		// regression on its own.
		deltas = append(deltas, Delta{Metric: "flowsim approx_eps", Class: "flowsim", Unit: "ratio",
			Old: old.Flowsim.ApproxEps, New: new.Flowsim.ApproxEps})
	}
	if old.Flowsim.ApproxSec > 0 && new.Flowsim.ApproxSec > 0 {
		deltas = append(deltas, flagDelta("flowsim approx_sec", "flowsim", "s",
			old.Flowsim.ApproxSec, new.Flowsim.ApproxSec, threshold))
	}
	return deltas
}

// CompareService compares the render-service load-test sections of
// two reports, matching sweep points by concurrency. p99 latency
// rising beyond the threshold is a regression; throughput (rps)
// *falling* beyond the threshold is a regression; the error rate
// rising beyond the threshold relative (with a 0.1% absolute floor so
// a single flaky request out of thousands doesn't gate) is a
// regression. Both reports must carry a service section for anything
// to compare.
func CompareService(old, new *Report, threshold float64) []Delta {
	if old.Service == nil || new.Service == nil {
		return nil
	}
	oldPts := map[int]ServicePoint{}
	for _, p := range old.Service.Points {
		oldPts[p.Concurrency] = p
	}
	var deltas []Delta
	for _, np := range new.Service.Points {
		op, ok := oldPts[np.Concurrency]
		if !ok {
			continue
		}
		tag := fmt.Sprintf("service c=%d ", np.Concurrency)
		deltas = append(deltas, flagDelta(tag+"p99_ms", "service", "s",
			op.P99Ms/1e3, np.P99Ms/1e3, threshold))
		rps := Delta{Metric: tag + "rps", Class: "service", Unit: "count",
			Old: op.RPS, New: np.RPS}
		if op.RPS > 0 && (op.RPS-np.RPS)/op.RPS > threshold {
			rps.Regression = true
		}
		deltas = append(deltas, rps)
		er := Delta{Metric: tag + "error_rate", Class: "service", Unit: "ratio",
			Old: op.ErrorRate(), New: np.ErrorRate()}
		if np.ErrorRate()-op.ErrorRate() > 0.001 &&
			(op.ErrorRate() == 0 || (np.ErrorRate()-op.ErrorRate())/op.ErrorRate() > threshold) {
			er.Regression = true
		}
		deltas = append(deltas, er)
	}
	return deltas
}

// statusRank orders claim statuses by badness for regression checks.
func statusRank(s string) float64 {
	switch s {
	case "pass":
		return 0
	case "warn":
		return 1
	}
	return 2
}

// CompareFidelity compares the fidelity scorecards of two reports.
// The aggregate score *dropping* by more than threshold (relative) is
// a regression, as is any individual claim's status getting worse
// (pass -> warn/fail, warn -> fail) — shape predicates flipping from
// holding to broken fail regardless of how the aggregate moves. Both
// reports must carry a fidelity section for anything to compare.
func CompareFidelity(old, new *Report, threshold float64) []Delta {
	if old.Fidelity == nil || new.Fidelity == nil {
		return nil
	}
	d := Delta{Metric: "fidelity score", Class: "fidelity", Unit: "score",
		Old: old.Fidelity.Score, New: new.Fidelity.Score}
	if d.Old > 0 && (d.Old-d.New)/d.Old > threshold {
		d.Regression = true
	}
	deltas := []Delta{d}
	oldClaims := map[string]ClaimStat{}
	for _, c := range old.Fidelity.Claims {
		oldClaims[c.ID] = c
	}
	var ids []string
	newClaims := map[string]ClaimStat{}
	for _, c := range new.Fidelity.Claims {
		newClaims[c.ID] = c
		if _, ok := oldClaims[c.ID]; ok {
			ids = append(ids, c.ID)
		}
	}
	sort.Strings(ids)
	for _, id := range ids {
		o, n := statusRank(oldClaims[id].Status), statusRank(newClaims[id].Status)
		if o == n {
			continue // only status changes are worth a line
		}
		deltas = append(deltas, Delta{
			Metric: "fidelity claim " + id, Class: "fidelity", Unit: "status",
			Old: o, New: n, Regression: n > o,
		})
	}
	return deltas
}

// Table renders the scorecard as an aligned text table — the compact
// view the debug endpoint serves at /fidelity?text=1. The full report
// with per-figure sections is fidelity.Scorecard.Text.
func (f *FidelityStat) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "paper-fidelity scorecard: score %.3f (%d pass, %d warn, %d fail of %d claims)\n",
		f.Score, f.Pass, f.Warn, f.Fail, len(f.Claims))
	w := 0
	for _, c := range f.Claims {
		if len(c.ID) > w {
			w = len(c.ID)
		}
	}
	for _, c := range f.Claims {
		relerr := "      -"
		if c.RelErr != nil {
			relerr = fmt.Sprintf("%6.1f%%", 100**c.RelErr)
		}
		fmt.Fprintf(&b, "%-4s %-*s  %s  paper %s, measured %s\n",
			c.Status, w, c.ID, relerr, c.Paper, c.Measured)
	}
	return b.String()
}

func flagDelta(metric, class, unit string, old, new, threshold float64) Delta {
	d := Delta{Metric: metric, Class: class, Unit: unit, Old: old, New: new}
	// Tiny absolute baselines are noise: only flag metrics that
	// register at least a microsecond (or one count) in the baseline.
	if old > 1e-6 && (new-old)/old > threshold {
		d.Regression = true
	}
	return d
}
