// Package telemetry turns the network and I/O models' internal load
// accounting into inspectable data: per-directed-link contention maps
// for the torus (bytes carried, concurrent flows, bottleneck events,
// time-weighted utilization), log2 message- and access-size histograms
// for the comm runtime and the MPI-IO aggregators, a live debug HTTP
// endpoint (net/http/pprof + expvar + a JSON snapshot), and a
// machine-readable perf report that CI tracks across PRs.
//
// The paper's two headline results are network effects — direct-send
// compositing falls off peak link bandwidth because of per-message
// overhead and contention, and collective-I/O throughput depends on the
// access pattern hitting the aggregators — so this package is the
// "where in the machine" companion to package trace's "when per rank".
//
// # Overhead discipline
//
// Like package trace, every recording entry point is a no-op on the nil
// receiver and allocates nothing: hot paths (comm.Send, the flowsim
// event loop, torus.Phase routing) carry a possibly-nil handle and pay
// one predictable branch when telemetry is off. Tests pin this with
// testing.AllocsPerRun.
package telemetry

import (
	"fmt"
	"math/bits"
	"strings"
	"sync/atomic"

	"bgpvr/internal/tree"
)

// histBuckets is the number of log2 size buckets: bucket 0 holds size
// 0, bucket i >= 1 holds sizes in [2^(i-1), 2^i - 1].
const histBuckets = 64

// Histogram is a log2-bucketed size histogram. The zero value is ready
// to use; Observe is safe for concurrent use and on the nil receiver.
type Histogram struct {
	counts [histBuckets]int64 // atomic
	sum    int64              // atomic
}

// bucketOf maps a size to its bucket: bits.Len of the value, so 0->0,
// 1->1, 2..3->2, 4..7->3, and so on.
func bucketOf(n int64) int {
	if n < 0 {
		n = 0
	}
	b := bits.Len64(uint64(n))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// BucketBounds returns the inclusive [lo, hi] size range of bucket i.
func BucketBounds(i int) (lo, hi int64) {
	if i <= 0 {
		return 0, 0
	}
	return 1 << (i - 1), 1<<i - 1
}

// Observe records one size. No-op on the nil receiver; never allocates.
func (h *Histogram) Observe(n int64) {
	if h == nil {
		return
	}
	atomic.AddInt64(&h.counts[bucketOf(n)], 1)
	atomic.AddInt64(&h.sum, n)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var c int64
	for i := range h.counts {
		c += atomic.LoadInt64(&h.counts[i])
	}
	return c
}

// Sum returns the total of all observed sizes.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return atomic.LoadInt64(&h.sum)
}

// Bucket returns the count in bucket i.
func (h *Histogram) Bucket(i int) int64 {
	if h == nil || i < 0 || i >= histBuckets {
		return 0
	}
	return atomic.LoadInt64(&h.counts[i])
}

// Mean returns the mean observed size (0 with no observations).
func (h *Histogram) Mean() float64 {
	c := h.Count()
	if c == 0 {
		return 0
	}
	return float64(h.Sum()) / float64(c)
}

// String renders the non-empty buckets, smallest first, e.g.
// "[256,511]:12 [512,1023]:3 (15 obs, 5.1 KB)".
func (h *Histogram) String() string {
	if h == nil || h.Count() == 0 {
		return "(empty)"
	}
	var sb strings.Builder
	for i := 0; i < histBuckets; i++ {
		n := h.Bucket(i)
		if n == 0 {
			continue
		}
		lo, hi := BucketBounds(i)
		if sb.Len() > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "[%d,%d]:%d", lo, hi, n)
	}
	fmt.Fprintf(&sb, " (%d obs, mean %.0f B)", h.Count(), h.Mean())
	return sb.String()
}

// LinkUsage accumulates per-directed-link load for one network phase.
// It is filled by flowsim.SimulateOpt (Options.Usage) or
// torus.PhaseRecorded and
// consumed by the exporters in this package. Not safe for concurrent
// recording (both producers are single-threaded); every method is a
// no-op on the nil receiver.
type LinkUsage struct {
	// Capacity is the per-link bandwidth in bytes/s (utilization
	// denominator).
	Capacity float64
	// Duration is the phase completion time in seconds; exporters
	// normalize utilization by it. Set by the producer via SetDuration.
	Duration float64
	// Bytes[l] is the payload carried over directed link l. In the
	// fluid and bottleneck models every routed byte crosses every link
	// of its route, so summing Bytes over links equals sum over
	// messages of bytes*hops.
	Bytes []int64
	// Flows[l] counts the flows routed over link l. All flows of a
	// phase start concurrently, so this is also the peak number of
	// concurrent flows the link sees.
	Flows []int32
	// Bottlenecks[l] counts how many times link l was selected as the
	// max-min bottleneck during rate allocation (flowsim only; the
	// analytic model leaves it zero).
	Bottlenecks []int32
	// BusySeconds[l] is the time link l carried at least one unfinished
	// flow (flowsim only). Long busy time with low utilization marks
	// links whose flows are starved by contention elsewhere.
	BusySeconds []float64
}

// NewLinkUsage returns a LinkUsage for links directed links of the
// given capacity.
func NewLinkUsage(links int, capacity float64) *LinkUsage {
	return &LinkUsage{
		Capacity:    capacity,
		Bytes:       make([]int64, links),
		Flows:       make([]int32, links),
		Bottlenecks: make([]int32, links),
		BusySeconds: make([]float64, links),
	}
}

// Links returns the number of links (0 on nil).
func (u *LinkUsage) Links() int {
	if u == nil {
		return 0
	}
	return len(u.Bytes)
}

// RecordLink adds one flow of the given payload to link l. It
// implements torus.LinkRecorder.
func (u *LinkUsage) RecordLink(l int, bytes int64) {
	if u == nil {
		return
	}
	u.Bytes[l] += bytes
	u.Flows[l]++
}

// AddBottleneck counts one bottleneck-selection event on link l.
func (u *LinkUsage) AddBottleneck(l int) {
	if u == nil {
		return
	}
	u.Bottlenecks[l]++
}

// AddBusy adds sec seconds of busy (occupied) time to link l.
func (u *LinkUsage) AddBusy(l int, sec float64) {
	if u == nil {
		return
	}
	u.BusySeconds[l] += sec
}

// SetDuration records the phase completion time.
func (u *LinkUsage) SetDuration(sec float64) {
	if u == nil {
		return
	}
	u.Duration = sec
}

// Utilization returns link l's time-weighted utilization: the fraction
// of the phase the link spends transferring at full rate,
// Bytes[l] / (Capacity * Duration). Zero when capacity or duration is
// unknown.
func (u *LinkUsage) Utilization(l int) float64 {
	if u == nil || u.Capacity <= 0 || u.Duration <= 0 {
		return 0
	}
	return float64(u.Bytes[l]) / (u.Capacity * u.Duration)
}

// TotalBytes returns the payload summed over all links (bytes * hops
// over all routed messages).
func (u *LinkUsage) TotalBytes() int64 {
	if u == nil {
		return 0
	}
	var t int64
	for _, b := range u.Bytes {
		t += b
	}
	return t
}

// MaxBytes returns the heaviest link's payload and its index (-1 when
// empty).
func (u *LinkUsage) MaxBytes() (int64, int) {
	if u == nil {
		return 0, -1
	}
	var mx int64
	idx := -1
	for l, b := range u.Bytes {
		if b > mx {
			mx, idx = b, l
		}
	}
	return mx, idx
}

// MaxFlows returns the most contended link's flow count and its index
// (-1 when empty).
func (u *LinkUsage) MaxFlows() (int32, int) {
	if u == nil {
		return 0, -1
	}
	var mx int32
	idx := -1
	for l, f := range u.Flows {
		if f > mx {
			mx, idx = f, l
		}
	}
	return mx, idx
}

// PeakUtilization returns the maximum per-link utilization.
func (u *LinkUsage) PeakUtilization() float64 {
	if u == nil {
		return 0
	}
	var mx float64
	for l := range u.Bytes {
		if v := u.Utilization(l); v > mx {
			mx = v
		}
	}
	return mx
}

// TotalBottlenecks sums the bottleneck events over all links.
func (u *LinkUsage) TotalBottlenecks() int64 {
	if u == nil {
		return 0
	}
	var t int64
	for _, b := range u.Bottlenecks {
		t += int64(b)
	}
	return t
}

// NetTelemetry aggregates one run's network and I/O telemetry: the
// size histograms fed by the comm runtime and the MPI-IO aggregators,
// and (model mode) the compositing phase's link usage. The nil
// receiver is a valid no-op sink, mirroring trace.Tracer.
type NetTelemetry struct {
	// SendSizes histograms every point-to-point payload (comm.Send in
	// real mode, the compositing schedule's messages in model mode).
	SendSizes Histogram
	// CollectiveSizes histograms the per-call payload of collective
	// operations (bcast/reduce/gather/alltoallv...).
	CollectiveSizes Histogram
	// AccessSizes histograms the physical access sizes the MPI-IO
	// aggregators issue (the Fig 5-7 access-size axis).
	AccessSizes Histogram
	// Links is the compositing phase's per-link usage (model mode;
	// nil when not recorded).
	Links *LinkUsage
	// Tree counts the collective-network operations (barriers between
	// stages, reductions) and their payload.
	Tree tree.Usage
}

// ObserveSend records one point-to-point payload size.
func (n *NetTelemetry) ObserveSend(bytes int64) {
	if n == nil {
		return
	}
	n.SendSizes.Observe(bytes)
}

// ObserveCollective records one collective call's payload size.
func (n *NetTelemetry) ObserveCollective(bytes int64) {
	if n == nil {
		return
	}
	n.CollectiveSizes.Observe(bytes)
}

// ObserveAccess records one physical I/O access size.
func (n *NetTelemetry) ObserveAccess(bytes int64) {
	if n == nil {
		return
	}
	n.AccessSizes.Observe(bytes)
}

// ObserveTree records one tree-network collective moving b payload
// bytes.
func (n *NetTelemetry) ObserveTree(op tree.Op, b int64) {
	if n == nil {
		return
	}
	n.Tree.Observe(op, b)
}
