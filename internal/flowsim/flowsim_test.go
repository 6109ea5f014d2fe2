package flowsim

import (
	"math"
	"testing"

	"bgpvr/internal/grid"
	"bgpvr/internal/torus"
)

func params() torus.Params {
	p := torus.NewBGP()
	return p
}

// simulate runs the exact kernel at gang width 1, the configuration
// the bench callers use.
func simulate(top torus.Topology, p torus.Params, msgs []torus.Message) Result {
	r, _ := SimulateOpt(top, p, msgs, Options{Workers: 1})
	return r
}

func TestSingleFlowLinkSpeed(t *testing.T) {
	top := torus.NewTopology(8)
	p := params()
	bytes := int64(64 << 20)
	r := simulate(top, p, []torus.Message{{Src: 0, Dst: 1, Bytes: bytes}})
	want := float64(bytes)/p.LinkBandwidth + p.SendOverhead + p.RecvOverhead + p.RouteLatency
	if math.Abs(r.Time-want) > 1e-6*want {
		t.Errorf("single flow time %v, want %v", r.Time, want)
	}
	if r.Completions != 1 {
		t.Errorf("completions = %d", r.Completions)
	}
}

func TestSharedLinkHalves(t *testing.T) {
	// Two flows over the same directed link take twice as long.
	top := torus.Topology{Dims: grid.I(8, 1, 1)}
	p := params()
	bytes := int64(8 << 20)
	// 0->2 and 0->2 share links (0->1, 1->2).
	r := simulate(top, p, []torus.Message{
		{Src: 0, Dst: 2, Bytes: bytes},
		{Src: 0, Dst: 2, Bytes: bytes},
	})
	want := 2 * float64(bytes) / p.LinkBandwidth
	if math.Abs(r.Time-want)/want > 0.01 {
		t.Errorf("shared link time %v, want ~%v", r.Time, want)
	}
}

func TestDisjointFlowsParallel(t *testing.T) {
	top := torus.NewTopology(64)
	p := params()
	bytes := int64(16 << 20)
	// Four flows with disjoint routes run in parallel: total time is
	// one flow's time.
	msgs := []torus.Message{
		{Src: 0, Dst: 1, Bytes: bytes},
		{Src: 2, Dst: 3, Bytes: bytes},
		{Src: 20, Dst: 21, Bytes: bytes},
		{Src: 40, Dst: 41, Bytes: bytes},
	}
	r := simulate(top, p, msgs)
	want := float64(bytes) / p.LinkBandwidth
	if math.Abs(r.Time-want)/want > 0.01 {
		t.Errorf("disjoint flows time %v, want ~%v", r.Time, want)
	}
}

func TestShortFlowReturnsBandwidth(t *testing.T) {
	// A short flow sharing a link with a long one finishes, and the
	// long one speeds up: total time < serialized, > the long flow alone.
	top := torus.Topology{Dims: grid.I(4, 1, 1)}
	p := params()
	long, short := int64(32<<20), int64(4<<20)
	r := simulate(top, p, []torus.Message{
		{Src: 0, Dst: 1, Bytes: long},
		{Src: 0, Dst: 1, Bytes: short},
	})
	alone := float64(long) / p.LinkBandwidth
	serial := float64(long+short) / p.LinkBandwidth
	if r.Time < alone || r.Time > serial*1.01 {
		t.Errorf("time %v outside (%v, %v)", r.Time, alone, serial)
	}
	// Expected exactly: short shares until done (2*short/bw), then long
	// finishes at full rate: total = (long+short)/bw.
	if math.Abs(r.Time-serial)/serial > 0.01 {
		t.Errorf("fluid completion %v, want %v", r.Time, serial)
	}
}

func TestSelfAndEmptyMessages(t *testing.T) {
	top := torus.NewTopology(8)
	p := params()
	r := simulate(top, p, []torus.Message{{Src: 3, Dst: 3, Bytes: 1 << 20}, {Src: 0, Dst: 1, Bytes: 0}})
	if r.Completions != 0 {
		t.Errorf("completions = %d", r.Completions)
	}
	if r.Time <= 0 {
		t.Error("overheads should still cost")
	}
}

// The analytic bottleneck model and the flow simulation must agree
// within a factor ~2 on realistic compositing-like traffic (the flow
// sim has no queue penalty, so compare with it disabled).
func TestAgreesWithBottleneckModel(t *testing.T) {
	top := torus.NewTopology(128)
	p := params()
	p.QueuePenalty = 0
	var msgs []torus.Message
	for i := 0; i < 512; i++ {
		msgs = append(msgs, torus.Message{
			Src:   (i * 37) % 128,
			Dst:   (i * 11) % 128,
			Bytes: int64(64<<10 + (i%7)*8192),
		})
	}
	sim := simulate(top, p, msgs)
	model := torus.Phase(top, p, msgs, true)
	ratio := sim.Time / model.Time
	if ratio < 0.4 || ratio > 2.5 {
		t.Errorf("flow sim %v vs bottleneck model %v (ratio %.2f)", sim.Time, model.Time, ratio)
	}
}

// TestFlowTimesBitIdentical pins the observation-only contract:
// attaching a FlowTimes must not change the simulated result, and the
// per-message completion times must be positive, bounded by the phase
// time, with the last completion equal to the bandwidth-limited part.
func TestFlowTimesBitIdentical(t *testing.T) {
	top := torus.NewTopology(64)
	p := params()
	msgs := []torus.Message{
		{Src: 0, Dst: 5, Bytes: 4 << 20},
		{Src: 2, Dst: 5, Bytes: 8 << 20},
		{Src: 7, Dst: 7, Bytes: 1 << 20}, // self: overhead only
		{Src: 9, Dst: 12, Bytes: 0},      // empty: overhead only
		{Src: 30, Dst: 31, Bytes: 2 << 20},
	}
	base := simulate(top, p, msgs)
	var ft FlowTimes
	timed, _ := SimulateOpt(top, p, msgs, Options{Workers: 1, Times: &ft})
	if base != timed {
		t.Fatalf("FlowTimes changed the result: %+v vs %+v", base, timed)
	}
	if len(ft.Done) != len(msgs) {
		t.Fatalf("Done has %d entries for %d messages", len(ft.Done), len(msgs))
	}
	var last float64
	for i, d := range ft.Done {
		if d <= 0 || d > base.Time+1e-12 {
			t.Errorf("Done[%d] = %v outside (0, %v]", i, d, base.Time)
		}
		if d > last {
			last = d
		}
	}
	if math.Abs(last-base.Time) > 1e-9 {
		t.Errorf("last completion %v != phase time %v", last, base.Time)
	}
	oh := p.SendOverhead + p.RecvOverhead + p.RouteLatency
	if math.Abs(ft.Done[2]-oh) > 1e-12 || math.Abs(ft.Done[3]-oh) > 1e-12 {
		t.Errorf("overhead-only messages: Done = %v/%v, want %v", ft.Done[2], ft.Done[3], oh)
	}
}
