package flowsim

import (
	"testing"

	"bgpvr/internal/telemetry"
	"bgpvr/internal/torus"
)

func telemetryWorkload(n, count int) (torus.Topology, []torus.Message) {
	top := torus.NewTopology(n)
	var msgs []torus.Message
	for i := 0; i < count; i++ {
		msgs = append(msgs, torus.Message{
			Src:   (i * 37) % n,
			Dst:   (i * 11) % n,
			Bytes: int64(32<<10 + (i%13)*4096),
		})
	}
	return top, msgs
}

// Per-link byte accounting must conserve traffic: every routed byte
// crosses every link of its dimension-ordered route, so the per-link
// totals sum to sum(bytes * hops) over the routed messages.
func TestUsageBytesTimesHops(t *testing.T) {
	top, msgs := telemetryWorkload(128, 500)
	p := params()
	u := telemetry.NewLinkUsage(top.NumLinks(), p.LinkBandwidth)
	res, _ := SimulateOpt(top, p, msgs, Options{Workers: 1, Usage: u})
	var want, flows int64
	for _, m := range msgs {
		if m.Src == m.Dst || m.Bytes == 0 {
			continue
		}
		h := int64(top.Hops(m.Src, m.Dst))
		want += m.Bytes * h
		flows += h
	}
	if got := u.TotalBytes(); got != want {
		t.Errorf("link bytes total %d, want sum(bytes*hops) = %d", got, want)
	}
	var gotFlows int64
	for _, f := range u.Flows {
		gotFlows += int64(f)
	}
	if gotFlows != flows {
		t.Errorf("link flows total %d, want sum(hops) = %d", gotFlows, flows)
	}
	if u.Capacity != p.LinkBandwidth {
		t.Errorf("capacity %v, want %v", u.Capacity, p.LinkBandwidth)
	}
	if u.Duration != res.Time {
		t.Errorf("duration %v, want phase time %v", u.Duration, res.Time)
	}
	// Contended workload: max-min must have selected bottlenecks, and
	// the busiest link was occupied for a positive fraction of the phase.
	if u.TotalBottlenecks() == 0 {
		t.Error("no bottleneck events on a contended workload")
	}
	_, l := u.MaxBytes()
	if l < 0 || u.BusySeconds[l] <= 0 || u.BusySeconds[l] > res.Time*(1+1e-9) {
		t.Errorf("busiest link busy %v of phase %v", u.BusySeconds[l], res.Time)
	}
}

// Enabling telemetry must not perturb the simulation: the modeled
// times are bit-identical with and without a recorder.
func TestUsageBitIdentical(t *testing.T) {
	top, msgs := telemetryWorkload(128, 500)
	p := params()
	plain := simulate(top, p, msgs)
	u := telemetry.NewLinkUsage(top.NumLinks(), p.LinkBandwidth)
	rec, _ := SimulateOpt(top, p, msgs, Options{Workers: 1, Usage: u})
	if plain != rec {
		t.Errorf("telemetry perturbed the simulation: %+v != %+v", rec, plain)
	}
}

// With telemetry disabled, SimulateOpt allocates only setup state. The
// max-min state (avail/unfrozen, bucket queue) is hoisted out of the
// completion loop and reset in place, so allocations come only from
// setup (route and per-link flow lists). Re-allocating inside the loop
// would add ~2 allocations per completion (+400 here) and trip this
// bound.
func TestSimulateAllocsTelemetryOff(t *testing.T) {
	top, msgs := telemetryWorkload(64, 200)
	p := params()
	simulate(top, p, msgs) // warm up
	plain := testing.AllocsPerRun(5, func() { simulate(top, p, msgs) })
	if plain > 1500 {
		t.Errorf("SimulateOpt allocates %v per run; per-event state not hoisted?", plain)
	}
}

func BenchmarkSimulate(b *testing.B) {
	top, msgs := telemetryWorkload(512, 2048)
	p := params()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SimulateOpt(top, p, msgs, Options{Workers: 1})
	}
}

func BenchmarkSimulateTelemetry(b *testing.B) {
	top, msgs := telemetryWorkload(512, 2048)
	p := params()
	u := telemetry.NewLinkUsage(top.NumLinks(), p.LinkBandwidth)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SimulateOpt(top, p, msgs, Options{Workers: 1, Usage: u})
	}
}
