package flowsim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"bgpvr/internal/grid"
	"bgpvr/internal/torus"
)

// approxRefConfigs are the seeded reference configs the clustered
// contention approximation is validated on: the exact kernel is the
// executable spec, and every (config, eps) pair must land within the
// requested bound. These are the configs SideForEps's bands were
// calibrated against; loosening the mapping must keep this suite
// green.
func approxRefConfigs() []struct {
	nodes, n int
	seed     int64
} {
	return []struct {
		nodes, n int
		seed     int64
	}{
		{64, 160, 5}, {64, 160, 36}, {64, 160, 67},
		{512, 1280, 5}, {512, 1280, 36}, {512, 1280, 67},
		{1024, 2560, 5}, {1024, 2560, 36},
	}
}

// TestApproxErrorWithinEps is the bounded-error property test: for
// every seeded reference config and every calibrated eps band, the
// approximate phase time is within eps of the exact kernel's.
func TestApproxErrorWithinEps(t *testing.T) {
	p := params()
	for _, cfg := range approxRefConfigs() {
		top := torus.NewTopology(cfg.nodes)
		rng := rand.New(rand.NewSource(cfg.seed))
		msgs := randomMsgs(rng, top.Nodes(), cfg.n)
		exact := simulate(top, p, msgs)
		for _, eps := range []float64{0.02, 0.08, 0.25} {
			t.Run(fmt.Sprintf("nodes%d/seed%d/eps%g", cfg.nodes, cfg.seed, eps), func(t *testing.T) {
				res, info := SimulateOpt(top, p, msgs, Options{ApproxEps: eps})
				if info == nil {
					t.Fatal("approx mode returned no ApproxInfo")
				}
				err := math.Abs(res.Time-exact.Time) / exact.Time
				if err > eps {
					t.Errorf("observed error %.4f exceeds eps %g (side %d, exact %.6g, approx %.6g)",
						err, eps, info.Side, exact.Time, res.Time)
				}
				// The certified floor must hold: the exact time can
				// never undershoot it.
				if exact.Time < info.LowerBound*(1-1e-9) {
					t.Errorf("exact time %.6g below certified lower bound %.6g", exact.Time, info.LowerBound)
				}
				if info.BoundGap < 0 || info.BoundGap >= 1 {
					t.Errorf("BoundGap %v out of range", info.BoundGap)
				}
			})
		}
	}
}

// TestApproxSkewedPattern repeats the bound check on a direct-send-like
// skewed pattern (many senders funneling into few compositor nodes),
// the traffic shape the 32K scale point simulates.
func TestApproxSkewedPattern(t *testing.T) {
	p := params()
	for _, nodes := range []int{512, 1024} {
		top := torus.NewTopology(nodes)
		rng := rand.New(rand.NewSource(99))
		comps := nodes / 16
		var msgs []torus.Message
		for s := 0; s < nodes; s++ {
			for j := 0; j < 3; j++ {
				msgs = append(msgs, torus.Message{
					Src: s, Dst: (rng.Intn(comps) * 16) % nodes, Bytes: 1 + rng.Int63n(1<<20),
				})
			}
		}
		exact := simulate(top, p, msgs)
		for _, eps := range []float64{0.02, 0.08, 0.25} {
			res, _ := SimulateOpt(top, p, msgs, Options{ApproxEps: eps})
			if err := math.Abs(res.Time-exact.Time) / exact.Time; err > eps {
				t.Errorf("nodes=%d eps=%g: observed error %.4f exceeds bound", nodes, eps, err)
			}
		}
	}
}

// TestApproxEndpointAggWithinEps repeats the bounded-error property
// test with endpoint-hop aggregation dialed on: wherever the
// decomposition clears the engagement floor (side >= 4 with at least
// endpointAggMinRegions regions) the coarser model — only injection
// and ejection hops physical — must still land within eps of the
// exact kernel, and the certified lower bound must still hold.
func TestApproxEndpointAggWithinEps(t *testing.T) {
	p := params()
	for _, cfg := range approxRefConfigs() {
		top := torus.NewTopology(cfg.nodes)
		rng := rand.New(rand.NewSource(cfg.seed))
		msgs := randomMsgs(rng, top.Nodes(), cfg.n)
		exact := simulate(top, p, msgs)
		for _, eps := range []float64{0.02, 0.08, 0.25} {
			t.Run(fmt.Sprintf("nodes%d/seed%d/eps%g", cfg.nodes, cfg.seed, eps), func(t *testing.T) {
				res, info := SimulateOpt(top, p, msgs, Options{ApproxEps: eps, EndpointAgg: true})
				if info == nil {
					t.Fatal("approx mode returned no ApproxInfo")
				}
				if err := math.Abs(res.Time-exact.Time) / exact.Time; err > eps {
					t.Errorf("observed error %.4f exceeds eps %g (side %d, endpoint %v, exact %.6g, approx %.6g)",
						err, eps, info.Side, info.EndpointAgg, exact.Time, res.Time)
				}
				if exact.Time < info.LowerBound*(1-1e-9) {
					t.Errorf("exact time %.6g below certified lower bound %.6g", exact.Time, info.LowerBound)
				}
				if info.EndpointAgg && (info.Side < 4 || info.Regions < endpointAggMinRegions) {
					t.Errorf("endpoint aggregation engaged below its floor: %+v", info)
				}
				if info.UsedLinks <= 0 && res.Completions > 0 {
					t.Errorf("UsedLinks not measured: %+v", info)
				}
			})
		}
	}
}

// TestApproxEndpointAggShrinksModel pins the point of the dial: on a
// direct-send-like skewed pattern over a decomposition above the
// engagement floor, endpoint aggregation must (a) reference strictly
// fewer model links than the endpoint-exact clustering, (b) stay
// within eps of the exact kernel, and (c) keep worker-count
// determinism.
func TestApproxEndpointAggShrinksModel(t *testing.T) {
	p := params()
	const nodes, eps = 512, 0.08
	top := torus.NewTopology(nodes)
	rng := rand.New(rand.NewSource(99))
	comps := nodes / 16
	var msgs []torus.Message
	for s := 0; s < nodes; s++ {
		for j := 0; j < 3; j++ {
			msgs = append(msgs, torus.Message{
				Src: s, Dst: (rng.Intn(comps) * 16) % nodes, Bytes: 1 + rng.Int63n(1<<20),
			})
		}
	}
	exact := simulate(top, p, msgs)
	base, baseInfo := SimulateOpt(top, p, msgs, Options{ApproxEps: eps})
	res, info := SimulateOpt(top, p, msgs, Options{ApproxEps: eps, EndpointAgg: true})
	if !info.EndpointAgg {
		t.Fatalf("endpoint aggregation did not engage: %+v", info)
	}
	if baseInfo.EndpointAgg {
		t.Fatalf("endpoint aggregation engaged without the dial: %+v", baseInfo)
	}
	if info.UsedLinks >= baseInfo.UsedLinks {
		t.Errorf("endpoint aggregation kept %d model links, endpoint-exact %d — no reduction",
			info.UsedLinks, baseInfo.UsedLinks)
	}
	if err := math.Abs(res.Time-exact.Time) / exact.Time; err > eps {
		t.Errorf("observed error %.4f exceeds eps %g (exact %.6g, approx %.6g, base %.6g)",
			err, eps, exact.Time, res.Time, base.Time)
	}
	var ft1 FlowTimes
	want, _ := SimulateOpt(top, p, msgs, Options{ApproxEps: eps, EndpointAgg: true, Workers: 1, Times: &ft1})
	forceSharding(t)
	for _, workers := range []int{2, 4} {
		var ftW FlowTimes
		got, _ := SimulateOpt(top, p, msgs, Options{ApproxEps: eps, EndpointAgg: true, Workers: workers, Times: &ftW})
		if got != want {
			t.Errorf("workers=%d Result %+v, want %+v", workers, got, want)
		}
		for i := range msgs {
			if ftW.Done[i] != ft1.Done[i] {
				t.Fatalf("workers=%d msg %d done %v, want %v", workers, i, ftW.Done[i], ft1.Done[i])
			}
		}
	}
}

// TestApproxDegradesToExact pins the floor of the eps mapping: a bound
// tighter than the smallest calibrated band runs the exact kernel and
// reports a zero-width error band.
func TestApproxDegradesToExact(t *testing.T) {
	top := torus.NewTopology(64)
	p := params()
	rng := rand.New(rand.NewSource(3))
	msgs := randomMsgs(rng, top.Nodes(), 120)
	want := simulate(top, p, msgs)
	got, info := SimulateOpt(top, p, msgs, Options{ApproxEps: 0.005})
	if got != want {
		t.Errorf("eps below floor: Result %+v, exact %+v", got, want)
	}
	if info == nil || info.Side != 1 || info.Regions != top.Nodes() || info.BoundGap != 0 {
		t.Errorf("degraded ApproxInfo %+v, want side 1, %d regions, zero band", info, top.Nodes())
	}
}

// TestApproxShardedDeterministic checks worker count does not change
// approx results: the sharded and serial forms of the capacity-aware
// kernel must agree bit-for-bit too.
func TestApproxShardedDeterministic(t *testing.T) {
	forceSharding(t)
	top := torus.NewTopology(512)
	p := params()
	rng := rand.New(rand.NewSource(17))
	msgs := randomMsgs(rng, top.Nodes(), 800)
	var ft1 FlowTimes
	want, _ := SimulateOpt(top, p, msgs, Options{ApproxEps: 0.08, Workers: 1, Times: &ft1})
	for _, workers := range []int{2, 4} {
		var ftW FlowTimes
		got, _ := SimulateOpt(top, p, msgs, Options{ApproxEps: 0.08, Workers: workers, Times: &ftW})
		if got != want {
			t.Errorf("workers=%d Result %+v, want %+v", workers, got, want)
		}
		for i := range msgs {
			if ftW.Done[i] != ft1.Done[i] {
				t.Fatalf("workers=%d msg %d done %v, want %v", workers, i, ftW.Done[i], ft1.Done[i])
			}
		}
	}
}

// TestLowerBoundNotTightOnRing is the adversarial regression for the
// certified floor: on an 8-node ring two 5 MiB flows share link 1->2,
// and each is also throttled on its other hop, where it shares a link
// with a pair of 2.5 MiB flows. Every link carries at most 10 MiB, so
// the link-load lower bound is LB = 10 MiB / bandwidth, but max-min
// first runs every flow at a third of a link (the two triple-shared
// links bottleneck) and the big flows only get half of 1->2 once the
// small ones finish: the exact makespan is 7.5/3 + 2.5 = 12.5 MiB of
// link time, 1.25x LB. The floor the approximation reports must still
// sit at or below the exact time for every eps that engages it.
func TestLowerBoundNotTightOnRing(t *testing.T) {
	top := torus.Topology{Dims: grid.I(8, 1, 1)}
	p := params()
	p.SendOverhead, p.RecvOverhead, p.RouteLatency = 0, 0, 0
	const big, small = 5 << 20, 5 << 19
	msgs := []torus.Message{
		{Src: 0, Dst: 2, Bytes: big},
		{Src: 1, Dst: 3, Bytes: big},
		{Src: 7, Dst: 1, Bytes: small},
		{Src: 7, Dst: 1, Bytes: small},
		{Src: 2, Dst: 4, Bytes: small},
		{Src: 2, Dst: 4, Bytes: small},
	}
	px := func(node int) int { return torus.LinkIndex(node, 0) } // +x link out of node
	wantRoutes := map[[2]int][]int{
		{0, 2}: {px(0), px(1)},
		{1, 3}: {px(1), px(2)},
		{7, 1}: {px(7), px(0)},
		{2, 4}: {px(2), px(3)},
	}
	for pair, want := range wantRoutes {
		var got []int
		top.Route(pair[0], pair[1], func(l int) { got = append(got, l) })
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("route %d->%d visits links %v, want %v", pair[0], pair[1], got, want)
		}
	}

	lb := float64(10<<20) / p.LinkBandwidth
	exact := simulate(top, p, msgs)
	if want := 1.25 * lb; math.Abs(exact.Time-want) > 1e-12*want {
		t.Fatalf("exact makespan %.9g, want 1.25 x LB = %.9g", exact.Time, want)
	}
	for _, eps := range []float64{0.02, 0.08, 0.25} {
		res, info := SimulateOpt(top, p, msgs, Options{ApproxEps: eps})
		if info == nil || info.Side <= 1 {
			t.Fatalf("eps %g did not engage the approximation: %+v", eps, info)
		}
		if info.LowerBound > exact.Time {
			t.Errorf("eps %g: certified lower bound %.9g exceeds exact time %.9g", eps, info.LowerBound, exact.Time)
		}
		t.Logf("eps %g: side %d, approx %.6g (%.4f of exact), LB %.6g, BoundGap %.4f, clamped %v",
			eps, info.Side, res.Time, res.Time/exact.Time, info.LowerBound, info.BoundGap, info.Clamped)
	}
}
