package flowsim

import (
	"fmt"
	"math/rand"
	"testing"

	"bgpvr/internal/grid"
	"bgpvr/internal/telemetry"
	"bgpvr/internal/torus"
)

// randomMsgs draws a message set that exercises every setup path:
// shared routes, self-messages, zero-byte messages, and heavy-tailed
// sizes (direct-send fragments span orders of magnitude).
func randomMsgs(rng *rand.Rand, nodes, n int) []torus.Message {
	msgs := make([]torus.Message, n)
	for i := range msgs {
		src := rng.Intn(nodes)
		dst := rng.Intn(nodes)
		var bytes int64
		switch rng.Intn(10) {
		case 0:
			dst = src // pure-overhead flow
			bytes = 1 << 10
		case 1:
			bytes = 0 // zero-byte flow
		case 2:
			bytes = 1 + rng.Int63n(1<<8) // tiny: finishes early, returns bandwidth
		default:
			bytes = 1 + rng.Int63n(1<<22)
		}
		msgs[i] = torus.Message{Src: src, Dst: dst, Bytes: bytes}
	}
	return msgs
}

// sameUsage fails unless the two link-usage records are bit-identical.
func sameUsage(t *testing.T, got, want *telemetry.LinkUsage) {
	t.Helper()
	if got.Capacity != want.Capacity || got.Duration != want.Duration {
		t.Errorf("usage capacity/duration (%v, %v), want (%v, %v)",
			got.Capacity, got.Duration, want.Capacity, want.Duration)
	}
	for l := range want.Bytes {
		if got.Bytes[l] != want.Bytes[l] || got.Flows[l] != want.Flows[l] ||
			got.Bottlenecks[l] != want.Bottlenecks[l] || got.BusySeconds[l] != want.BusySeconds[l] {
			t.Fatalf("link %d usage (bytes %d flows %d bott %d busy %v), want (%d %d %d %v)",
				l, got.Bytes[l], got.Flows[l], got.Bottlenecks[l], got.BusySeconds[l],
				want.Bytes[l], want.Flows[l], want.Bottlenecks[l], want.BusySeconds[l])
		}
	}
}

// matchesRescan runs SimulateOpt in exact mode with opt's gang width
// and the full-rescan reference on the same messages, and fails unless
// Result, every per-message completion time, and every per-link
// telemetry field are bit-identical (exact float64 equality, no
// tolerance). Exact mode must also report no ApproxInfo.
func matchesRescan(t *testing.T, top torus.Topology, p torus.Params, msgs []torus.Message, opt Options) {
	t.Helper()
	uG := telemetry.NewLinkUsage(top.NumLinks(), p.LinkBandwidth)
	uR := telemetry.NewLinkUsage(top.NumLinks(), p.LinkBandwidth)
	var ftG, ftR FlowTimes
	opt.Usage, opt.Times = uG, &ftG
	got, info := SimulateOpt(top, p, msgs, opt)
	if info != nil {
		t.Fatalf("exact mode returned ApproxInfo %+v", info)
	}
	want := simulateRescanTimed(top, p, msgs, uR, &ftR)
	if got != want {
		t.Errorf("workers=%d Result %+v, rescan reference %+v", opt.Workers, got, want)
	}
	for i := range msgs {
		if ftG.Done[i] != ftR.Done[i] {
			t.Fatalf("workers=%d msg %d done %v, rescan %v", opt.Workers, i, ftG.Done[i], ftR.Done[i])
		}
	}
	sameUsage(t, uG, uR)
}

// equivTops are the topologies the equivalence suite draws message
// sets over: a full 3D torus, a ring, and a ragged mixed-extent torus.
func equivTops() []torus.Topology {
	return []torus.Topology{
		torus.NewTopology(64),
		{Dims: grid.I(8, 1, 1)},
		{Dims: grid.I(4, 2, 3)},
	}
}

// equivMsgs draws the seeded message set of one equivalence case.
func equivMsgs(top torus.Topology, ti int, seed int64) []torus.Message {
	rng := rand.New(rand.NewSource(seed*977 + int64(ti)))
	return randomMsgs(rng, top.Nodes(), 20+rng.Intn(120))
}

// TestSparseKernelMatchesRescan pins SimulateOpt with zero-value
// Options — all cores, with the gang engaging only above its default
// work thresholds — against the full-rescan reference on randomized
// message sets over several topologies.
func TestSparseKernelMatchesRescan(t *testing.T) {
	p := params()
	for ti, top := range equivTops() {
		for seed := int64(0); seed < 8; seed++ {
			t.Run(fmt.Sprintf("top%d/seed%d", ti, seed), func(t *testing.T) {
				matchesRescan(t, top, p, equivMsgs(top, ti, seed), Options{})
			})
		}
	}
}

// TestSparseKernelMatchesRescanBare covers the hook-free path (nil
// telemetry, nil times), which must also agree with the reference.
func TestSparseKernelMatchesRescanBare(t *testing.T) {
	top := torus.NewTopology(512)
	p := params()
	rng := rand.New(rand.NewSource(41))
	msgs := randomMsgs(rng, top.Nodes(), 400)
	got, _ := SimulateOpt(top, p, msgs, Options{})
	want := simulateRescanTimed(top, p, msgs, nil, nil)
	if got != want {
		t.Errorf("Result %+v, rescan reference %+v", got, want)
	}
}
