package bench

import (
	"fmt"

	"bgpvr/internal/compose"
	"bgpvr/internal/core"
	"bgpvr/internal/flowsim"
	"bgpvr/internal/grid"
	"bgpvr/internal/img"
	"bgpvr/internal/machine"
	"bgpvr/internal/render"
	"bgpvr/internal/torus"
)

// AblationNetworkModel cross-checks the analytic bottleneck model
// against the max-min flow simulation on real direct-send schedules,
// with endpoint overheads and the queue penalty zeroed on both sides so
// the comparison isolates pure link contention. A ratio of 1.00 is the
// expected result, and is the validation: a work-conserving fluid
// schedule drains a saturated bottleneck link in exactly load/bandwidth,
// so whenever the simulated ratio stays at 1.00 the single-bottleneck
// bound is *tight* for these traffic patterns — the cheap model loses
// nothing. Divergence would appear only if the bottleneck link idled
// mid-phase (see flowsim's unit tests for constructed cases).
func AblationNetworkModel(mach machine.Machine) (string, error) {
	scene, err := core.PaperScene(1120)
	if err != nil {
		return "", err
	}
	p2 := mach.Torus
	p2.QueuePenalty = 0
	p2.SendOverhead = 0
	p2.RecvOverhead = 0
	p2.RouteLatency = 0
	cam := scene.Camera()
	t := Table{
		Title:   "Ablation: bottleneck model vs max-min flow simulation (link-bound composite phase, s)",
		Columns: []string{"procs", "bottleneck model", "flow simulation", "ratio", "flows"},
	}
	for _, procs := range []int{256, 512, 1024} {
		d := grid.NewDecomp(scene.Dims, procs)
		rects := make([]img.Rect, procs)
		for r := range rects {
			rects[r] = render.ProjectedRect(cam, d.BlockExtent(r))
		}
		msgs := compose.DirectSendSchedule(rects, scene.ImageW, scene.ImageH, procs, 16)
		top := mach.TorusFor(procs)
		nodeOf := mach.RankToNode(procs, machine.PlacementBlock)
		nm := make([]torus.Message, len(msgs))
		for i, mm := range msgs {
			nm[i] = torus.Message{Src: nodeOf[mm.Src], Dst: nodeOf[mm.Dst], Bytes: mm.Bytes}
		}
		model := torus.Phase(top, p2, nm, true)
		sim, _ := flowsim.SimulateOpt(top, p2, nm, flowsim.Options{Workers: 1})
		t.AddRow(fmt.Sprint(procs), f3(model.Time), f3(sim.Time),
			fmt.Sprintf("%.2f", sim.Time/model.Time), fmt.Sprint(sim.Completions))
	}
	return t.String(), nil
}
