package bench

import (
	"fmt"
	"strings"

	"bgpvr/internal/core"
	"bgpvr/internal/critpath"
	"bgpvr/internal/flowsim"
	"bgpvr/internal/machine"
	"bgpvr/internal/stats"
)

// ImbalanceSweep is the modeled core-count axis of the load-imbalance
// experiment (2K-16K cores of the paper's base workload).
var ImbalanceSweep = []int{2048, 4096, 8192, 16384}

// ImbalanceRun is one modeled configuration's critical-path analysis.
type ImbalanceRun struct {
	Procs       int
	Compositors int
	Result      *core.ModelResult
	Analysis    *critpath.Analysis
}

// imbalanceRun models one frame of the base workload with a causal
// event graph attached and analyzes it. m <= 0 applies the paper's
// improved compositor rule.
func imbalanceRun(mach machine.Machine, scene core.Scene, procs, m int) (ImbalanceRun, error) {
	g := critpath.NewGraph(procs)
	res, err := core.RunModel(core.ModelConfig{
		Scene: scene, Procs: procs, Compositors: m,
		Format: core.FormatGenerate, Machine: mach, CritPath: g,
	})
	if err != nil {
		return ImbalanceRun{}, err
	}
	if m <= 0 {
		m = machine.ImprovedCompositors(procs)
	}
	return ImbalanceRun{Procs: procs, Compositors: m, Result: res,
		Analysis: critpath.Analyze(g, 3)}, nil
}

// Imbalance locates the modeled frame's load imbalance on the 2K-16K
// core axis of the paper's base workload (1120^3 volume, 1600^2
// image). The first table follows the render stage as the block count
// grows with the core count: a regular decomposition leaves boundary
// blocks with fewer samples, so max/mean, CoV and Gini quantify how
// far the slowest renderer — which the critical path runs through —
// sits from the mean, and the what-if column bounds what a perfectly
// balanced render would save. The second table varies direct-send's
// compositor count m around the improved rule m* and reports the
// compositing exchange's per-rank busy-time spread.
func Imbalance(mach machine.Machine) ([]ImbalanceRun, string, error) {
	scene := core.DefaultScene(1120, 1600)

	rt := Table{
		Title:   "Render imbalance vs block count (1120^3 volume, 1600^2 image, one block per core, improved m)",
		Columns: []string{"cores", "mean", "max", "imbal", "cov", "gini", "slack", "balanced saves"},
	}
	renderRuns := make([]ImbalanceRun, len(ImbalanceSweep))
	err := sweep(len(ImbalanceSweep), func(i int) error {
		r, err := imbalanceRun(mach, scene, ImbalanceSweep[i], 0)
		renderRuns[i] = r
		return err
	})
	if err != nil {
		return nil, "", err
	}
	for i, r := range renderRuns {
		ri := r.Analysis.PhaseInfo("render")
		w := r.Analysis.WhatIfFor("render")
		if ri == nil || w == nil {
			return nil, "", fmt.Errorf("bench: no render analysis at %d cores", ImbalanceSweep[i])
		}
		rt.AddRow(fmt.Sprint(r.Procs), secs(ri.MeanSec), secs(ri.MaxSec), f3(ri.Imbalance),
			f3(ri.CoV), f3(ri.Gini), secs(ri.SlackSec), secs(w.SavedSec))
	}

	ct := Table{
		Title:   "Compositing imbalance vs m (direct-send; m* is the improved rule)",
		Columns: []string{"cores", "m", "composite", "imbal", "cov", "gini", "slack"},
	}
	type imbJob struct{ p, m, mStar int }
	var jobs []imbJob
	for _, p := range ImbalanceSweep {
		mStar := machine.ImprovedCompositors(p)
		for _, m := range []int{mStar / 2, mStar, 2 * mStar} {
			if m < 1 || m > p {
				continue
			}
			jobs = append(jobs, imbJob{p: p, m: m, mStar: mStar})
		}
	}
	compRuns := make([]ImbalanceRun, len(jobs))
	err = sweep(len(jobs), func(i int) error {
		r, err := imbalanceRun(mach, scene, jobs[i].p, jobs[i].m)
		compRuns[i] = r
		return err
	})
	if err != nil {
		return nil, "", err
	}
	for i, r := range compRuns {
		j := jobs[i]
		ci := r.Analysis.PhaseInfo("composite")
		if ci == nil {
			return nil, "", fmt.Errorf("bench: no composite analysis at %d cores, m=%d", j.p, j.m)
		}
		label := fmt.Sprint(j.m)
		if j.m == j.mStar {
			label += "*"
		}
		ct.AddRow(fmt.Sprint(j.p), label, secs(r.Result.Times.Composite),
			f3(ci.Imbalance), f3(ci.CoV), f3(ci.Gini), secs(ci.SlackSec))
	}
	runs := append(renderRuns, compRuns...)

	var b strings.Builder
	b.WriteString(rt.String())
	b.WriteString("\n")
	b.WriteString(ct.String())
	last := runs[len(ImbalanceSweep)-1].Analysis
	fmt.Fprintf(&b, "\ncritical path at %d cores (improved m): dominant phase %s, %d rank hops\n",
		ImbalanceSweep[len(ImbalanceSweep)-1], last.Dominant, last.Hops)
	skew, err := arrivalSkew(mach, scene, 1024)
	if err != nil {
		return nil, "", err
	}
	b.WriteString(skew)
	return runs, b.String(), nil
}

// arrivalSkew cross-checks the modeled compositing imbalance against
// the max-min flow simulation: it streams the direct-send schedule
// over the torus with per-message completion times (flowsim.FlowTimes)
// and summarizes when each compositor's last fragment lands. The
// spread of last arrivals is the wire-level view of the compositing
// stragglers the critical-path analysis reports.
func arrivalSkew(mach machine.Machine, scene core.Scene, procs int) (string, error) {
	m := machine.ImprovedCompositors(procs)
	top, p, nm := core.CompositePhaseMessages(mach, scene, procs, m, 16)
	var ft flowsim.FlowTimes
	res, _ := flowsim.SimulateOpt(top, p, nm, flowsim.Options{Times: &ft, Workers: 1})
	lastArrival := map[int]float64{}
	for i, mm := range nm {
		if ft.Done[i] > lastArrival[mm.Dst] {
			lastArrival[mm.Dst] = ft.Done[i]
		}
	}
	var s stats.Summary
	for _, v := range lastArrival {
		s.Add(v)
	}
	return fmt.Sprintf("fragment arrival skew (max-min flow sim, %d cores, m=%d): compositors' last fragments land %s..%s (mean %s, imbal %.3f, phase %s)\n",
		procs, m, secs(s.MinV), secs(s.MaxV), secs(s.Mean()), s.Imbalance(), secs(res.Time)), nil
}
