package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"bgpvr/internal/bench"
	"bgpvr/internal/core"
	"bgpvr/internal/fidelity"
	"bgpvr/internal/flowsim"
	"bgpvr/internal/machine"
	"bgpvr/internal/mpiio"
)

// The exhibits workload regenerates the fidelity scorecard (the
// Fig 3-7 and Table II sweeps) and one exact flow-level compositing
// point: direct-send on 2048 cores for a 64^3 volume and 256^2 image.
// Its inputs are the paper's fixed configurations; the seed changes
// nothing in them.
const (
	flowProcs = 2048
	flowN     = 64
	flowImg   = 256
	// planProcs sets the aggregator count of the timed two-phase plan
	// (Fig 9's 2K-core read of the 1120^3 netCDF record file).
	planProcs = 2048
)

// The exact flow point's outputs, recorded with the benchmark: the
// phase time must equal flowRefSec bit for bit.
const (
	flowRefSec    = 5.1816470588235385e-05
	flowRefMsgs   = 16769
	flowRefEvents = 5598
)

// baselinePath is the checked-in fidelity scorecard, relative to the
// repository root the benchmark runs from.
const baselinePath = "ci/fidelity-baseline.json"

// scorecard is the part of a fidelity scorecard the benchmark compares.
type scorecard struct {
	Score  float64 `json:"score"`
	Claims []struct {
		ID       string  `json:"id"`
		Status   string  `json:"status"`
		Measured string  `json:"measured"`
		RelErr   float64 `json:"rel_err"`
	} `json:"claims"`
}

// loadBaseline reads the fidelity section of a perf report file.
func loadBaseline(path string) (*scorecard, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep struct {
		Fidelity *scorecard `json:"fidelity"`
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rep.Fidelity == nil || len(rep.Fidelity.Claims) == 0 {
		return nil, fmt.Errorf("%s has no fidelity claims", path)
	}
	return rep.Fidelity, nil
}

// matches reports how sc differs from the baseline ("" if it equals).
func (want *scorecard) matches(sc *fidelity.Scorecard) string {
	b, err := json.Marshal(sc.Stat())
	if err != nil {
		return err.Error()
	}
	var got scorecard
	if err := json.Unmarshal(b, &got); err != nil {
		return err.Error()
	}
	if got.Score != want.Score || len(got.Claims) != len(want.Claims) {
		return fmt.Sprintf("score %v over %d claims, baseline %v over %d",
			got.Score, len(got.Claims), want.Score, len(want.Claims))
	}
	for i, c := range got.Claims {
		if c != want.Claims[i] {
			return fmt.Sprintf("claim %s: got %+v, baseline %+v", c.ID, c, want.Claims[i])
		}
	}
	return ""
}

type exhibitsState struct {
	mach     machine.Machine
	baseline *scorecard
	workers  int
	// flow holds the traced flow kernel's last counts.
	flow struct {
		events, msgs int
	}
}

// setupExhibits loads the baseline scorecard and runs the untimed
// first flow point, which must reproduce the recorded reference.
func setupExhibits(int64) (state, error) {
	b, err := loadBaseline(baselinePath)
	if err != nil {
		return nil, err
	}
	st := &exhibitsState{mach: machine.NewBGP(), baseline: b, workers: runtime.NumCPU()}
	bench.Workers = st.workers
	if err := st.flowPass(0, nil); err != nil {
		return nil, fmt.Errorf("warm-up flow point: %w", err)
	}
	return st, nil
}

func (st *exhibitsState) close() {}

func (st *exhibitsState) run(deadline time.Time, rec *recorder, res *result) error {
	var w window
	// The wall times of the scorecard and of the flow point of each
	// untraced pass, for the detail line.
	var scorecardS, flowS []float64
	start := time.Now()
	for op := 0; op < minOps || time.Now().Before(deadline); op++ {
		res.attempted++
		t0 := time.Now()
		var err error
		if rec == nil {
			var sc, fl time.Duration
			if sc, fl, err = st.pass(); err == nil {
				scorecardS, flowS = append(scorecardS, sc.Seconds()), append(flowS, fl.Seconds())
			}
		} else {
			err = st.tracedPass(op, rec)
		}
		if err != nil {
			res.fail("pass %d: %v", op, err)
			continue
		}
		w.add(t0, time.Since(t0))
	}
	w.elapsed = time.Since(start)
	if rec == nil {
		res.endWindow(w)
		res.setPct("exhibits_s", scorecardS, 50)
		res.setPct("flowscale_s", flowS, 50)
		return nil
	}
	if len(w.ops) > 0 {
		res.set("trace.overhead_ratio", median(w.ms())/res.values["p50_ms"])
	}
	for _, l := range []string{"bench.fig3", "bench.fig4", "bench.fig5", "bench.fig6", "bench.fig7", "bench.table2", "fidelity.score"} {
		res.setLayer(rec, l+"_ms", l)
	}
	res.setLayer(rec, "flowsim.simulate_ms", "flowsim")
	res.set("flowsim.events", float64(st.flow.events))
	res.set("flowsim.msgs", float64(st.flow.msgs))
	res.set("flowsim.events_per_s", float64(st.flow.events)/(res.values["flowsim.simulate_ms"]/1e3))
	res.setLayer(rec, "mpiio.plan_ms", "mpiio")
	return modelProbe(rec, res)
}

// pass is one untraced regeneration through the public entry points.
// It returns the wall time of the scorecard and of the flow point.
func (st *exhibitsState) pass() (scoreT, flowT time.Duration, err error) {
	t0 := time.Now()
	sc, err := fidelity.Evaluate(st.mach)
	scoreT = time.Since(t0)
	if err != nil {
		return scoreT, 0, err
	}
	if diff := st.baseline.matches(sc); diff != "" {
		return scoreT, 0, fmt.Errorf("scorecard differs from %s: %s", baselinePath, diff)
	}
	t1 := time.Now()
	pt, err := bench.FlowScaleAt(st.mach, core.DefaultScene(flowN, flowImg),
		bench.FlowScaleConfig{Procs: flowProcs, Workers: st.workers})
	flowT = time.Since(t1)
	if err != nil {
		return scoreT, flowT, err
	}
	return scoreT, flowT, checkFlow(pt.ExactSec, pt.Msgs, pt.Events)
}

func checkFlow(sec float64, msgs int, events int64) error {
	if sec != flowRefSec || msgs != flowRefMsgs || events != flowRefEvents {
		return fmt.Errorf("flow point: %v s, %d msgs, %d events; recorded %v s, %d msgs, %d events",
			sec, msgs, events, float64(flowRefSec), flowRefMsgs, flowRefEvents)
	}
	return nil
}

// tracedPass is the same regeneration with each layer called
// directly: the six sweeps one by one, the scoring, the flow kernel on
// the exchange FlowScaleAt builds, and the two-phase plan of the
// paper-scale netCDF read.
func (st *exhibitsState) tracedPass(op int, rec *recorder) error {
	d := &fidelity.Data{}
	var err error
	sweep := func(name string, fn func() error) {
		if err != nil {
			return
		}
		end := rec.begin(name, op, 0)
		err = fn()
		end()
	}
	sweep("bench.fig3", func() (e error) { d.Fig3, _, e = bench.Fig3(st.mach); return })
	sweep("bench.fig4", func() (e error) { d.Fig4, _, e = bench.Fig4(st.mach); return })
	sweep("bench.fig5", func() (e error) { d.Fig5, _, e = bench.Fig5(st.mach); return })
	sweep("bench.table2", func() (e error) { d.Table2, _, e = bench.Table2(st.mach); return })
	sweep("bench.fig6", func() (e error) { d.Fig6, _, e = bench.Fig6(st.mach); return })
	sweep("bench.fig7", func() (e error) { d.Fig7, _, e = bench.Fig7(st.mach); return })
	if err != nil {
		return err
	}
	end := rec.begin("fidelity.score", op, 0)
	sc := fidelity.EvaluateData(d)
	end()
	if diff := st.baseline.matches(sc); diff != "" {
		return fmt.Errorf("scorecard differs from %s: %s", baselinePath, diff)
	}

	if err := st.flowPass(op, rec); err != nil {
		return err
	}

	scene, err := core.PaperScene(modelN)
	if err != nil {
		return err
	}
	union, err := core.UnionRuns(core.FormatNetCDF, scene)
	if err != nil {
		return err
	}
	end = rec.begin("mpiio", op, 0)
	plan := mpiio.BuildPlan(union, mpiio.Hints{CBNodes: st.mach.Aggregators(planProcs)})
	end()
	if plan.UsefulBytes <= 0 || len(plan.Accesses) == 0 {
		return fmt.Errorf("two-phase plan of the %d^3 netCDF read is empty", modelN)
	}
	return nil
}

// flowPass runs the flow kernel on the exchange FlowScaleAt builds,
// which streams only cross-node flows.
func (st *exhibitsState) flowPass(op int, rec *recorder) error {
	top, p, nm := core.CompositePhaseMessages(st.mach, core.DefaultScene(flowN, flowImg), flowProcs, 0, 0)
	keep := nm[:0]
	for _, m := range nm {
		if m.Src != m.Dst {
			keep = append(keep, m)
		}
	}
	end := rec.begin("flowsim", op, 0)
	fr, _ := flowsim.SimulateOpt(top, p, keep, flowsim.Options{Workers: st.workers})
	end()
	if err := checkFlow(fr.Time, len(keep), int64(fr.Events)); err != nil {
		return err
	}
	st.flow.events, st.flow.msgs = fr.Events, len(keep)
	return nil
}
