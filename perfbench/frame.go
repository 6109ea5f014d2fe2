package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"bgpvr/internal/comm"
	"bgpvr/internal/compose"
	"bgpvr/internal/core"
	"bgpvr/internal/grid"
	"bgpvr/internal/img"
	"bgpvr/internal/iotrace"
	"bgpvr/internal/mpiio"
	"bgpvr/internal/netcdf"
	"bgpvr/internal/render"
	"bgpvr/internal/vfile"
	"bgpvr/internal/volume"
)

// The frame workloads render one 128^3 time step into a 512^2 image
// on 8 goroutine ranks with direct-send compositing.
const (
	frameN     = 128
	frameImg   = 512
	frameProcs = 8
	// rgbaBytes is the size of one uncompressed composited pixel in
	// real mode (four float32 channels).
	rgbaBytes = 16
)

// frameScene is the frame workloads' scene: the seed picks the
// synthetic supernova's turbulence, which leaves the work per frame
// unchanged. Ray casting is serial within each rank.
func frameScene(seed int64) core.Scene {
	s := core.DefaultScene(frameN, frameImg)
	s.Seed = seed
	s.RenderWorkers = 1
	return s
}

type frameState struct {
	cfg    core.RealConfig
	ref    *img.Image // the warm-up frame, checked against the serial render
	dir    string     // scratch directory of the netCDF file; "" for frame-gen
	voxels int64      // voxels the ranks read or generate, ghosts included
}

func setupFrameGen(seed int64) (state, error) {
	return setupFrame(core.RealConfig{Scene: frameScene(seed), Procs: frameProcs, Format: core.FormatGenerate})
}

func setupFrameCDF(seed int64) (state, error) { return setupFrameFile(frameScene(seed), frameProcs) }

// setupFrameFile writes the scene as a netCDF CDF-2 file of five record
// variables (the VH-1 layout) under the OS temp dir; the frames read it
// back with two-phase collective I/O and default hints.
func setupFrameFile(s core.Scene, procs int) (*frameState, error) {
	dir, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		return nil, err
	}
	cfg := core.RealConfig{Scene: s, Procs: procs, Format: core.FormatNetCDF, Path: filepath.Join(dir, "step.nc")}
	if err := core.WriteSceneFile(cfg.Path, cfg.Format, s); err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("write netCDF step: %w", err)
	}
	st, err := setupFrame(cfg)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	st.dir = dir
	return st, nil
}

// serialTolerance is how far a parallel frame may stray from the
// serial render: compositing applies the over operator in a different
// association than one ray does, so the two differ in the last bits
// (the pipeline's own tests accept the same bound).
const serialTolerance = 2e-5

// setupFrame renders the serial reference (render.RenderFull over the
// whole generated field, the single-threaded baseline) and runs the
// untimed warm-up frame, which must match it within serialTolerance
// and take the same samples. Every later frame must equal the warm-up
// frame bit for bit.
func setupFrame(cfg core.RealConfig) (*frameState, error) {
	warm, err := core.RunReal(cfg)
	if err != nil {
		return nil, fmt.Errorf("warm-up frame: %w", err)
	}
	if err := checkSerial(cfg.Scene, warm); err != nil {
		return nil, err
	}
	st := &frameState{cfg: cfg, ref: warm.Image}
	d := grid.NewDecomp(cfg.Scene.Dims, cfg.Procs)
	ghost := render.GhostLayersFor(cfg.Scene.RenderConfig())
	for b := 0; b < cfg.Procs; b++ {
		st.voxels += d.GhostExtent(b, ghost).Count()
	}
	return st, nil
}

// checkSerial compares a parallel frame with the serial render of its
// scene.
func checkSerial(s core.Scene, rr *core.RealResult) error {
	full := s.Supernova().GenerateFull(s.Variable, s.Dims)
	ref, samples := render.RenderFull(full, s.Camera(), s.Transfer(), s.RenderConfig())
	if d := img.MaxDiff(rr.Image, ref); d > serialTolerance {
		return fmt.Errorf("parallel frame differs from the serial render by %g", d)
	}
	if rr.Samples != samples {
		return fmt.Errorf("parallel frame took %d samples, the serial render %d", rr.Samples, samples)
	}
	return nil
}

func (f *frameState) close() {
	if f.dir != "" {
		os.RemoveAll(f.dir)
	}
}

// minOps is the fewest operations a window measures, even past its
// deadline, so every window has a median.
const minOps = 2

func (f *frameState) run(deadline time.Time, rec *recorder, res *result) error {
	var w window
	var stages struct{ io, render, composite, other []float64 }
	var counts replayCounts
	start := time.Now()
	for op := 0; op < minOps || time.Now().Before(deadline); op++ {
		res.attempted++
		end := rec.begin("core", op, 0)
		t0 := time.Now()
		rr, err := core.RunReal(f.cfg)
		wall := time.Since(t0)
		end()
		if err != nil {
			res.fail("frame %d: %v", op, err)
			continue
		}
		if !sameImage(rr.Image, f.ref) {
			res.fail("frame %d differs from the warm-up frame", op)
			continue
		}
		if rec == nil {
			w.add(t0, wall)
			continue
		}
		t1 := time.Now()
		out, c, err := f.replay(op, rec)
		replayWall := time.Since(t1)
		if err != nil {
			res.fail("replay %d: %v", op, err)
			continue
		}
		if !sameImage(out, rr.Image) {
			res.fail("replay %d differs from RunReal's image", op)
			continue
		}
		if counts != (replayCounts{}) && c != counts {
			res.fail("replay %d counts %+v differ from %+v", op, c, counts)
			continue
		}
		counts = c
		w.add(t1, replayWall)
		t := rr.Times
		stages.io = append(stages.io, t.IO*1e3)
		stages.render = append(stages.render, t.Render*1e3)
		stages.composite = append(stages.composite, t.Composite*1e3)
		stages.other = append(stages.other, msOf(wall)-t.Total*1e3)
	}
	w.elapsed = time.Since(start)
	if rec == nil {
		res.endWindow(w)
		return nil
	}
	if len(w.ops) == 0 {
		return nil
	}
	res.set("trace.overhead_ratio", median(w.ms())/res.values["p50_ms"])
	res.setPct("core.io_ms", stages.io, 50)
	res.setPct("core.render_ms", stages.render, 50)
	res.setPct("core.composite_ms", stages.composite, 50)
	res.setPct("core.other_ms", stages.other, 50)
	res.setLayer(rec, "render.ms", "render")
	res.set("render.samples", float64(counts.samples))
	res.set("render.ns_per_sample", res.values["render.ms"]*1e6/float64(counts.samples))
	res.setLayer(rec, "compose.ms", "compose")
	res.set("compose.messages", float64(counts.messages))
	res.set("compose.mb", float64(counts.composeBytes)/mb)
	if f.cfg.Format == core.FormatGenerate {
		res.setLayer(rec, "volume.generate_ms", "volume")
		res.set("volume.ns_per_voxel", res.values["volume.generate_ms"]*1e6/float64(f.voxels))
		return nil
	}
	res.setLayer(rec, "mpiio.read_ms", "mpiio")
	res.set("mpiio.physical_mb", float64(counts.io.PhysicalBytes)/mb)
	res.set("mpiio.accesses", float64(counts.io.Accesses))
	res.set("mpiio.density", counts.io.Density())
	res.setLayer(rec, "netcdf.decode_ms", "netcdf")
	return nil
}

// replayCounts are the work counts of one replayed frame; they depend
// only on the inputs, so they repeat exactly from frame to frame.
type replayCounts struct {
	samples      int64
	messages     int
	composeBytes int64
	io           iotrace.Stats
}

// replay runs the frame stage by stage inside one comm.World, calling
// each layer directly with the inputs RunReal derives for the same
// config, and records a span around every call. Its image must equal
// RunReal's bit for bit, so the replay cannot drift from the pipeline.
func (f *frameState) replay(op int, rec *recorder) (*img.Image, replayCounts, error) {
	var c replayCounts
	s, p := f.cfg.Scene, f.cfg.Procs
	d := grid.NewDecomp(s.Dims, p)
	cam, tf, rcfg := s.Camera(), s.Transfer(), s.RenderConfig()
	order := s.FrontToBack(d)
	rects := make([]img.Rect, p)
	for b := range rects {
		rects[b] = render.ProjectedRect(cam, d.BlockExtent(b))
	}
	ghost := render.GhostLayersFor(rcfg)
	// Compositing counts come from the deterministic schedule: the
	// runtime's traffic counters also see late barrier messages.
	for _, m := range compose.DirectSendSchedule(rects, s.ImageW, s.ImageH, p, rgbaBytes) {
		c.messages++
		c.composeBytes += m.Bytes
	}

	var file *vfile.Traced
	var nf *netcdf.File
	var v *netcdf.Var
	if f.cfg.Format != core.FormatGenerate {
		osf, err := vfile.Open(f.cfg.Path)
		if err != nil {
			return nil, c, err
		}
		defer osf.Close()
		if nf, err = netcdf.ReadHeader(osf); err != nil {
			return nil, c, err
		}
		var ok bool
		if v, ok = nf.VarByName(s.Variable.Name()); !ok {
			return nil, c, fmt.Errorf("netCDF step has no variable %s", s.Variable.Name())
		}
		file = vfile.NewTraced(osf)
	}
	hints := mpiio.Hints{CBNodes: min(p, 8)} // RunReal's default hints

	var final *img.Image
	samples := make([]int64, p)
	useful := make([]int64, p)
	world := comm.NewWorld(p)
	err := world.Run(func(cm *comm.Comm) error {
		r := cm.Rank()
		ext := d.GhostExtent(r, ghost)
		cm.Barrier()
		var fld *volume.Field
		if file == nil {
			end := rec.begin("volume", op, r)
			fld = s.Supernova().Generate(s.Variable, s.Dims, ext)
			end()
		} else {
			runs, err := nf.VarRuns(v, ext)
			if err != nil {
				return err
			}
			end := rec.begin("mpiio", op, r)
			raw, err := mpiio.CollectiveRead(cm, file, runs, hints)
			end()
			if err != nil {
				return err
			}
			fld = volume.NewField(s.Dims, ext)
			end = rec.begin("netcdf", op, r)
			netcdf.DecodeFloats(raw, fld.Data)
			end()
			useful[r] = int64(len(raw))
		}
		cm.Barrier()
		end := rec.begin("render", op, r)
		sub := render.RenderBlock(fld, d.BlockExtent(r), cam, tf, rcfg)
		end()
		samples[r] = sub.Samples
		cm.Barrier()
		end = rec.begin("compose", op, r)
		out, err := compose.DirectSendBlocks(cm, []*render.Subimage{sub}, []int{r}, rects, s.ImageW, s.ImageH, p, order)
		end()
		if err != nil {
			return err
		}
		if r == 0 {
			final = out
		}
		return nil
	})
	if err != nil {
		return nil, c, err
	}
	for r := 0; r < p; r++ {
		c.samples += samples[r]
		c.io.UsefulBytes += useful[r]
	}
	if file != nil {
		st := iotrace.Analyze(file.Log.Accesses(), nil)
		c.io.Accesses, c.io.PhysicalBytes = st.Accesses, st.PhysicalBytes
	}
	return final, c, nil
}

// sameImage reports whether two images are equal bit for bit.
func sameImage(a, b *img.Image) bool {
	if a == nil || b == nil || a.W != b.W || a.H != b.H || len(a.Pix) != len(b.Pix) {
		return false
	}
	for i, p := range a.Pix {
		q := b.Pix[i]
		if math.Float32bits(p.R) != math.Float32bits(q.R) || math.Float32bits(p.G) != math.Float32bits(q.G) ||
			math.Float32bits(p.B) != math.Float32bits(q.B) || math.Float32bits(p.A) != math.Float32bits(q.A) {
			return false
		}
	}
	return true
}

func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
