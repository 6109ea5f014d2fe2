package bgpvr

// One benchmark per table and figure of the paper's evaluation, plus the
// ablation benches DESIGN.md calls out and micro-benchmarks of the hot
// substrate paths. The figure benches run the machine-model experiment
// and report its headline quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// regenerates every exhibit's numbers. Use -benchtime=1x for a single
// regeneration pass.

import (
	"fmt"
	"path/filepath"
	"testing"

	"bgpvr/internal/bench"
	"bgpvr/internal/comm"
	"bgpvr/internal/compose"
	"bgpvr/internal/core"
	"bgpvr/internal/grid"
	"bgpvr/internal/img"
	"bgpvr/internal/machine"
	"bgpvr/internal/mpiio"
	"bgpvr/internal/netcdf"
	"bgpvr/internal/render"
	"bgpvr/internal/torus"
	"bgpvr/internal/vfile"
	"bgpvr/internal/volume"
)

var mach = machine.NewBGP()

// --- Paper exhibits -------------------------------------------------

// BenchmarkFig3 regenerates the total/component-time sweep (Fig 3) and
// reports the best all-inclusive frame time (paper: 5.9 s at 16K cores).
func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, _, err := bench.Fig3(mach)
		if err != nil {
			b.Fatal(err)
		}
		best := 1e18
		for _, pt := range pts {
			if pt.Total < best {
				best = pt.Total
			}
		}
		b.ReportMetric(best, "best-frame-s")
	}
}

// BenchmarkFig4 regenerates the compositing-bandwidth study and reports
// the original scheme's bandwidth at 32K cores.
func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, _, err := bench.Fig4(mach)
		if err != nil {
			b.Fatal(err)
		}
		last := pts[len(pts)-1]
		b.ReportMetric(last.OriginalBW/1e6, "orig-MB/s@32K")
		b.ReportMetric(last.ImprovedBW/1e6, "impr-MB/s@32K")
	}
}

// BenchmarkFig5 regenerates the three-size frame-time summary and
// reports the 4480^3 time at 32K (paper: 220.8 s).
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, _, err := bench.Fig5(mach)
		if err != nil {
			b.Fatal(err)
		}
		for _, pt := range pts {
			if pt.Grid == 4480 && pt.Procs == 32768 {
				b.ReportMetric(pt.Total, "4480@32K-s")
			}
		}
	}
}

// BenchmarkTable2 regenerates Table II and reports the 2240^3 read
// bandwidth at 32K cores (paper: 1.26 GB/s).
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := bench.Table2(mach)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Grid == 2240 && r.Procs == 32768 {
				b.ReportMetric(r.ReadBW/1e9, "read-GB/s")
				b.ReportMetric(r.PctIO, "pct-io")
			}
		}
	}
}

// BenchmarkFig6 regenerates the stage-share distribution and reports the
// I/O share at 16K cores.
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, _, err := bench.Fig6(mach)
		if err != nil {
			b.Fatal(err)
		}
		for _, pt := range pts {
			if pt.Procs == 16384 {
				b.ReportMetric(pt.PctIO, "pct-io@16K")
			}
		}
	}
}

// BenchmarkFig7 regenerates the I/O-mode bandwidth comparison and
// reports the untuned-netCDF slowdown at low core counts (paper: 4-5x).
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, _, err := bench.Fig7(mach)
		if err != nil {
			b.Fatal(err)
		}
		for _, pt := range pts {
			if pt.Procs == 256 {
				b.ReportMetric(pt.RawBW/pt.OrigBW, "untuned-slowdown@256")
			}
		}
	}
}

// BenchmarkFig8 regenerates the netCDF layout dump.
func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig8(1120); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9 regenerates the access-pattern maps and reports the
// untuned physical-read volume (paper: ~most of the 28 GB file).
func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		modes, _, err := bench.Fig9(mach)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(modes[0].Stats.PhysicalBytes)/1e9, "untuned-GB")
	}
}

// BenchmarkFig10 regenerates the five-mode synthetic I/O benchmark and
// reports the fastest/slowest spread.
func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		modes, _, err := bench.Fig10(mach)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(modes[len(modes)-1].Time/modes[0].Time, "slowest/fastest")
	}
}

// --- Ablations (DESIGN.md) -------------------------------------------

// BenchmarkAblationCompositors sweeps m for n=16K renderers and reports
// the gain of the paper's choice (m=2048) over m=n.
func BenchmarkAblationCompositors(b *testing.B) {
	for i := 0; i < b.N; i++ {
		byM, _, err := bench.AblationCompositors(mach, 16384)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(byM[16384]/byM[2048], "gain-m2048")
	}
}

// BenchmarkAblationCompositeAlgo compares direct-send and binary swap.
func BenchmarkAblationCompositeAlgo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.AblationCompositeAlgo(mach); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationCBBuffer sweeps the collective buffer size.
func BenchmarkAblationCBBuffer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := bench.AblationCBBuffer(mach); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationContention isolates the network-model terms.
func BenchmarkAblationContention(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.AblationContention(mach); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationAggregators sweeps the I/O aggregator count.
func BenchmarkAblationAggregators(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.AblationAggregators(mach); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationTwoPhase compares collective, sieved-independent and
// exact-independent reads of one record variable on a real file.
func BenchmarkAblationTwoPhase(b *testing.B) {
	scene := core.DefaultScene(48, 64)
	path := filepath.Join(b.TempDir(), "step.nc")
	if err := core.WriteSceneFile(path, core.FormatNetCDF, scene); err != nil {
		b.Fatal(err)
	}
	union, err := core.UnionRuns(core.FormatNetCDF, scene)
	if err != nil {
		b.Fatal(err)
	}
	f, err := vfile.Open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	b.Run("collective", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := core.RunReal(core.RealConfig{
				Scene: scene, Procs: 4, Format: core.FormatNetCDF, Path: path,
				Hints: mpiio.Hints{CBBufferSize: 48 * 48 * 4, CBNodes: 2}})
			if err != nil {
				b.Fatal(err)
			}
			_ = res
		}
	})
	b.Run("independent-sieved", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := mpiio.IndependentRead(f, union, 1<<20); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("independent-exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := mpiio.IndependentRead(f, union, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationGhost measures the I/O cost of the ghost-in-read
// strategy: bytes read with and without the halo layer.
func BenchmarkAblationGhost(b *testing.B) {
	scene := core.DefaultScene(64, 64)
	d := grid.NewDecomp(scene.Dims, 8)
	for i := 0; i < b.N; i++ {
		var with, without int64
		for r := 0; r < 8; r++ {
			without += grid.TotalBytes(grid.Runs(scene.Dims, d.BlockExtent(r), 4, 0))
			with += grid.TotalBytes(grid.Runs(scene.Dims, d.GhostExtent(r, 1), 4, 0))
		}
		b.ReportMetric(float64(with)/float64(without), "ghost-overhead")
	}
}

// --- Substrate micro-benchmarks --------------------------------------

// BenchmarkRenderBlock measures the ray-casting hot loop; it also
// calibrates the real-mode seconds-per-sample constant. The workers
// sub-benchmarks cast one 256^3 block with the internal/par scanline
// pool and should scale near-linearly 1 -> 4 workers (given cores).
func BenchmarkRenderBlock(b *testing.B) {
	scene := core.DefaultScene(256, 256)
	sn := scene.Supernova()
	d := grid.NewDecomp(scene.Dims, 1)
	fld := sn.Generate(scene.Variable, scene.Dims, d.GhostExtent(0, 1))
	cam := scene.Camera()
	tf := scene.Transfer()
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			cfg := scene.RenderConfig()
			cfg.Workers = w
			var samples int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sub := render.RenderBlock(fld, d.BlockExtent(0), cam, tf, cfg)
				samples = sub.Samples
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(samples)/float64(b.N), "ns/sample")
		})
	}
}

// BenchmarkSupernovaGenerate measures synthetic-data generation on the
// block one rank of an 8-rank 128^3 real frame fills: rank 0's extent
// with the renderer's ghost layers. The main leg runs the block
// generator; the spec leg fills the same block through Field.Fill and
// the pointwise Eval it is bit-identical to. Both report ns/voxel.
func BenchmarkSupernovaGenerate(b *testing.B) {
	scene := core.DefaultScene(128, 512)
	sn := scene.Supernova()
	d := grid.NewDecomp(scene.Dims, 8)
	ext := d.GhostExtent(0, render.GhostLayersFor(scene.RenderConfig()))
	perVoxel := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ext.Count())/float64(b.N), "ns/voxel")
	}
	b.Run("generate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkField = sn.Generate(scene.Variable, scene.Dims, ext)
		}
		perVoxel(b)
	})
	b.Run("spec", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f := volume.NewField(scene.Dims, ext)
			f.Fill(func(x, y, z int) float32 { return sn.Eval(scene.Variable, scene.Dims, x, y, z) })
			sinkField = f
		}
		perVoxel(b)
	})
}

// sinkField keeps generated fields live so the compiler cannot drop the
// benchmarked calls.
var sinkField *volume.Field

// BenchmarkTorusPhase measures the network model on a 32K-rank
// direct-send schedule — the heaviest model-mode computation.
func BenchmarkTorusPhase(b *testing.B) {
	scene, _ := core.PaperScene(1120)
	d := grid.NewDecomp(scene.Dims, 32768)
	cam := scene.Camera()
	rects := make([]img.Rect, d.NumBlocks())
	for r := range rects {
		rects[r] = render.ProjectedRect(cam, d.BlockExtent(r))
	}
	msgs := compose.DirectSendSchedule(rects, scene.ImageW, scene.ImageH, 32768, compose.PixelBytes)
	top := mach.TorusFor(32768)
	nm := make([]torus.Message, len(msgs))
	for i, mm := range msgs {
		nm[i] = torus.Message{Src: mach.NodeOf(mm.Src), Dst: mach.NodeOf(mm.Dst), Bytes: mm.Bytes}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		torus.Phase(top, mach.Torus, nm, true)
	}
	b.ReportMetric(float64(len(nm)), "messages")
}

// BenchmarkNetCDFHeader measures header encode/decode round trips.
func BenchmarkNetCDFHeader(b *testing.B) {
	names := []string{"pressure", "density", "velocity_x", "velocity_y", "velocity_z"}
	f, err := netcdf.NewVolumeFile(netcdf.V2, grid.Cube(1120), names, true)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := netcdf.DecodeHeader(netcdf.EncodeHeader(f)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCollectiveRead measures the two-phase executor end to end.
func BenchmarkCollectiveRead(b *testing.B) {
	data := make([]byte, 1<<22)
	for i := range data {
		data[i] = byte(i)
	}
	file := &vfile.MemFile{Data: data}
	const p = 8
	reqs := make([][]grid.Run, p)
	for r := range reqs {
		for off := int64(r * 100); off < int64(len(data))-2048; off += 8192 {
			reqs[r] = append(reqs[r], grid.Run{Offset: off, Length: 1024})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := comm.NewWorld(p)
		err := w.Run(func(c *comm.Comm) error {
			_, err := mpiio.CollectiveRead(c, file, reqs[c.Rank()], mpiio.Hints{CBBufferSize: 1 << 16, CBNodes: 4})
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndToEndRealFrame measures a complete small real-mode frame.
func BenchmarkEndToEndRealFrame(b *testing.B) {
	scene := core.DefaultScene(48, 128)
	for i := 0; i < b.N; i++ {
		if _, err := core.RunReal(core.RealConfig{Scene: scene, Procs: 8, Format: core.FormatGenerate}); err != nil {
			b.Fatal(err)
		}
	}
}
