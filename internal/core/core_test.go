package core

import (
	"path/filepath"
	"strings"
	"testing"

	"bgpvr/internal/comm"
	"bgpvr/internal/img"
	"bgpvr/internal/machine"
	"bgpvr/internal/mpiio"
	"bgpvr/internal/render"
)

// smallScene is the real-mode test scene.
func smallScene() Scene {
	s := DefaultScene(18, 30)
	return s
}

// serialImage renders the scene's reference image.
func serialImage(s Scene) *img.Image {
	f := s.Supernova().GenerateFull(s.Variable, s.Dims)
	out, _ := render.RenderFull(f, s.Camera(), s.Transfer(), s.RenderConfig())
	return out
}

func TestRunRealGenerateMatchesSerial(t *testing.T) {
	s := smallScene()
	ref := serialImage(s)
	for _, p := range []int{1, 4, 8} {
		for _, m := range []int{0, 2} {
			if m > p {
				continue
			}
			res, err := RunReal(RealConfig{Scene: s, Procs: p, Compositors: m, Format: FormatGenerate})
			if err != nil {
				t.Fatalf("p=%d m=%d: %v", p, m, err)
			}
			if d := img.MaxDiff(res.Image, ref); d > 2e-5 {
				t.Errorf("p=%d m=%d: image differs from serial by %v", p, m, d)
			}
			if res.Times.Total <= 0 || res.Samples == 0 {
				t.Errorf("p=%d m=%d: missing timings or samples: %+v", p, m, res.Times)
			}
			if res.SampleBalance < 1 {
				t.Errorf("imbalance %v < 1", res.SampleBalance)
			}
		}
	}
}

func TestRunRealAlgorithmsAgree(t *testing.T) {
	s := smallScene()
	ref := serialImage(s)
	for _, algo := range []CompositeAlgo{CompositeDirectSend, CompositeBinarySwap, CompositeSerialGather} {
		res, err := RunReal(RealConfig{Scene: s, Procs: 8, Algo: algo, Format: FormatGenerate})
		if err != nil {
			t.Fatalf("algo %d: %v", algo, err)
		}
		if d := img.MaxDiff(res.Image, ref); d > 2e-5 {
			t.Errorf("algo %d: image differs from serial by %v", algo, d)
		}
	}
}

// TestRunRealTrafficRepeatable pins the compositing-stage traffic
// count: the same frame must report the same messages and bytes every
// time, however the ranks' goroutines are scheduled around the
// barriers that bracket the stage.
func TestRunRealTrafficRepeatable(t *testing.T) {
	s := smallScene()
	var want comm.TrafficStats
	for i := 0; i < 5; i++ {
		res, err := RunReal(RealConfig{Scene: s, Procs: 8, Algo: CompositeDirectSend, Format: FormatGenerate})
		if err != nil {
			t.Fatal(err)
		}
		if res.Traffic.Messages == 0 || res.Traffic.TotalBytes == 0 {
			t.Fatalf("run %d: no compositing traffic recorded: %+v", i, res.Traffic)
		}
		if i == 0 {
			want = res.Traffic
		} else if res.Traffic != want {
			t.Errorf("run %d traffic %+v, first run %+v", i, res.Traffic, want)
		}
	}
}

// Every on-disk format feeds the identical pipeline and must yield the
// identical image: the I/O stack is lossless end to end.
func TestRunRealAllFormatsMatch(t *testing.T) {
	s := smallScene()
	ref := serialImage(s)
	dir := t.TempDir()
	for _, f := range []Format{FormatRaw, FormatNetCDF, FormatCDF5, FormatH5} {
		path := filepath.Join(dir, "ts."+strings.ReplaceAll(f.String(), "/", "_"))
		if err := WriteSceneFile(path, f, s); err != nil {
			t.Fatalf("%v: write: %v", f, err)
		}
		res, err := RunReal(RealConfig{Scene: s, Procs: 6, Format: f, Path: path,
			Hints: mpiio.Hints{CBBufferSize: 4096, CBNodes: 3}})
		if err != nil {
			t.Fatalf("%v: run: %v", f, err)
		}
		if d := img.MaxDiff(res.Image, ref); d > 2e-5 {
			t.Errorf("%v: image differs from serial by %v", f, d)
		}
		if res.IO.PhysicalBytes == 0 || res.IO.Accesses == 0 {
			t.Errorf("%v: no physical I/O recorded: %+v", f, res.IO)
		}
		if res.IO.UsefulBytes == 0 {
			t.Errorf("%v: no useful bytes recorded", f)
		}
		if res.Times.IO <= 0 {
			t.Errorf("%v: I/O time missing", f)
		}
	}
}

// The real-mode physical/useful ratios must order the formats the way
// Fig 9/10 do: the record-interleaved netCDF needs the most physical
// I/O per useful byte of the multivariate formats.
func TestRunRealFormatDensityOrdering(t *testing.T) {
	s := DefaultScene(24, 24)
	dir := t.TempDir()
	overhead := map[Format]float64{}
	for _, f := range []Format{FormatRaw, FormatNetCDF, FormatCDF5, FormatH5} {
		path := filepath.Join(dir, "f"+f.String())
		if err := WriteSceneFile(path, f, s); err != nil {
			t.Fatal(err)
		}
		res, err := RunReal(RealConfig{Scene: s, Procs: 4, Format: f, Path: path,
			Hints: mpiio.Hints{CBBufferSize: 16384, CBNodes: 2}})
		if err != nil {
			t.Fatal(err)
		}
		overhead[f] = float64(res.IO.PhysicalBytes) / float64(res.IO.UsefulBytes)
	}
	if !(overhead[FormatNetCDF] > overhead[FormatCDF5] && overhead[FormatNetCDF] > overhead[FormatH5]) {
		t.Errorf("netCDF record format should need the most over-read: %+v", overhead)
	}
	if overhead[FormatRaw] > 1.3 {
		t.Errorf("raw over-read %.2f too high", overhead[FormatRaw])
	}
}

func TestRunRealErrors(t *testing.T) {
	s := smallScene()
	if _, err := RunReal(RealConfig{Scene: s, Procs: 0}); err == nil {
		t.Error("Procs=0 accepted")
	}
	if _, err := RunReal(RealConfig{Scene: s, Procs: 2, Compositors: 4, Format: FormatGenerate}); err == nil {
		t.Error("m > p accepted")
	}
	if _, err := RunReal(RealConfig{Scene: s, Procs: 2, Format: FormatRaw, Path: "/nonexistent/x"}); err == nil {
		t.Error("missing file accepted")
	}
}

func TestPaperScenes(t *testing.T) {
	for n, im := range map[int]int{1120: 1600, 2240: 2048, 4480: 4096} {
		s, err := PaperScene(n)
		if err != nil {
			t.Fatal(err)
		}
		if s.ImageW != im || s.Dims.X != n {
			t.Errorf("PaperScene(%d) = %+v", n, s)
		}
	}
	if _, err := PaperScene(1000); err == nil {
		t.Error("unknown size accepted")
	}
}

func TestFileSizeOf(t *testing.T) {
	s := DefaultScene(1120, 1600)
	raw, err := FileSizeOf(FormatRaw, s)
	if err != nil || raw != 1120*1120*1120*4 {
		t.Errorf("raw size = %d, %v", raw, err)
	}
	nc, err := FileSizeOf(FormatNetCDF, s)
	if err != nil {
		t.Fatal(err)
	}
	// The 5-variable netCDF file is ~5x the raw variable ("a file size
	// approximately five times as large as a single variable in our raw
	// format").
	if ratio := float64(nc) / float64(raw); ratio < 4.99 || ratio > 5.01 {
		t.Errorf("netCDF/raw size ratio = %.3f", ratio)
	}
	if _, err := FileSizeOf(FormatGenerate, s); err == nil {
		t.Error("generate has no file size")
	}
}

func TestRunModelPaperShapes(t *testing.T) {
	scene, _ := PaperScene(1120)

	// Fig 3: rendering scales nearly linearly.
	r64, err := RunModel(ModelConfig{Scene: scene, Procs: 64, Format: FormatGenerate})
	if err != nil {
		t.Fatal(err)
	}
	r4096, err := RunModel(ModelConfig{Scene: scene, Procs: 4096, Format: FormatGenerate})
	if err != nil {
		t.Fatal(err)
	}
	speedup := r64.Times.Render / r4096.Times.Render
	if speedup < 40 || speedup > 80 {
		t.Errorf("render speedup 64->4096 = %.1f, want ~64", speedup)
	}

	// Fig 3: original compositing rises sharply beyond 1K cores and
	// exceeds rendering beyond 8K; the improved scheme is much faster at
	// 32K.
	compOrig := map[int]float64{}
	for _, p := range []int{1024, 8192, 32768} {
		r, err := RunModel(ModelConfig{Scene: scene, Procs: p, Compositors: p, Format: FormatGenerate})
		if err != nil {
			t.Fatal(err)
		}
		compOrig[p] = r.Times.Composite
		if p >= 8192 && r.Times.Composite <= r.Times.Render {
			t.Errorf("p=%d: original compositing (%.3f) should exceed rendering (%.3f)",
				p, r.Times.Composite, r.Times.Render)
		}
	}
	if compOrig[32768] < 8*compOrig[1024] {
		t.Errorf("original compositing should blow up: 1K=%.3f 32K=%.3f", compOrig[1024], compOrig[32768])
	}
	impr, err := RunModel(ModelConfig{Scene: scene, Procs: 32768, Format: FormatGenerate})
	if err != nil {
		t.Fatal(err)
	}
	if gain := compOrig[32768] / impr.Times.Composite; gain < 5 {
		t.Errorf("improved compositing gain at 32K = %.1fx, want >= 5x (paper: 30x)", gain)
	}

	// Table II shape: the big runs are I/O-dominated (>= 90%).
	for _, n := range []int{2240, 4480} {
		s2, _ := PaperScene(n)
		r, err := RunModel(ModelConfig{Scene: s2, Procs: 16384, Format: FormatRaw})
		if err != nil {
			t.Fatal(err)
		}
		if pct := Percent(r.Times.IO, r.Times.Total); pct < 90 {
			t.Errorf("%d^3: I/O share %.1f%%, want >= 90%%", n, pct)
		}
		if r.ReadBW < 0.6e9 || r.ReadBW > 2.5e9 {
			t.Errorf("%d^3: read bandwidth %.2f GB/s outside the paper's range", n, r.ReadBW/1e9)
		}
	}
}

// Fig 7 shape in model mode: untuned netCDF is several times slower than
// raw at low core counts, and the gap narrows at high counts.
func TestRunModelNetCDFTuningShapes(t *testing.T) {
	scene, _ := PaperScene(1120)
	rec := int64(1120 * 1120 * 4)
	ratio := func(p int) (untuned, tuned float64) {
		raw, err := RunModel(ModelConfig{Scene: scene, Procs: p, Format: FormatRaw})
		if err != nil {
			t.Fatal(err)
		}
		un, err := RunModel(ModelConfig{Scene: scene, Procs: p, Format: FormatNetCDF})
		if err != nil {
			t.Fatal(err)
		}
		tu, err := RunModel(ModelConfig{Scene: scene, Procs: p, Format: FormatNetCDF,
			Hints: mpiio.Hints{CBBufferSize: rec}})
		if err != nil {
			t.Fatal(err)
		}
		return un.Times.IO / raw.Times.IO, tu.Times.IO / raw.Times.IO
	}
	unLow, tuLow := ratio(512)
	if unLow < 3 || unLow > 7 {
		t.Errorf("untuned/raw at low scale = %.2f, paper says 4-5x", unLow)
	}
	if tuLow >= unLow {
		t.Errorf("tuning did not help at low scale: %.2f vs %.2f", tuLow, unLow)
	}
	unHigh, _ := ratio(32768)
	if unHigh >= unLow {
		t.Errorf("netCDF gap should narrow at scale: low %.2f, high %.2f", unLow, unHigh)
	}
	if unHigh < 1.1 || unHigh > 3.5 {
		t.Errorf("untuned/raw at 32K = %.2f, paper says ~1.5x", unHigh)
	}
}

// Fig 10: density ordering raw > CDF5 ~ H5 > tuned netCDF > untuned.
func TestRunModelDensityOrdering(t *testing.T) {
	scene, _ := PaperScene(1120)
	rec := int64(1120 * 1120 * 4)
	d := func(f Format, hints mpiio.Hints) float64 {
		r, err := RunModel(ModelConfig{Scene: scene, Procs: 2048, Format: f, Hints: hints})
		if err != nil {
			t.Fatal(err)
		}
		return r.IO.Density()
	}
	raw := d(FormatRaw, mpiio.Hints{})
	cdf5 := d(FormatCDF5, mpiio.Hints{})
	h5 := d(FormatH5, mpiio.Hints{})
	tuned := d(FormatNetCDF, mpiio.Hints{CBBufferSize: rec})
	untuned := d(FormatNetCDF, mpiio.Hints{})
	if !(raw >= cdf5 && cdf5 > tuned && h5 > tuned && tuned > untuned) {
		t.Errorf("density ordering wrong: raw=%.3f cdf5=%.3f h5=%.3f tuned=%.3f untuned=%.3f",
			raw, cdf5, h5, tuned, untuned)
	}
	if untuned > 0.35 {
		t.Errorf("untuned density %.3f; the paper reads most of the file", untuned)
	}
	if tuned < 0.35 || tuned > 0.75 {
		t.Errorf("tuned density %.3f, paper is ~0.5 (11 GB for 5.6)", tuned)
	}
}

func TestRunModelBinarySwapAndContention(t *testing.T) {
	scene, _ := PaperScene(1120)
	bs, err := RunModel(ModelConfig{Scene: scene, Procs: 4096, Format: FormatGenerate, BinarySwap: true})
	if err != nil {
		t.Fatal(err)
	}
	if bs.Messages != 4096*12 {
		t.Errorf("binary swap messages = %d, want p*log2(p)", bs.Messages)
	}
	with, err := RunModel(ModelConfig{Scene: scene, Procs: 4096, Compositors: 4096, Format: FormatGenerate})
	if err != nil {
		t.Fatal(err)
	}
	without, err := RunModel(ModelConfig{Scene: scene, Procs: 4096, Compositors: 4096,
		Format: FormatGenerate, NoContention: true})
	if err != nil {
		t.Fatal(err)
	}
	if without.Times.Composite > with.Times.Composite {
		t.Error("disabling contention cannot slow compositing")
	}
}

func TestRunModelErrors(t *testing.T) {
	scene, _ := PaperScene(1120)
	if _, err := RunModel(ModelConfig{Scene: scene, Procs: 0}); err == nil {
		t.Error("Procs=0 accepted")
	}
	if _, err := RunModel(ModelConfig{Scene: scene, Procs: 8, Compositors: 16}); err == nil {
		t.Error("m > p accepted")
	}
	if _, err := RunModel(ModelConfig{Scene: scene, Procs: 6, Format: FormatGenerate, BinarySwap: true}); err == nil {
		t.Error("non-pow2 binary swap accepted")
	}
}

func TestImprovedRuleUsedByDefault(t *testing.T) {
	scene, _ := PaperScene(1120)
	r, err := RunModel(ModelConfig{Scene: scene, Procs: 16384, Format: FormatGenerate})
	if err != nil {
		t.Fatal(err)
	}
	orig, err := RunModel(ModelConfig{Scene: scene, Procs: 16384, Compositors: 16384, Format: FormatGenerate})
	if err != nil {
		t.Fatal(err)
	}
	if r.Times.Composite >= orig.Times.Composite {
		t.Error("default (improved) compositing should beat the original at 16K")
	}
	if machine.ImprovedCompositors(16384) != 2048 {
		t.Error("improved rule wrong")
	}
}

func TestStageTimesPercent(t *testing.T) {
	if Percent(25, 100) != 25 || Percent(1, 0) != 0 {
		t.Error("Percent wrong")
	}
}
