package volume

import (
	"math"
	"math/rand"
	"testing"

	"bgpvr/internal/geom"
	"bgpvr/internal/grid"
	"bgpvr/internal/img"
)

func TestFieldIndexingAndAt(t *testing.T) {
	dims := grid.Cube(8)
	ext := grid.Ext(grid.I(2, 2, 2), grid.I(6, 5, 4))
	f := NewField(dims, ext)
	if int64(len(f.Data)) != ext.Count() {
		t.Fatalf("data len %d, want %d", len(f.Data), ext.Count())
	}
	f.Set(2, 2, 2, 1.5)
	f.Set(5, 4, 3, 2.5)
	if f.At(2, 2, 2) != 1.5 || f.At(5, 4, 3) != 2.5 {
		t.Error("Set/At mismatch")
	}
	if f.Data[0] != 1.5 || f.Data[len(f.Data)-1] != 2.5 {
		t.Error("extent-local layout violated")
	}
}

func TestFieldFillVisitsEveryPointOnce(t *testing.T) {
	dims := grid.Cube(6)
	ext := grid.Ext(grid.I(1, 0, 2), grid.I(4, 6, 5))
	f := NewField(dims, ext)
	count := 0
	f.Fill(func(x, y, z int) float32 {
		if !ext.Contains(grid.I(x, y, z)) {
			t.Fatalf("Fill visited out-of-extent point (%d,%d,%d)", x, y, z)
		}
		count++
		return float32(grid.LinearIndex(dims, grid.I(x, y, z)))
	})
	if int64(count) != ext.Count() {
		t.Fatalf("visited %d points, want %d", count, ext.Count())
	}
	// Spot check addressing.
	if f.At(2, 3, 4) != float32(grid.LinearIndex(dims, grid.I(2, 3, 4))) {
		t.Error("Fill stored wrong value")
	}
}

func TestSampleAtLatticePoints(t *testing.T) {
	dims := grid.Cube(5)
	f := NewField(dims, grid.WholeGrid(dims))
	f.Fill(func(x, y, z int) float32 { return float32(x + 10*y + 100*z) })
	for z := 0; z < 5; z++ {
		for y := 0; y < 5; y++ {
			for x := 0; x < 5; x++ {
				v, ok := f.Sample(geom.V(float64(x), float64(y), float64(z)))
				if !ok {
					t.Fatalf("sample at lattice point (%d,%d,%d) rejected", x, y, z)
				}
				if math.Abs(v-float64(x+10*y+100*z)) > 1e-6 {
					t.Fatalf("sample (%d,%d,%d) = %v", x, y, z, v)
				}
			}
		}
	}
}

func TestSampleTrilinearExactOnLinearField(t *testing.T) {
	dims := grid.Cube(6)
	f := NewField(dims, grid.WholeGrid(dims))
	f.Fill(func(x, y, z int) float32 { return float32(2*x - 3*y + z) })
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 1000; i++ {
		p := geom.V(rng.Float64()*5, rng.Float64()*5, rng.Float64()*5)
		v, ok := f.Sample(p)
		if !ok {
			t.Fatalf("in-bounds sample rejected at %v", p)
		}
		want := 2*p.X - 3*p.Y + p.Z
		if math.Abs(v-want) > 1e-5 {
			t.Fatalf("sample %v = %v, want %v", p, v, want)
		}
	}
}

func TestSampleOutOfBounds(t *testing.T) {
	dims := grid.Cube(4)
	f := NewField(dims, grid.WholeGrid(dims))
	for _, p := range []geom.Vec3{
		geom.V(-0.1, 1, 1), geom.V(3.1, 1, 1), geom.V(1, -1, 1), geom.V(1, 1, 3.5),
	} {
		if _, ok := f.Sample(p); ok {
			t.Errorf("out-of-bounds sample accepted at %v", p)
		}
	}
	// Upper boundary exactly is accepted.
	if _, ok := f.Sample(geom.V(3, 3, 3)); !ok {
		t.Error("upper boundary rejected")
	}
}

func TestSampleGhostBlockMatchesFull(t *testing.T) {
	// A block with ghost layers samples identically to the full field
	// anywhere within the block's owned region.
	dims := grid.Cube(16)
	sn := Supernova{Seed: 9, Time: 1.3}
	full := sn.GenerateFull(VarVelocityX, dims)

	d := grid.NewDecomp(dims, 8)
	rng := rand.New(rand.NewSource(13))
	for r := 0; r < 8; r++ {
		ext := d.BlockExtent(r)
		ghost := d.GhostExtent(r, 1)
		blk := sn.Generate(VarVelocityX, dims, ghost)
		for i := 0; i < 200; i++ {
			p := geom.V(
				float64(ext.Lo.X)+rng.Float64()*float64(ext.Hi.X-1-ext.Lo.X),
				float64(ext.Lo.Y)+rng.Float64()*float64(ext.Hi.Y-1-ext.Lo.Y),
				float64(ext.Lo.Z)+rng.Float64()*float64(ext.Hi.Z-1-ext.Lo.Z),
			)
			vb, okb := blk.Sample(p)
			vf, okf := full.Sample(p)
			if !okb || !okf {
				t.Fatalf("sample rejected at %v (block %d)", p, r)
			}
			if math.Abs(vb-vf) > 1e-6 {
				t.Fatalf("block %d sample %v = %v, full = %v", r, p, vb, vf)
			}
		}
	}
}

func TestSubfieldFrom(t *testing.T) {
	dims := grid.Cube(8)
	src := NewField(dims, grid.WholeGrid(dims))
	src.Fill(func(x, y, z int) float32 { return float32(grid.LinearIndex(dims, grid.I(x, y, z))) })
	dst := NewField(dims, grid.Ext(grid.I(2, 3, 4), grid.I(6, 7, 8)))
	dst.SubfieldFrom(src)
	for z := 4; z < 8; z++ {
		for y := 3; y < 7; y++ {
			for x := 2; x < 6; x++ {
				if dst.At(x, y, z) != src.At(x, y, z) {
					t.Fatalf("copy mismatch at (%d,%d,%d)", x, y, z)
				}
			}
		}
	}
	// Disjoint extents copy nothing (and do not panic).
	other := NewField(dims, grid.Ext(grid.I(0, 0, 0), grid.I(1, 1, 1)))
	other.SubfieldFrom(dst)
	if other.Data[0] != 0 {
		t.Error("disjoint SubfieldFrom wrote data")
	}
}

func TestSupernovaDeterministic(t *testing.T) {
	a := Supernova{Seed: 42, Time: 2}
	b := Supernova{Seed: 42, Time: 2}
	c := Supernova{Seed: 43, Time: 2}
	dims := grid.Cube(9)
	var differs bool
	for _, v := range []Var{VarPressure, VarDensity, VarVelocityX} {
		for i := 0; i < 50; i++ {
			x, y, z := i%9, (i*3)%9, (i*7)%9
			if a.Eval(v, dims, x, y, z) != b.Eval(v, dims, x, y, z) {
				t.Fatal("same seed differs")
			}
			if a.Eval(v, dims, x, y, z) != c.Eval(v, dims, x, y, z) {
				differs = true
			}
		}
	}
	if !differs {
		t.Error("different seeds never differ")
	}
}

func TestSupernovaRange(t *testing.T) {
	sn := Supernova{Seed: 1, Time: 0.7}
	dims := grid.Cube(12)
	for v := Var(0); v < NumVars; v++ {
		f := sn.GenerateFull(v, dims)
		var mn, mx float32 = 2, -1
		for _, s := range f.Data {
			if s < 0 || s > 1 {
				t.Fatalf("var %v value %v outside [0,1]", v, s)
			}
			mn, mx = min(mn, s), max(mx, s)
		}
		if mx-mn < 0.05 {
			t.Errorf("var %v nearly constant (range %v)", v, mx-mn)
		}
	}
}

func TestSupernovaStructure(t *testing.T) {
	// Velocity outside the shock is infall: on the +X axis outside the
	// shock radius, vx should be clearly negative (< 0.5 normalized);
	// pressure should decrease from center to edge.
	sn := Supernova{Seed: 5, Time: 0}
	outside := sn.EvalNorm(VarVelocityX, 0.95, 0, 0)
	if outside >= 0.45 {
		t.Errorf("expected infall (<0.45 normalized) outside shock, got %v", outside)
	}
	pc := sn.EvalNorm(VarPressure, 0, 0, 0)
	pe := sn.EvalNorm(VarPressure, 0.98, 0.01, 0.02)
	if pc <= pe {
		t.Errorf("pressure should fall outward: center %v edge %v", pc, pe)
	}
}

func TestVarNames(t *testing.T) {
	names := map[Var]string{
		VarPressure: "pressure", VarDensity: "density",
		VarVelocityX: "velocity_x", VarVelocityY: "velocity_y", VarVelocityZ: "velocity_z",
	}
	for v, want := range names {
		if v.Name() != want {
			t.Errorf("Var(%d).Name() = %q, want %q", v, v.Name(), want)
		}
	}
}

func TestTransferLookupInterpolation(t *testing.T) {
	tf := NewTransfer(
		TransferPoint{V: 0, R: 0, G: 0, B: 0, A: 0},
		TransferPoint{V: 1, R: 1, G: 0.5, B: 0, A: 0.8},
	)
	r, g, b, a := tf.Lookup(0.5)
	if math.Abs(r-0.5) > 1e-12 || math.Abs(g-0.25) > 1e-12 || b != 0 || math.Abs(a-0.4) > 1e-12 {
		t.Errorf("midpoint lookup = (%v,%v,%v,%v)", r, g, b, a)
	}
	// Clamping outside control range.
	if _, _, _, a := tf.Lookup(-5); a != 0 {
		t.Error("below-range lookup should clamp")
	}
	if r, _, _, _ := tf.Lookup(5); r != 1 {
		t.Error("above-range lookup should clamp")
	}
}

func TestTransferUnsortedInput(t *testing.T) {
	tf := NewTransfer(
		TransferPoint{V: 1, A: 1},
		TransferPoint{V: 0, A: 0},
		TransferPoint{V: 0.5, A: 0.2},
	)
	if _, _, _, a := tf.Lookup(0.25); math.Abs(a-0.1) > 1e-12 {
		t.Errorf("lookup after sort = %v", a)
	}
}

func TestClassifyPremultipliedAndStepScaling(t *testing.T) {
	tf := GrayRampTransfer(0.5)
	p := tf.Classify(1, 1)
	if math.Abs(float64(p.A)-0.5) > 1e-6 || math.Abs(float64(p.R)-0.5) > 1e-6 {
		t.Errorf("unit step classify = %v", p)
	}
	// Two half steps composited = one full step (opacity correction).
	h := tf.Classify(1, 0.5)
	var accA float64
	accA = float64(h.A) + (1-float64(h.A))*float64(h.A)
	if math.Abs(accA-0.5) > 1e-6 {
		t.Errorf("two half steps give alpha %v, want 0.5", accA)
	}
	// Zero opacity classifies to the zero pixel.
	if tf.Classify(0, 1) != (img.RGBA{}) {
		t.Error("zero-opacity classification should be zero pixel")
	}
}

func TestSupernovaTransferShape(t *testing.T) {
	tf := SupernovaTransfer()
	_, _, _, aZero := tf.Lookup(0.5)
	if aZero != 0 {
		t.Error("zero velocity should be fully transparent")
	}
	_, _, bNeg, aNeg := tf.Lookup(0.05)
	rPos, _, _, aPos := tf.Lookup(0.95)
	if aNeg < 0.5 || aPos < 0.5 {
		t.Error("extreme velocities should be fairly opaque")
	}
	if bNeg < 0.5 {
		t.Error("negative velocity should be blue")
	}
	if rPos < 0.5 {
		t.Error("positive velocity should be red")
	}
}

func TestFieldBounds(t *testing.T) {
	f := NewField(grid.Cube(8), grid.Ext(grid.I(2, 2, 2), grid.I(6, 6, 6)))
	b := f.Bounds()
	if b.Min != geom.V(2, 2, 2) || b.Max != geom.V(5, 5, 5) {
		t.Errorf("bounds = %+v", b)
	}
}

// A NaN scalar (a corrupt voxel, or a sample interpolated from one)
// classifies as fully transparent under every transfer function,
// including a single-point one, at any step.
func TestClassifyNaNTransparent(t *testing.T) {
	for name, tf := range map[string]*Transfer{
		"supernova": SupernovaTransfer(),
		"ramp":      GrayRampTransfer(0.5),
		"single":    NewTransfer(TransferPoint{V: 0.3, R: 1, G: 1, B: 1, A: 1}),
	} {
		if r, g, b, a := tf.Lookup(math.NaN()); r != 0 || g != 0 || b != 0 || a != 0 {
			t.Errorf("%s: Lookup(NaN) = (%v,%v,%v,%v), want zeros", name, r, g, b, a)
		}
		for _, ds := range []float64{1, 0.5} {
			if c := tf.Classify(math.NaN(), ds); c != (img.RGBA{}) {
				t.Errorf("%s: Classify(NaN, %v) = %+v, want transparent", name, ds, c)
			}
		}
	}
}
