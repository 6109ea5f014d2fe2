package render

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"bgpvr/internal/geom"
	"bgpvr/internal/grid"
	"bgpvr/internal/img"
	"bgpvr/internal/volume"
)

// The executable spec of the ray-casting kernel: the straightforward
// per-sample forms of castSegment, Field.Sample and Transfer.Lookup
// (eight independently indexed fetches, a binary search per lookup, an
// ownership test per sample). The production kernel must reproduce
// their pixels and sample counts bit for bit.

// specAt is Field.At with the 3-D index recomputed on every call.
func specAt(f *volume.Field, x, y, z int) float32 {
	s := f.Ext.Size()
	return f.Data[(int64(z-f.Ext.Lo.Z)*int64(s.Y)+int64(y-f.Ext.Lo.Y))*int64(s.X)+int64(x-f.Ext.Lo.X)]
}

// specSample is Field.Sample.
func specSample(f *volume.Field, p geom.Vec3) (float64, bool) {
	lo, hi := f.Ext.Lo, f.Ext.Hi
	if p.X < float64(lo.X) || p.X > float64(hi.X-1) ||
		p.Y < float64(lo.Y) || p.Y > float64(hi.Y-1) ||
		p.Z < float64(lo.Z) || p.Z > float64(hi.Z-1) {
		return 0, false
	}
	x0 := int(p.X)
	y0 := int(p.Y)
	z0 := int(p.Z)
	if x0 > hi.X-2 {
		x0 = hi.X - 2
	}
	if y0 > hi.Y-2 {
		y0 = hi.Y - 2
	}
	if z0 > hi.Z-2 {
		z0 = hi.Z - 2
	}
	if x0 < lo.X {
		x0 = lo.X
	}
	if y0 < lo.Y {
		y0 = lo.Y
	}
	if z0 < lo.Z {
		z0 = lo.Z
	}
	x1, y1, z1 := x0+1, y0+1, z0+1
	if x1 >= hi.X {
		x1 = x0
	}
	if y1 >= hi.Y {
		y1 = y0
	}
	if z1 >= hi.Z {
		z1 = z0
	}
	wx := p.X - float64(x0)
	wy := p.Y - float64(y0)
	wz := p.Z - float64(z0)

	c000 := float64(specAt(f, x0, y0, z0))
	c100 := float64(specAt(f, x1, y0, z0))
	c010 := float64(specAt(f, x0, y1, z0))
	c110 := float64(specAt(f, x1, y1, z0))
	c001 := float64(specAt(f, x0, y0, z1))
	c101 := float64(specAt(f, x1, y0, z1))
	c011 := float64(specAt(f, x0, y1, z1))
	c111 := float64(specAt(f, x1, y1, z1))

	c00 := c000*(1-wx) + c100*wx
	c10 := c010*(1-wx) + c110*wx
	c01 := c001*(1-wx) + c101*wx
	c11 := c011*(1-wx) + c111*wx
	c0 := c00*(1-wy) + c10*wy
	c1 := c01*(1-wy) + c11*wy
	return c0*(1-wz) + c1*wz, true
}

// specLookup is Transfer.Lookup over sorted control points (undefined
// for NaN).
func specLookup(pts []volume.TransferPoint, v float64) (r, g, b, a float64) {
	if v <= pts[0].V {
		p := pts[0]
		return p.R, p.G, p.B, p.A
	}
	if v >= pts[len(pts)-1].V {
		p := pts[len(pts)-1]
		return p.R, p.G, p.B, p.A
	}
	i := sort.Search(len(pts), func(i int) bool { return pts[i].V >= v })
	p, q := pts[i-1], pts[i]
	w := 0.0
	if q.V > p.V {
		w = (v - p.V) / (q.V - p.V)
	}
	return p.R + w*(q.R-p.R), p.G + w*(q.G-p.G), p.B + w*(q.B-p.B), p.A + w*(q.A-p.A)
}

// specClassify is Transfer.Classify on specLookup.
func specClassify(pts []volume.TransferPoint, v, ds float64) img.RGBA {
	r, g, b, a := specLookup(pts, v)
	if a <= 0 {
		return img.RGBA{}
	}
	if a > 1 {
		a = 1
	}
	base := 1 - a
	if ds != 1 {
		base = math.Pow(base, ds)
	}
	a = 1 - base
	return img.RGBA{R: float32(r * a), G: float32(g * a), B: float32(b * a), A: float32(a)}
}

// specShadePixel is shadePixel with its gradient probes on specSample.
func specShadePixel(sh *shader, f *volume.Field, p geom.Vec3, r, g, b float32) (float32, float32, float32) {
	if sh == nil {
		return r, g, b
	}
	sample := func(p geom.Vec3) float64 {
		v, _ := specSample(f, p.Max(sh.bounds.Min).Min(sh.bounds.Max))
		return v
	}
	var grad geom.Vec3
	for a := 0; a < 3; a++ {
		var e geom.Vec3
		e = e.SetComp(a, gradStep)
		grad = grad.SetComp(a, sample(p.Add(e))-sample(p.Sub(e)))
	}
	var i float64
	if l := grad.Len(); l < 1e-12 {
		i = sh.ambient + sh.diffuse*0.5
	} else {
		lam := grad.Mul(-1 / l).Dot(sh.light.Mul(-1))
		if lam < 0 {
			lam = -lam
		}
		i = sh.ambient + sh.diffuse*lam
	}
	return float32(math.Min(1, float64(r)*i)), float32(math.Min(1, float64(g)*i)), float32(math.Min(1, float64(b)*i))
}

// specCastSegment is castSegment with the ownership and bounds tests
// on every sample.
func specCastSegment(f *volume.Field, dims grid.IVec3, own *grid.Extent, pts []volume.TransferPoint,
	cfg Config, mask *OpacityMask, sh *shader, ray geom.Ray, t0, t1 float64) (img.RGBA, int64) {

	var acc img.RGBA
	var samples int64
	k0 := int64(math.Ceil((t0 - slop) / cfg.Step))
	k1 := int64(math.Floor((t1 + slop) / cfg.Step))
	for k := k0; k <= k1; k++ {
		p := ray.At(float64(k) * cfg.Step)
		if own != nil && !(p.X >= float64(own.Lo.X) && p.X < float64(own.Hi.X) &&
			p.Y >= float64(own.Lo.Y) && p.Y < float64(own.Hi.Y) &&
			p.Z >= float64(own.Lo.Z) && p.Z < float64(own.Hi.Z) &&
			p.X <= float64(dims.X-1) && p.Y <= float64(dims.Y-1) && p.Z <= float64(dims.Z-1)) {
			continue
		}
		if mask != nil && !mask.Visible(p) {
			continue
		}
		v, ok := specSample(f, p)
		if !ok {
			continue
		}
		samples++
		s := specClassify(pts, v, cfg.Step)
		if s.A == 0 && s.R == 0 && s.G == 0 && s.B == 0 {
			continue
		}
		s.R, s.G, s.B = specShadePixel(sh, f, p, s.R, s.G, s.B)
		t := 1 - acc.A
		acc.R += t * s.R
		acc.G += t * s.G
		acc.B += t * s.B
		acc.A += t * s.A
		if cfg.EarlyTerminationAlpha > 0 && float64(acc.A) >= cfg.EarlyTerminationAlpha {
			break
		}
	}
	return acc, samples
}

// specMask is buildMask on specBuildMinMax.
func specMask(f *volume.Field, tf *volume.Transfer, cfg Config) *OpacityMask {
	if !cfg.SkipEmptySpace {
		return nil
	}
	size := cfg.MacrocellSize
	if size <= 0 {
		size = 8
	}
	return BuildOpacityMask(specBuildMinMax(f, size), tf)
}

// specRender casts box's rays over rect serially into pix (row stride
// rect.W()) with specCastSegment; own nil is the serial renderer.
func specRender(f *volume.Field, own *grid.Extent, cam Camera, tf *volume.Transfer, cfg Config,
	box geom.AABB, rect img.Rect, pix []img.RGBA) int64 {
	mask := specMask(f, tf, cfg)
	sh := newShader(cfg.Shade, geom.V(float64(f.Dims.X-1), float64(f.Dims.Y-1), float64(f.Dims.Z-1)))
	pts := tf.Points()
	var samples int64
	for y := rect.Y0; y < rect.Y1; y++ {
		for x := rect.X0; x < rect.X1; x++ {
			ray := cam.Ray(float64(x)+0.5, float64(y)+0.5)
			if t0, t1, ok := box.RayIntersect(ray); ok {
				px, n := specCastSegment(f, f.Dims, own, pts, cfg, mask, sh, ray, t0, t1)
				pix[(y-rect.Y0)*rect.W()+(x-rect.X0)] = px
				samples += n
			}
		}
	}
	return samples
}

// specRenderBlock is RenderBlock on the spec kernel.
func specRenderBlock(f *volume.Field, own grid.Extent, cam Camera, tf *volume.Transfer, cfg Config) *Subimage {
	rect := ProjectedRect(cam, own)
	sub := &Subimage{Rect: rect, Pix: make([]img.RGBA, rect.NumPixels())}
	if !rect.Empty() {
		sub.Samples = specRender(f, &own, cam, tf, cfg, ownedBounds(own), rect, sub.Pix)
	}
	return sub
}

// specRenderFull is RenderFull on the spec kernel.
func specRenderFull(f *volume.Field, cam Camera, tf *volume.Transfer, cfg Config) (*img.Image, int64) {
	w, h := cam.Size()
	out := img.New(w, h)
	box := ownedBounds(f.Ext)
	box.Max = geom.V(float64(f.Ext.Hi.X-1), float64(f.Ext.Hi.Y-1), float64(f.Ext.Hi.Z-1))
	return out, specRender(f, nil, cam, tf, cfg, box, img.Rect{X1: w, Y1: h}, out.Pix)
}

// samePix reports the first pixel whose bits differ, or -1.
func samePix(got, want []img.RGBA) int {
	if len(got) != len(want) {
		return 0
	}
	bits := func(c img.RGBA) [4]uint32 {
		return [4]uint32{math.Float32bits(c.R), math.Float32bits(c.G), math.Float32bits(c.B), math.Float32bits(c.A)}
	}
	for i := range got {
		if bits(got[i]) != bits(want[i]) {
			return i
		}
	}
	return -1
}

// TestKernelMatchesSpec pins RenderFull and RenderBlock to the spec
// kernel over every combination of camera, shading, empty-space
// skipping, early termination, step and decomposition. The axis camera
// looks straight down z, so its rays have zero x and y direction and
// run along lattice and block-face planes.
func TestKernelMatchesSpec(t *testing.T) {
	dims := grid.IVec3{X: 19, Y: 23, Z: 17}
	sn := volume.Supernova{Seed: 5, Time: 0.8}
	full := sn.GenerateFull(volume.VarVelocityX, dims)
	c := geom.V(float64(dims.X-1)/2, float64(dims.Y-1)/2, float64(dims.Z-1)/2)
	cams := map[string]Camera{
		"ortho": NewOrtho(c, geom.V(0.3, -0.2, -1), geom.V(0, 1, 0), 36, 36, 26, 26),
		"axis":  NewOrtho(c, geom.V(0, 0, -1), geom.V(0, 1, 0), 24, 24, 24, 24),
		"persp": NewPersp(c.Add(geom.V(26, -14, 30)), c, geom.V(0, 1, 0), 40, 26, 22),
	}
	tfs := map[string]*volume.Transfer{"supernova": volume.SupernovaTransfer(), "ramp": volume.GrayRampTransfer(0.3)}
	n := 0
	for camName, cam := range cams {
		for tfName, tf := range tfs {
			for _, shaded := range []bool{false, true} {
				for _, skip := range []bool{false, true} {
					for _, eta := range []float64{0, 0.95} {
						for _, step := range []float64{1, 0.7, 1.3} {
							n++
							cfg := Config{Step: step, EarlyTerminationAlpha: eta, SkipEmptySpace: skip,
								MacrocellSize: 2 + n%5, Workers: 1 + n%3, Shade: Shading{Enabled: shaded}}
							name := fmt.Sprintf("%s/%s/shaded=%v/skip=%v/eta=%v/step=%v", camName, tfName, shaded, skip, eta, step)
							checkKernelMatchesSpec(t, name, full, cam, tf, cfg)
						}
					}
				}
			}
		}
	}
}

func checkKernelMatchesSpec(t *testing.T, name string, full *volume.Field, cam Camera, tf *volume.Transfer, cfg Config) {
	t.Helper()
	got, gotN := RenderFull(full, cam, tf, cfg)
	want, wantN := specRenderFull(full, cam, tf, cfg)
	if wantN == 0 {
		t.Fatalf("%s: RenderFull took no samples", name)
	}
	if gotN != wantN {
		t.Errorf("%s: RenderFull Samples %d, spec %d", name, gotN, wantN)
	}
	if i := samePix(got.Pix, want.Pix); i >= 0 {
		t.Fatalf("%s: RenderFull pixel %d: %+v, spec %+v", name, i, got.Pix[i], want.Pix[i])
	}
	for _, blocks := range []int{1, 8, 27} {
		d := grid.NewDecomp(full.Dims, blocks)
		for r := 0; r < d.NumBlocks(); r++ {
			own := d.BlockExtent(r)
			f := volume.NewField(full.Dims, d.GhostExtent(r, GhostLayersFor(cfg)))
			f.SubfieldFrom(full)
			got, want := RenderBlock(f, own, cam, tf, cfg), specRenderBlock(f, own, cam, tf, cfg)
			if got.Rect != want.Rect || got.Samples != want.Samples {
				t.Errorf("%s: %d blocks, block %d: rect %v Samples %d, spec rect %v Samples %d",
					name, blocks, r, got.Rect, got.Samples, want.Rect, want.Samples)
			}
			if i := samePix(got.Pix, want.Pix); i >= 0 {
				t.Fatalf("%s: %d blocks, block %d: pixel %d differs from the spec", name, blocks, r, i)
			}
		}
	}
}

// TestSampleMatchesSpec compares Field.Sample with specSample bit for
// bit at random, lattice, face and out-of-bounds points, on a partial
// extent and on extents one plane thick along each axis.
func TestSampleMatchesSpec(t *testing.T) {
	dims := grid.IVec3{X: 13, Y: 11, Z: 9}
	sn := volume.Supernova{Seed: 9, Time: 0.4}
	exts := map[string]grid.Extent{
		"whole":   grid.WholeGrid(dims),
		"partial": grid.Ext(grid.I(2, 3, 1), grid.I(9, 11, 6)),
		"x-plane": grid.Ext(grid.I(4, 0, 0), grid.I(5, 11, 9)),
		"y-plane": grid.Ext(grid.I(0, 10, 0), grid.I(13, 11, 9)),
		"z-plane": grid.Ext(grid.I(0, 0, 3), grid.I(13, 11, 4)),
		"point":   grid.Ext(grid.I(12, 0, 8), grid.I(13, 1, 9)),
		"two":     grid.Ext(grid.I(5, 5, 5), grid.I(7, 7, 7)),
	}
	rng := rand.New(rand.NewSource(3))
	for name, ext := range exts {
		f := sn.Generate(volume.VarPressure, dims, ext)
		b := f.Bounds()
		lo, hi := b.Min, b.Max
		var pts []geom.Vec3
		for i := 0; i < 2000; i++ {
			// Mostly inside, some up to one unit outside each face.
			pts = append(pts, geom.V(
				lo.X-1+rng.Float64()*(hi.X-lo.X+2),
				lo.Y-1+rng.Float64()*(hi.Y-lo.Y+2),
				lo.Z-1+rng.Float64()*(hi.Z-lo.Z+2)))
		}
		for _, x := range []float64{lo.X, hi.X, math.Nextafter(hi.X, math.Inf(1)), (lo.X + hi.X) / 2} {
			for _, y := range []float64{lo.Y, hi.Y, math.Nextafter(lo.Y, math.Inf(-1)), math.Floor((lo.Y + hi.Y) / 2)} {
				for _, z := range []float64{lo.Z, hi.Z, math.Nextafter(hi.Z, math.Inf(-1))} {
					pts = append(pts, geom.V(x, y, z))
				}
			}
		}
		for _, p := range pts {
			got, gotOK := f.Sample(p)
			want, wantOK := specSample(f, p)
			if gotOK != wantOK || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s at %v: Sample (%v, %v), spec (%v, %v)", name, p, got, gotOK, want, wantOK)
			}
		}
	}
}

// TestLookupMatchesSpec compares Transfer.Lookup with specLookup bit
// for bit at every control point, at its neighbouring floats, at random
// values and far outside the range, including a transfer function with
// a repeated control value (a step) and a single-point one.
func TestLookupMatchesSpec(t *testing.T) {
	tfs := map[string]*volume.Transfer{
		"supernova": volume.SupernovaTransfer(),
		"ramp":      volume.GrayRampTransfer(0.6),
		"step": volume.NewTransfer(
			volume.TransferPoint{V: 0.2, R: 1, A: 0.1},
			volume.TransferPoint{V: 0.5, G: 1, A: 0.3},
			volume.TransferPoint{V: 0.5, B: 1, A: 0.9},
			volume.TransferPoint{V: 0.5, R: 0.5, A: 0.4},
			volume.TransferPoint{V: 0.8, G: 0.5, A: 0.7}),
		"single": volume.NewTransfer(volume.TransferPoint{V: 0.4, R: 0.2, G: 0.3, B: 0.4, A: 0.5}),
	}
	rng := rand.New(rand.NewSource(4))
	for name, tf := range tfs {
		pts := tf.Points()
		vs := []float64{math.Inf(-1), -3, 0, 1, 3, math.Inf(1)}
		for _, p := range pts {
			vs = append(vs, p.V, math.Nextafter(p.V, math.Inf(1)), math.Nextafter(p.V, math.Inf(-1)))
		}
		for i := 0; i < 5000; i++ {
			vs = append(vs, rng.Float64()*1.2-0.1)
		}
		for _, v := range vs {
			r, g, b, a := tf.Lookup(v)
			wr, wg, wb, wa := specLookup(pts, v)
			got := [4]uint64{math.Float64bits(r), math.Float64bits(g), math.Float64bits(b), math.Float64bits(a)}
			want := [4]uint64{math.Float64bits(wr), math.Float64bits(wg), math.Float64bits(wb), math.Float64bits(wa)}
			if got != want {
				t.Fatalf("%s at %v: Lookup (%v,%v,%v,%v), spec (%v,%v,%v,%v)", name, v, r, g, b, a, wr, wg, wb, wa)
			}
			for _, ds := range []float64{1, 0.7, 1.3} {
				if c, w := tf.Classify(v, ds), specClassify(pts, v, ds); samePix([]img.RGBA{c}, []img.RGBA{w}) >= 0 {
					t.Fatalf("%s at %v step %v: Classify %+v, spec %+v", name, v, ds, c, w)
				}
			}
		}
	}
}
