package render

import (
	"bgpvr/internal/geom"
	"bgpvr/internal/grid"
	"bgpvr/internal/img"
	"bgpvr/internal/par"
	"bgpvr/internal/volume"
)

// Multivariate rendering: the paper reads the five-variable netCDF file
// directly partly because it "affords the possibility to perform
// multivariate visualizations in the future" (§V). These entry points
// sample several co-located fields per ray position and classify the
// vector of values through one combined classifier. The same global
// sample grid and half-open ownership apply, so the parallel == serial
// invariant carries over unchanged.

// MultiClassifier maps the sampled values of all fields at one position
// to a premultiplied color, with the step-size opacity correction
// already applied (volume.Transfer.Classify composes well here).
type MultiClassifier func(vals []float64, step float64) img.RGBA

// castSegmentMulti is castSegment over several fields.
func castSegmentMulti(fs []*volume.Field, dims grid.IVec3, own *grid.Extent,
	cls MultiClassifier, cfg Config, ray geom.Ray, t0, t1 float64) (img.RGBA, int64) {

	k0, k1 := sampleRange(t0, t1, cfg.Step)
	k0, k1 = trimRange(ray, cfg.Step, k0, k1, func(p geom.Vec3) bool {
		for _, f := range fs {
			if !f.Inside(p) {
				return false
			}
		}
		return own == nil || containsHalfOpen(*own, dims, p)
	})
	var acc img.RGBA
	var samples int64
	vals := make([]float64, len(fs))
	for k := k0; k <= k1; k++ {
		p := ray.At(float64(k) * cfg.Step)
		for i, f := range fs {
			vals[i] = f.SampleInside(p)
		}
		samples++
		s := cls(vals, cfg.Step)
		if s.A == 0 && s.R == 0 && s.G == 0 && s.B == 0 {
			continue
		}
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

// RenderBlockMulti renders one block's partial image from several
// co-extent fields (each must cover the block plus one ghost layer).
// Macrocell skipping and shading are single-field features and are
// ignored here.
func RenderBlockMulti(fs []*volume.Field, own grid.Extent, cam Camera, cls MultiClassifier, cfg Config) *Subimage {
	rect := ProjectedRect(cam, own)
	sub := &Subimage{Rect: rect, Pix: make([]img.RGBA, rect.NumPixels())}
	if rect.Empty() || len(fs) == 0 {
		return sub
	}
	box := ownedBounds(own)
	j := multiCastJob{fs: fs, dims: fs[0].Dims, own: &own, cls: cls, cfg: cfg,
		cam: cam, box: box, rect: rect, pix: sub.Pix, stride: rect.W()}
	sub.Samples = j.run()
	return sub
}

// multiCastJob is castJob for the multivariate path; the same disjoint
// tile/ordered-fold argument makes it bit-identical at any width
// (castSegmentMulti allocates its vals scratch per ray, so rays stay
// independent).
type multiCastJob struct {
	fs     []*volume.Field
	dims   grid.IVec3
	own    *grid.Extent
	cls    MultiClassifier
	cfg    Config
	cam    Camera
	box    geom.AABB
	rect   img.Rect
	pix    []img.RGBA
	stride int
	off    int
}

func (j *multiCastJob) castRows(y0, y1 int) int64 {
	var samples int64
	for y := y0; y < y1; y++ {
		i := j.off + (y-j.rect.Y0)*j.stride
		for x := j.rect.X0; x < j.rect.X1; x++ {
			ray := j.cam.Ray(float64(x)+0.5, float64(y)+0.5)
			if t0, t1, ok := j.box.RayIntersect(ray); ok {
				px, n := castSegmentMulti(j.fs, j.dims, j.own, j.cls, j.cfg, ray, t0, t1)
				j.pix[i] = px
				samples += n
			}
			i++
		}
	}
	return samples
}

func (j *multiCastJob) run() int64 {
	rows := j.rect.Y1 - j.rect.Y0
	w := j.cfg.Workers
	if w > rows {
		w = rows
	}
	if w <= 1 {
		return j.castRows(j.rect.Y0, j.rect.Y1)
	}
	tiles := par.Tiles(rows, tilesPerWorker*w)
	counts := make([]int64, len(tiles))
	par.For(w, len(tiles), func(ti int) {
		t := tiles[ti]
		counts[ti] = j.castRows(j.rect.Y0+t.Lo, j.rect.Y0+t.Hi)
	})
	var samples int64
	for _, n := range counts {
		samples += n
	}
	return samples
}

// RenderFullMulti is the serial multivariate reference renderer.
func RenderFullMulti(fs []*volume.Field, cam Camera, cls MultiClassifier, cfg Config) (*img.Image, int64) {
	w, h := cam.Size()
	out := img.New(w, h)
	if len(fs) == 0 {
		return out, 0
	}
	f0 := fs[0]
	box := ownedBounds(f0.Ext)
	box.Max = geom.V(float64(f0.Ext.Hi.X-1), float64(f0.Ext.Hi.Y-1), float64(f0.Ext.Hi.Z-1))
	j := multiCastJob{fs: fs, dims: f0.Dims, own: nil, cls: cls, cfg: cfg,
		cam: cam, box: box, rect: img.Rect{X0: 0, Y0: 0, X1: w, Y1: h}, pix: out.Pix, stride: w}
	return out, j.run()
}

// ModulatedClassifier builds the common bivariate classification: color
// and base opacity from the primary value through tf, with the opacity
// scaled by the secondary value mapped through [lo, hi] -> [0, 1]
// (clamped). Values of the secondary field below lo erase the sample.
func ModulatedClassifier(tf *volume.Transfer, lo, hi float64) MultiClassifier {
	return func(vals []float64, step float64) img.RGBA {
		s := tf.Classify(vals[0], step)
		if len(vals) < 2 {
			return s
		}
		w := (vals[1] - lo) / (hi - lo)
		if w <= 0 {
			return img.RGBA{}
		}
		if w > 1 {
			w = 1
		}
		return img.RGBA{R: s.R * float32(w), G: s.G * float32(w), B: s.B * float32(w), A: s.A * float32(w)}
	}
}
