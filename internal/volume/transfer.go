package volume

import (
	"math"
	"sort"

	"bgpvr/internal/img"
)

// TransferPoint is one control point of a transfer function: at scalar
// value V (in [0, 1]) the classified color is (R, G, B) with opacity A.
// Colors are straight (non-premultiplied); Classify premultiplies.
type TransferPoint struct {
	V          float64
	R, G, B, A float64
}

// Transfer maps normalized scalar values to color and opacity by
// piecewise-linear interpolation between control points. It is the
// "transfer function" of the paper's rendering stage.
type Transfer struct {
	pts []TransferPoint
}

// NewTransfer builds a transfer function from control points, which are
// sorted by V. At least one point is required.
func NewTransfer(pts ...TransferPoint) *Transfer {
	if len(pts) == 0 {
		panic("volume: NewTransfer requires control points")
	}
	sorted := append([]TransferPoint(nil), pts...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].V < sorted[j].V })
	return &Transfer{pts: sorted}
}

// Points returns a copy of the control points, sorted by V.
func (t *Transfer) Points() []TransferPoint { return append([]TransferPoint(nil), t.pts...) }

// Lookup returns the straight-alpha classification of scalar v. Values
// outside the control points clamp to the end points; NaN (a corrupt
// voxel, or a sample interpolated from one) classifies as fully
// transparent black.
func (t *Transfer) Lookup(v float64) (r, g, b, a float64) {
	pts := t.pts
	last := len(pts) - 1
	if v <= pts[0].V {
		p := pts[0]
		return p.R, p.G, p.B, p.A
	}
	if v >= pts[last].V {
		p := pts[last]
		return p.R, p.G, p.B, p.A
	}
	if math.IsNaN(v) {
		return 0, 0, 0, 0
	}
	// Here pts[0].V < v < pts[last].V, so a forward scan for the first
	// point at or above v stops by last (transfer functions have few
	// points).
	i := 1
	for pts[i].V < v {
		i++
	}
	p, q := pts[i-1], pts[i]
	w := 0.0
	if q.V > p.V {
		w = (v - p.V) / (q.V - p.V)
	}
	return p.R + w*(q.R-p.R), p.G + w*(q.G-p.G), p.B + w*(q.B-p.B), p.A + w*(q.A-p.A)
}

// Classify returns the premultiplied RGBA sample for scalar v with the
// opacity scaled for step length ds relative to a unit reference step
// (opacity correction: a' = 1-(1-a)^ds). NaN classifies as the zero
// (fully transparent) sample.
func (t *Transfer) Classify(v, ds float64) img.RGBA {
	r, g, b, a := t.Lookup(v)
	if a <= 0 {
		return img.RGBA{}
	}
	if a > 1 {
		a = 1
	}
	a = 1 - pow1m(a, ds)
	return img.RGBA{R: float32(r * a), G: float32(g * a), B: float32(b * a), A: float32(a)}
}

// pow1m computes (1-a)^ds, short-circuiting the common unit-step case.
func pow1m(a, ds float64) float64 {
	base := 1 - a
	if ds == 1 {
		return base
	}
	return math.Pow(base, ds)
}

// MaxOpacityIn returns the exact maximum opacity the transfer function
// takes over the closed value interval [lo, hi]. For a piecewise-linear
// function the maximum is attained at an endpoint or at a control point
// inside the interval, so the computation is exact — the renderer's
// empty-space skipping relies on this to never skip a contributing
// sample.
func (t *Transfer) MaxOpacityIn(lo, hi float64) float64 {
	if hi < lo {
		lo, hi = hi, lo
	}
	_, _, _, m := t.Lookup(lo)
	if _, _, _, a := t.Lookup(hi); a > m {
		m = a
	}
	for _, p := range t.pts {
		if p.V > lo && p.V < hi && p.A > m {
			m = p.A
		}
	}
	return m
}

// SupernovaTransfer is the default transfer function used for the
// synthetic supernova's velocity fields: blue for negative velocity
// (v < 0.5), red-orange for positive, transparent near zero — similar in
// spirit to Fig 1 of the paper.
func SupernovaTransfer() *Transfer {
	return NewTransfer(
		TransferPoint{V: 0.00, R: 0.05, G: 0.15, B: 0.85, A: 0.85},
		TransferPoint{V: 0.25, R: 0.15, G: 0.45, B: 0.95, A: 0.35},
		TransferPoint{V: 0.45, R: 0.60, G: 0.80, B: 1.00, A: 0.02},
		TransferPoint{V: 0.50, R: 1.00, G: 1.00, B: 1.00, A: 0.00},
		TransferPoint{V: 0.55, R: 1.00, G: 0.90, B: 0.55, A: 0.02},
		TransferPoint{V: 0.75, R: 1.00, G: 0.55, B: 0.10, A: 0.35},
		TransferPoint{V: 1.00, R: 0.95, G: 0.10, B: 0.05, A: 0.85},
	)
}

// GrayRampTransfer is a simple diagnostic transfer function: opacity and
// brightness ramp linearly with the scalar.
func GrayRampTransfer(maxOpacity float64) *Transfer {
	return NewTransfer(
		TransferPoint{V: 0, R: 0, G: 0, B: 0, A: 0},
		TransferPoint{V: 1, R: 1, G: 1, B: 1, A: maxOpacity},
	)
}
