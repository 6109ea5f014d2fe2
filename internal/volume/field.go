// Package volume provides scalar-field storage and sampling, transfer
// functions, and a synthetic core-collapse-supernova-like dataset that
// stands in for the VH-1 data used in the paper (which is not publicly
// redistributable at the sizes studied). The synthetic field is analytic
// and deterministic, so any block of any resolution can be generated
// independently, in parallel, exactly — the property the experiments
// need.
package volume

import (
	"bgpvr/internal/geom"
	"bgpvr/internal/grid"
)

// Field is a block of node-centered scalar samples. Values live on the
// integer lattice points of the global grid; the block stores lattice
// points Ext.Lo <= p < Ext.Hi (Ext typically includes ghost layers so
// that trilinear interpolation is exact up to the block's owned
// boundary). World coordinates coincide with lattice coordinates: the
// whole volume spans [0, Dims-1] on each axis.
type Field struct {
	Dims grid.IVec3 // global grid size
	Ext  grid.Extent
	Data []float32 // len == Ext.Count(), X fastest within the extent
}

// NewField allocates a zero-filled field covering ext of a dims grid.
func NewField(dims grid.IVec3, ext grid.Extent) *Field {
	return &Field{Dims: dims, Ext: ext, Data: make([]float32, ext.Count())}
}

// index converts global lattice coordinates to a position in Data.
// The caller must ensure the point is within Ext.
func (f *Field) index(x, y, z int) int64 {
	s := f.Ext.Size()
	return (int64(z-f.Ext.Lo.Z)*int64(s.Y)+int64(y-f.Ext.Lo.Y))*int64(s.X) + int64(x-f.Ext.Lo.X)
}

// At returns the sample at global lattice point (x, y, z).
func (f *Field) At(x, y, z int) float32 { return f.Data[f.index(x, y, z)] }

// Set stores the sample at global lattice point (x, y, z).
func (f *Field) Set(x, y, z int, v float32) { f.Data[f.index(x, y, z)] = v }

// Bounds returns the world-space axis-aligned box over which Sample is
// defined for this field: [Ext.Lo, Ext.Hi-1] on each axis.
func (f *Field) Bounds() geom.AABB {
	return geom.Box(
		geom.V(float64(f.Ext.Lo.X), float64(f.Ext.Lo.Y), float64(f.Ext.Lo.Z)),
		geom.V(float64(f.Ext.Hi.X-1), float64(f.Ext.Hi.Y-1), float64(f.Ext.Hi.Z-1)),
	)
}

// Sample returns the trilinearly interpolated value at world point p,
// and ok=false when p lies outside the field's bounds.
func (f *Field) Sample(p geom.Vec3) (float64, bool) {
	if !f.Inside(p) {
		return 0, false
	}
	return f.SampleInside(p), true
}

// Inside reports whether p lies within Bounds(), where Sample is
// defined. Each axis is tested against a closed interval, so the
// points of a ray that pass form one contiguous run.
func (f *Field) Inside(p geom.Vec3) bool {
	lo, hi := f.Ext.Lo, f.Ext.Hi
	return p.X >= float64(lo.X) && p.X <= float64(hi.X-1) &&
		p.Y >= float64(lo.Y) && p.Y <= float64(hi.Y-1) &&
		p.Z >= float64(lo.Z) && p.Z <= float64(hi.Z-1)
}

// SampleInside is Sample at a point the caller knows to be Inside.
func (f *Field) SampleInside(p geom.Vec3) float64 {
	lo, hi := f.Ext.Lo, f.Ext.Hi
	x0 := int(p.X)
	y0 := int(p.Y)
	z0 := int(p.Z)
	// Clamp the base cell so that points exactly on the upper boundary
	// interpolate within the last cell.
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
	// The base corner's index, then the strides to the other seven.
	// Degenerate (single-plane) extents interpolate flat along that
	// axis: its stride is 0.
	sx, sy := hi.X-lo.X, hi.Y-lo.Y
	dx, dy, dz := 1, sx, sx*sy
	if x0+1 >= hi.X {
		dx = 0
	}
	if y0+1 >= hi.Y {
		dy = 0
	}
	if z0+1 >= hi.Z {
		dz = 0
	}
	wx := p.X - float64(x0)
	wy := p.Y - float64(y0)
	wz := p.Z - float64(z0)

	i := ((z0-lo.Z)*sy+(y0-lo.Y))*sx + (x0 - lo.X)
	d := f.Data
	c000 := float64(d[i])
	c100 := float64(d[i+dx])
	c010 := float64(d[i+dy])
	c110 := float64(d[i+dy+dx])
	c001 := float64(d[i+dz])
	c101 := float64(d[i+dz+dx])
	c011 := float64(d[i+dz+dy])
	c111 := float64(d[i+dz+dy+dx])

	c00 := c000*(1-wx) + c100*wx
	c10 := c010*(1-wx) + c110*wx
	c01 := c001*(1-wx) + c101*wx
	c11 := c011*(1-wx) + c111*wx
	c0 := c00*(1-wy) + c10*wy
	c1 := c01*(1-wy) + c11*wy
	return c0*(1-wz) + c1*wz
}

// Fill evaluates fn at every lattice point of the field's extent.
func (f *Field) Fill(fn func(x, y, z int) float32) {
	i := 0
	for z := f.Ext.Lo.Z; z < f.Ext.Hi.Z; z++ {
		for y := f.Ext.Lo.Y; y < f.Ext.Hi.Y; y++ {
			for x := f.Ext.Lo.X; x < f.Ext.Hi.X; x++ {
				f.Data[i] = fn(x, y, z)
				i++
			}
		}
	}
}

// SubfieldFrom copies the overlapping region of src into f. It is used
// to extract a block (with ghost) from a full-volume field, or to merge
// received halo data.
func (f *Field) SubfieldFrom(src *Field) {
	ov := f.Ext.Intersect(src.Ext)
	if ov.Empty() {
		return
	}
	for z := ov.Lo.Z; z < ov.Hi.Z; z++ {
		for y := ov.Lo.Y; y < ov.Hi.Y; y++ {
			si := src.index(ov.Lo.X, y, z)
			di := f.index(ov.Lo.X, y, z)
			copy(f.Data[di:di+int64(ov.Size().X)], src.Data[si:si+int64(ov.Size().X)])
		}
	}
}
