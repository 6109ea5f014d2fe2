package volume

import (
	"math"

	"bgpvr/internal/grid"
)

// Supernova is an analytic stand-in for the VH-1 core-collapse supernova
// dataset (Blondin et al.) visualized in the paper. It models the X
// component of velocity in a standing-accretion-shock flow:
//
//   - a spherical accretion shock whose radius is perturbed by low-order
//     modes (the SASI "sloshing" the simulation studies),
//   - infall outside the shock and turbulent convection inside it,
//   - deterministic multi-octave gradient-ish noise for the turbulence,
//     evaluable independently at any point (no stored state), so blocks
//     of any resolution can be generated exactly in parallel.
//
// Values are scaled to [0, 1] with 0.5 = zero velocity, as the raw files
// in this repo store normalized scalars.
type Supernova struct {
	// Seed varies the turbulence phases; the same seed always produces
	// the same field.
	Seed int64
	// Time selects the SASI phase, standing in for the paper's
	// "time step 1530".
	Time float64
}

// Var identifies one of the five VH-1 variables stored per time step.
type Var int

// The five variables of a VH-1 time step, in file order (Fig 8 of the
// paper names pressure, density and the three velocity components).
const (
	VarPressure Var = iota
	VarDensity
	VarVelocityX
	VarVelocityY
	VarVelocityZ
	NumVars = 5
)

// Name returns the netCDF variable name used in files.
func (v Var) Name() string {
	switch v {
	case VarPressure:
		return "pressure"
	case VarDensity:
		return "density"
	case VarVelocityX:
		return "velocity_x"
	case VarVelocityY:
		return "velocity_y"
	default:
		return "velocity_z"
	}
}

// hash64 is a splitmix64-style scrambler used to derive deterministic
// per-octave phases.
func hash64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (s Supernova) phase(octave, k int) float64 {
	h := hash64(uint64(s.Seed)*1315423911 + uint64(octave)*2654435761 + uint64(k))
	return 2 * math.Pi * float64(h%1_000_003) / 1_000_003
}

// turbulence is a smooth pseudo-random field in roughly [-1, 1] built
// from a few octaves of phase-shifted trigonometric products.
func (s Supernova) turbulence(x, y, z float64, which int) float64 {
	var sum, norm float64
	freq := 3.0
	amp := 1.0
	for o := 0; o < 4; o++ {
		p0 := s.phase(o, which*4+0)
		p1 := s.phase(o, which*4+1)
		p2 := s.phase(o, which*4+2)
		v := math.Sin(freq*x+p0) * math.Sin(freq*y+p1) * math.Sin(freq*z+p2)
		// Rotate the lattice between octaves so axes do not align.
		x, y, z = 0.8*y+0.6*z, 0.8*z+0.6*x, 0.8*x+0.6*y
		sum += amp * v
		norm += amp
		freq *= 2.1
		amp *= 0.55
	}
	return sum / norm
}

// EvalNorm evaluates variable v at normalized coordinates in [-1, 1]^3
// (the volume cube), returning a value in [0, 1].
func (s Supernova) EvalNorm(v Var, x, y, z float64) float64 {
	sinT, cosT := s.timeTrig()
	return shellAt(x, y, z, sinT, cosT).value(v, s.turbulence(x, y, z, int(v)), sinT)
}

// timeTrig returns the two SASI-phase constants of s.Time that every
// sample uses: sin(Time) and cos(0.7·Time).
func (s Supernova) timeTrig() (sinT, cosT float64) {
	return math.Sin(s.Time), math.Cos(0.7 * s.Time)
}

// shell is the turbulence-independent part of a sample: the point's
// radius and direction, the perturbed shock radius along that
// direction, and how far inside the shock the point lies (1 deep
// inside, 0 outside).
type shell struct {
	r, ux, uy, uz, shock, inside float64
}

// shellAt places normalized point (x, y, z) relative to the shock front;
// sinT and cosT come from timeTrig.
func shellAt(x, y, z, sinT, cosT float64) shell {
	r := math.Sqrt(x*x + y*y + z*z)
	if r < 1e-12 {
		r = 1e-12
	}
	ux, uy, uz := x/r, y/r, z/r

	// Perturbed shock radius: base + l=1 sloshing mode (SASI) + l=2 mode.
	slosh := 0.10 * sinT * uz
	quad := 0.05 * cosT * (3*uz*uz - 1) / 2
	shock := 0.72 + slosh + quad

	// Smooth blend across the shock front.
	inside := 0.5 * (1 - math.Tanh((r-shock)/0.035))
	return shell{r: r, ux: ux, uy: uy, uz: uz, shock: shock, inside: inside}
}

// value combines the shell with turb = turbulence(x, y, z, int(v)) at
// the same point into variable v's sample in [0, 1]. Where inside
// is exactly 0 the result does not depend on turb (every term using it
// is multiplied by zero, and the sign of a zero sum vanishes in
// raw+1), so callers may pass 0 there.
func (sh shell) value(v Var, turb, sinT float64) float64 {
	r, inside := sh.r, sh.inside
	var raw float64
	switch v {
	case VarPressure:
		// High central pressure decaying outward, jump at the shock.
		raw = 2.2*math.Exp(-3*r) + 0.9*inside + 0.15*inside*turb
		raw = raw/3.3*2 - 1 // to roughly [-1, 1]
	case VarDensity:
		raw = 1.8*math.Exp(-2.2*r) + 0.7*inside + 0.2*inside*turb
		raw = raw/2.7*2 - 1
	default:
		// Velocity: supersonic infall outside the shock (radial, toward
		// the center), turbulent convection inside.
		comp := int(v - VarVelocityX) // 0, 1, 2
		u := [3]float64{sh.ux, sh.uy, sh.uz}[comp]
		infall := -0.85 * u * math.Min(1, (r-sh.shock)/0.25+1)
		raw = inside*(turb+0.35*sinT*u) + (1-inside)*infall
	}
	if raw > 1 {
		raw = 1
	}
	if raw < -1 {
		raw = -1
	}
	return 0.5 * (raw + 1)
}

// Eval evaluates variable v at global lattice point (x, y, z) of a
// dims-sized grid.
func (s Supernova) Eval(v Var, dims grid.IVec3, x, y, z int) float32 {
	nx := 2*float64(x)/float64(dims.X-1) - 1
	ny := 2*float64(y)/float64(dims.Y-1) - 1
	nz := 2*float64(z)/float64(dims.Z-1) - 1
	return float32(s.EvalNorm(v, nx, ny, nz))
}

// axisCoords returns the normalized coordinate of each lattice index
// lo <= i < lo+n on an axis of the given size, as Eval computes it.
func axisCoords(lo, n, size int) []float64 {
	c := make([]float64, n)
	for i := range c {
		c[i] = 2*float64(lo+i)/float64(size-1) - 1
	}
	return c
}

// Generate fills a new field covering ext of a dims grid with variable
// v. Every sample is bit-identical to Eval at the same lattice point:
// Generate performs the same floating-point operations in the same
// order, but computes each loop-invariant value once per call instead
// of once per voxel. The per-octave phases, frequencies, amplitudes and
// the time trig constants are hoisted; octave 0's sines depend on one
// axis each and octave 1's rotated coordinates on two axes each
// (x1 = 0.8y+0.6z per row, y1 = 0.8z+0.6x per plane, z1 = 0.8x+0.6y
// per block face), so both octaves come from tables of at most X·Y
// entries. Only octaves 2 and 3 and the shock blend are evaluated per
// voxel, and turbulence is skipped where the shock blend zeroes it.
func (s Supernova) Generate(v Var, dims grid.IVec3, ext grid.Extent) *Field {
	f := NewField(dims, ext)
	n := 0
	s.generateRows(v, dims, ext, func(row []float64) {
		for _, val := range row {
			f.Data[n] = float32(val)
			n++
		}
	})
	return f
}

// generateRows computes Generate's samples before the float32
// conversion — EvalNorm's exact float64 results — and passes them to
// emit one X row at a time, in Field order. The row slice is reused.
func (s Supernova) generateRows(v Var, dims grid.IVec3, ext grid.Extent, emit func(row []float64)) {
	if ext.Empty() {
		return
	}
	sinT, cosT := s.timeTrig()

	// The octave sequence of turbulence, with the same repeated updates.
	var (
		ph         [4][3]float64
		freq, amp  [4]float64
		norm       float64
		fr, am     = 3.0, 1.0
		which      = int(v)
		sx, sy, sz = ext.Size().X, ext.Size().Y, ext.Size().Z
	)
	for o := 0; o < 4; o++ {
		for k := range ph[o] {
			ph[o][k] = s.phase(o, which*4+k)
		}
		freq[o], amp[o] = fr, am
		norm += am
		fr *= 2.1
		am *= 0.55
	}

	nx := axisCoords(ext.Lo.X, sx, dims.X)
	ny := axisCoords(ext.Lo.Y, sy, dims.Y)
	nz := axisCoords(ext.Lo.Z, sz, dims.Z)

	// Octave 0: sin(freq·axis + phase), one table per axis.
	oct0 := func(c []float64, p float64) []float64 {
		t := make([]float64, len(c))
		for i, a := range c {
			t[i] = math.Sin(freq[0]*a + p)
		}
		return t
	}
	s0x, s0y, s0z := oct0(nx, ph[0][0]), oct0(ny, ph[0][1]), oct0(nz, ph[0][2])

	// Octave 1: the z1 sine over the block's X·Y face; the y1 sine is
	// refilled per plane and the x1 sine computed per row.
	s1z := make([]float64, sx*sy)
	for j, y := range ny {
		for i, x := range nx {
			s1z[j*sx+i] = math.Sin(freq[1]*(0.8*x+0.6*y) + ph[1][2])
		}
	}
	s1y := make([]float64, sx)

	out := make([]float64, sx)
	for k, z := range nz {
		for i, x := range nx {
			s1y[i] = math.Sin(freq[1]*(0.8*z+0.6*x) + ph[1][1])
		}
		for j, y := range ny {
			x1 := 0.8*y + 0.6*z
			s1x := math.Sin(freq[1]*x1 + ph[1][0])
			s0yj := s0y[j]
			row := s1z[j*sx : (j+1)*sx]
			for i, x := range nx {
				sh := shellAt(x, y, z, sinT, cosT)
				var turb float64
				if sh.inside != 0 {
					y1, z1 := 0.8*z+0.6*x, 0.8*x+0.6*y
					x2, y2, z2 := 0.8*y1+0.6*z1, 0.8*z1+0.6*x1, 0.8*x1+0.6*y1
					x3, y3, z3 := 0.8*y2+0.6*z2, 0.8*z2+0.6*x2, 0.8*x2+0.6*y2
					var sum float64
					sum += amp[0] * (s0x[i] * s0yj * s0z[k])
					sum += amp[1] * (s1x * s1y[i] * row[i])
					sum += amp[2] * (math.Sin(freq[2]*x2+ph[2][0]) * math.Sin(freq[2]*y2+ph[2][1]) * math.Sin(freq[2]*z2+ph[2][2]))
					sum += amp[3] * (math.Sin(freq[3]*x3+ph[3][0]) * math.Sin(freq[3]*y3+ph[3][1]) * math.Sin(freq[3]*z3+ph[3][2]))
					turb = sum / norm
				}
				out[i] = sh.value(v, turb, sinT)
			}
			emit(out)
		}
	}
}

// GenerateFull fills the whole dims grid with variable v.
func (s Supernova) GenerateFull(v Var, dims grid.IVec3) *Field {
	return s.Generate(v, dims, grid.WholeGrid(dims))
}
