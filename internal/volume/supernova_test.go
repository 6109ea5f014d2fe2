package volume

import (
	"fmt"
	"math"
	"testing"

	"bgpvr/internal/grid"
)

// generateExtents returns the extents TestGenerateMatchesEval covers on
// a dims grid: the whole grid, every ghost extent of an 8-rank
// decomposition at 1 and 2 ghost layers, a block touching the upper
// corner, one z-plane, one row and one voxel.
func generateExtents(dims grid.IVec3) map[string]grid.Extent {
	exts := map[string]grid.Extent{
		"whole":        grid.WholeGrid(dims),
		"upper-corner": grid.Ext(grid.I(dims.X/2+1, dims.Y/3, dims.Z-3), dims),
		"z-plane":      grid.Ext(grid.I(0, 0, dims.Z/2), grid.I(dims.X, dims.Y, dims.Z/2+1)),
		"row":          grid.Ext(grid.I(0, dims.Y-1, 1), grid.I(dims.X, dims.Y, 2)),
		"voxel":        grid.Ext(grid.I(dims.X-1, 0, dims.Z/3), grid.I(dims.X, 1, dims.Z/3+1)),
	}
	d := grid.NewDecomp(dims, 8)
	for g := 1; g <= 2; g++ {
		for r := 0; r < d.NumBlocks(); r++ {
			exts[fmt.Sprintf("ghost%d-rank%d", g, r)] = d.GhostExtent(r, g)
		}
	}
	return exts
}

// TestGenerateMatchesEval pins the block generator to the pointwise
// spec: every sample must carry Eval's exact float32 bits, and every
// float64 value generateRows produces before that conversion must carry
// EvalNorm's exact bits. The float64 check is the sensitive one: a
// reordered product changes the last float64 bit far more often than
// it changes the rounded float32.
func TestGenerateMatchesEval(t *testing.T) {
	dimsList := []grid.IVec3{grid.Cube(12), {X: 17, Y: 9, Z: 33}, {X: 7, Y: 13, Z: 5}}
	seeds := []int64{1530, 7, -3, 0}
	times := []float64{1.1, 0, 2.7}
	norm := func(i, n int) float64 { return 2*float64(i)/float64(n-1) - 1 }
	for _, dims := range dimsList {
		exts := generateExtents(dims)
		for _, seed := range seeds {
			for _, tm := range times {
				sn := Supernova{Seed: seed, Time: tm}
				for v := Var(0); v < NumVars; v++ {
					for name, ext := range exts {
						where := func(x, y, z int) string {
							return fmt.Sprintf("dims %v seed %d time %v %s %s at (%d,%d,%d)",
								dims, seed, tm, v.Name(), name, x, y, z)
						}
						f := sn.Generate(v, dims, ext)
						if int64(len(f.Data)) != ext.Count() {
							t.Fatalf("%v %s: %d samples, want %d", dims, name, len(f.Data), ext.Count())
						}
						i := 0
						for z := ext.Lo.Z; z < ext.Hi.Z; z++ {
							for y := ext.Lo.Y; y < ext.Hi.Y; y++ {
								for x := ext.Lo.X; x < ext.Hi.X; x++ {
									got, want := f.Data[i], sn.Eval(v, dims, x, y, z)
									if math.Float32bits(got) != math.Float32bits(want) {
										t.Fatalf("%s: Generate %v (%#x), Eval %v (%#x)",
											where(x, y, z), got, math.Float32bits(got), want, math.Float32bits(want))
									}
									i++
								}
							}
						}
						y, z := ext.Lo.Y, ext.Lo.Z
						sn.generateRows(v, dims, ext, func(row []float64) {
							if len(row) != ext.Size().X {
								t.Fatalf("%s: row of %d, want %d", where(ext.Lo.X, y, z), len(row), ext.Size().X)
							}
							for i, got := range row {
								x := ext.Lo.X + i
								want := sn.EvalNorm(v, norm(x, dims.X), norm(y, dims.Y), norm(z, dims.Z))
								if math.Float64bits(got) != math.Float64bits(want) {
									t.Fatalf("%s: generateRows %v (%#x), EvalNorm %v (%#x)",
										where(x, y, z), got, math.Float64bits(got), want, math.Float64bits(want))
								}
							}
							if y++; y == ext.Hi.Y {
								y, z = ext.Lo.Y, z+1
							}
						})
						if z != ext.Hi.Z {
							t.Fatalf("%s: generateRows stopped at plane %d of %d", name, z, ext.Hi.Z)
						}
					}
				}
			}
		}
	}
}

// TestGenerateSkipsSaturatedShell checks that the cases above reach the
// branch where Generate skips turbulence: some whole-grid voxels lie
// where the shock blend is exactly zero, and some do not.
func TestGenerateSkipsSaturatedShell(t *testing.T) {
	dims := grid.Cube(12)
	sinT, cosT := Supernova{Time: 1.1}.timeTrig()
	c := axisCoords(0, dims.X, dims.X)
	var zero, nonzero int
	for _, z := range c {
		for _, y := range c {
			for _, x := range c {
				if shellAt(x, y, z, sinT, cosT).inside == 0 {
					zero++
				} else {
					nonzero++
				}
			}
		}
	}
	if zero == 0 || nonzero == 0 {
		t.Fatalf("inside == 0 at %d voxels, != 0 at %d: both branches must be covered", zero, nonzero)
	}
}
