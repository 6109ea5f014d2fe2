package core

import (
	"math"
	"path/filepath"
	"testing"

	"bgpvr/internal/grid"
	"bgpvr/internal/netcdf"
	"bgpvr/internal/vfile"
	"bgpvr/internal/volume"
)

// The record-variable netCDF writer fills each record plane with the
// block generator; every stored value must carry Eval's exact bits.
func TestWriteSceneFileNetCDFMatchesEval(t *testing.T) {
	s := DefaultScene(8, 8)
	s.Dims = grid.IVec3{X: 33, Y: 17, Z: 9}
	path := filepath.Join(t.TempDir(), "ts.nc")
	if err := WriteSceneFile(path, FormatNetCDF, s); err != nil {
		t.Fatal(err)
	}
	vf, err := vfile.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer vf.Close()
	h, err := netcdf.ReadHeader(vf)
	if err != nil {
		t.Fatal(err)
	}
	sn := s.Supernova()
	for v := volume.Var(0); v < volume.NumVars; v++ {
		nv, ok := h.VarByName(v.Name())
		if !ok || !h.IsRecordVar(nv) {
			t.Fatalf("%s: missing or not a record variable", v.Name())
		}
		for z := 0; z < s.Dims.Z; z++ {
			plane := grid.Ext(grid.I(0, 0, z), grid.I(s.Dims.X, s.Dims.Y, z+1))
			f, err := netcdf.ReadVarExtent(vf, h, nv, plane)
			if err != nil {
				t.Fatalf("%s plane %d: %v", v.Name(), z, err)
			}
			i := 0
			for y := 0; y < s.Dims.Y; y++ {
				for x := 0; x < s.Dims.X; x++ {
					got, want := f.Data[i], sn.Eval(v, s.Dims, x, y, z)
					if math.Float32bits(got) != math.Float32bits(want) {
						t.Fatalf("%s at (%d,%d,%d): file %v, Eval %v", v.Name(), x, y, z, got, want)
					}
					i++
				}
			}
		}
	}
}
