package core

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"bgpvr/internal/grid"
	"bgpvr/internal/h5lite"
	"bgpvr/internal/netcdf"
	"bgpvr/internal/rawfmt"
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

// The raw and h5lite writers generate one z-plane at a time; their
// files must equal, byte for byte, the files the same writers produce
// from the pointwise Eval.
func TestWriteSceneFileRawH5MatchEval(t *testing.T) {
	s := DefaultScene(8, 8)
	s.Dims = grid.IVec3{X: 21, Y: 10, Z: 7}
	s.Variable = volume.VarDensity
	sn := s.Supernova()
	dir := t.TempDir()
	specs := map[Format]func(path string) error{
		FormatRaw: func(path string) error {
			return rawfmt.WriteFunc(path, s.Dims, func(x, y, z int) float32 {
				return sn.Eval(s.Variable, s.Dims, x, y, z)
			})
		},
		FormatH5: func(path string) error {
			return h5lite.Write(path, s.Dims, varNames(), func(v, x, y, z int) float32 {
				return sn.Eval(volume.Var(v), s.Dims, x, y, z)
			})
		},
	}
	for f, spec := range specs {
		got, want := filepath.Join(dir, f.String()), filepath.Join(dir, f.String()+".eval")
		if err := WriteSceneFile(got, f, s); err != nil {
			t.Fatal(err)
		}
		if err := spec(want); err != nil {
			t.Fatal(err)
		}
		gb, err := os.ReadFile(got)
		if err != nil {
			t.Fatal(err)
		}
		wb, err := os.ReadFile(want)
		if err != nil {
			t.Fatal(err)
		}
		if len(wb) < int(s.Dims.Count())*4 || !bytes.Equal(gb, wb) {
			t.Errorf("%v: %d bytes written, differ from the %d-byte Eval file", f, len(gb), len(wb))
		}
	}
}
