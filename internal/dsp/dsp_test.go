package dsp

import (
	"math"
	"testing"
	"testing/quick"
)

func TestScale(t *testing.T) {
	x := []complex128{1 + 1i, 2}
	got := Scale(x, 2)
	if got[0] != 2+2i || got[1] != 4 {
		t.Errorf("Scale = %v", got)
	}
}

func TestEnergyPower(t *testing.T) {
	x := []complex128{3 + 4i, 0}
	if e := Energy(x); math.Abs(e-25) > 1e-12 {
		t.Errorf("Energy = %g, want 25", e)
	}
	if p := Power(x); math.Abs(p-12.5) > 1e-12 {
		t.Errorf("Power = %g, want 12.5", p)
	}
	if p := Power(nil); p != 0 {
		t.Errorf("Power(nil) = %g", p)
	}
}

func TestComponentExtraction(t *testing.T) {
	x := []complex128{3 + 4i, -1 - 1i}
	re, im := Real(x), Imag(x)
	if re[0] != 3 || re[1] != -1 || im[0] != 4 || im[1] != -1 {
		t.Errorf("Real/Imag = %v %v", re, im)
	}
	cj := Conj(x)
	if cj[0] != 3-4i {
		t.Errorf("Conj = %v", cj)
	}
}

func TestDBRoundTrip(t *testing.T) {
	f := func(db float64) bool {
		db = math.Mod(db, 100) // keep in a numerically sane range
		return math.Abs(DB(FromDB(db))-db) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if !math.IsInf(DB(0), -1) || !math.IsInf(DB(-1), -1) {
		t.Error("DB of non-positive ratio should be -Inf")
	}
}
