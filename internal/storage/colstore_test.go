package storage

import (
	"math"
	"testing"

	"shareddb/internal/types"
)

// TestFloatBitsRoundTrip sends the FLOAT edge cases — both zeros, NaN, both
// infinities and a subnormal — through every place a FLOAT's bits are
// stored or derived from: the WAL/wire codec, the repF64 column mirror
// (append and update patch) and Value.Hash. Each must come back bit for bit.
func TestFloatBitsRoundTrip(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, -2.5}
	var c colVec
	c.reset(types.KindFloat)
	for i, f := range floats {
		v := types.NewFloat(f)
		if got := math.Float64bits(v.AsFloat()); got != math.Float64bits(f) {
			t.Errorf("%v: AsFloat bits %#x, want %#x", f, got, math.Float64bits(f))
		}

		dec, n, err := types.DecodeValue(types.AppendValue(nil, v))
		if err != nil || n != 9 || dec != v {
			t.Errorf("%v: codec round trip gave %v (%d bytes, %v)", f, dec, n, err)
		}

		c.appendVal(v, i)
		if got := math.Float64bits(c.f64[i]); got != math.Float64bits(f) {
			t.Errorf("%v: mirror append holds bits %#x", f, got)
		}
		c.setVal(types.NewFloat(1), i)
		c.setVal(v, i)
		if got := math.Float64bits(c.f64[i]); got != math.Float64bits(f) {
			t.Errorf("%v: mirror patch holds bits %#x", f, got)
		}

		want := types.NewInt(int64(f)).Hash() // integral floats hash like the equal INT
		if f != math.Trunc(f) || math.IsInf(f, 0) {
			want = hashBits(math.Float64bits(f)) // the rest by their bits
		}
		if got := v.Hash(); got != want {
			t.Errorf("%v: Hash %#x, want %#x", f, got, want)
		}
	}
	if c.rep != repF64 {
		t.Fatal("the mirror demoted a FLOAT column")
	}
}

// hashBits is Value.Hash's FNV-1a mix over one 64-bit word.
func hashBits(u uint64) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < 8; i++ {
		h ^= uint64(byte(u >> (8 * i)))
		h *= 1099511628211
	}
	return h
}
