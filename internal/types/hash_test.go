package types

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
	"time"
)

// TestHashImagesAreFNV1a pins Value.Hash to FNV-1a over each kind's byte
// image: shard placement (KeyHash) and the columnar equality lanes
// (HashInt, HashFloat, HashString on unboxed payloads) depend on it.
func TestHashImagesAreFNV1a(t *testing.T) {
	fnv1a := func(b []byte) uint64 {
		h := fnv.New64a()
		h.Write(b)
		return h.Sum64()
	}
	le := func(u uint64) []byte { return binary.LittleEndian.AppendUint64(nil, u) }
	when := time.Date(2012, 8, 27, 0, 0, 0, 0, time.UTC)
	for _, tc := range []struct {
		v    Value
		want uint64
	}{
		{Null, fnv1a([]byte{0})},
		{NewInt(0), fnv1a(le(0))},
		{NewInt(-1), fnv1a(le(math.MaxUint64))},
		{NewInt(math.MinInt64), fnv1a(le(1 << 63))},
		{NewBool(true), fnv1a(le(1))},
		{NewTime(when), fnv1a(le(uint64(when.UnixNano())))},
		{NewFloat(3), fnv1a(le(3))},
		{NewFloat(math.Copysign(0, -1)), fnv1a(le(0))},
		{NewFloat(2.5), fnv1a(le(math.Float64bits(2.5)))},
		{NewFloat(math.Inf(-1)), fnv1a(le(math.Float64bits(math.Inf(-1))))},
		{NewFloat(math.NaN()), fnv1a(le(math.Float64bits(math.NaN())))},
		{NewString(""), fnv1a(nil)},
		{NewString("abc"), fnv1a([]byte("abc"))},
	} {
		if got := tc.v.Hash(); got != tc.want {
			t.Errorf("%v.Hash() = %#x, want %#x", tc.v, got, tc.want)
		}
	}
	if HashNull != Null.Hash() {
		t.Errorf("HashNull = %#x, want %#x", HashNull, Null.Hash())
	}
}
