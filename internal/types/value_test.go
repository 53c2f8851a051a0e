package types

import (
	"math"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

// TestValueLayout pins the 32-byte Value (kind, one 64-bit word, string
// header) and its two equalities: == is bit identity, Equal is SQL numeric
// equality.
func TestValueLayout(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Errorf("Value is %d bytes, want 32", got)
	}
	negZero, nan := NewFloat(math.Copysign(0, -1)), NewFloat(math.NaN())
	if negZero == NewFloat(0) || !negZero.Equal(NewFloat(0)) {
		t.Error("-0.0 must differ from +0.0 under == and equal it under Equal")
	}
	if nan != NewFloat(math.NaN()) {
		t.Error("a NaN must == a NaN with the same bits")
	}
	if NewFloat(1) == NewInt(1) || !NewFloat(1).Equal(NewInt(1)) {
		t.Error("FLOAT 1.0 must differ from INT 1 under == and equal it under Equal")
	}
	if negZero.Hash() != NewInt(0).Hash() {
		t.Error("-0.0 must hash like the equal INT 0")
	}
}

func TestValueConstructorsAndAccessors(t *testing.T) {
	now := time.Now().UTC().Truncate(time.Nanosecond)
	tests := []struct {
		name string
		v    Value
		kind Kind
		str  string
	}{
		{"int", NewInt(42), KindInt, "42"},
		{"negative int", NewInt(-7), KindInt, "-7"},
		{"float", NewFloat(3.5), KindFloat, "3.5"},
		{"string", NewString("abc"), KindString, "abc"},
		{"bool true", NewBool(true), KindBool, "true"},
		{"bool false", NewBool(false), KindBool, "false"},
		{"null", Null, KindNull, "NULL"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if tt.v.Kind() != tt.kind {
				t.Errorf("Kind() = %v, want %v", tt.v.Kind(), tt.kind)
			}
			if tt.v.String() != tt.str {
				t.Errorf("String() = %q, want %q", tt.v.String(), tt.str)
			}
		})
	}
	if got := NewTime(now).AsTime(); !got.Equal(now) {
		t.Errorf("AsTime() = %v, want %v", got, now)
	}
}

func TestValueAs(t *testing.T) {
	if NewInt(5).AsFloat() != 5.0 {
		t.Error("int AsFloat")
	}
	if NewFloat(5.9).AsInt() != 5 {
		t.Error("float AsInt truncation")
	}
	if !NewInt(1).AsBool() || NewInt(0).AsBool() {
		t.Error("int AsBool")
	}
	if !NewString("x").AsBool() || NewString("").AsBool() {
		t.Error("string AsBool")
	}
	if Null.AsInt() != 0 || Null.AsFloat() != 0 || Null.AsBool() {
		t.Error("null accessors should be zero")
	}
}

func TestValueCompare(t *testing.T) {
	tests := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewInt(2), NewFloat(2.0), 0},
		{NewInt(2), NewFloat(2.5), -1},
		{NewFloat(2.5), NewInt(2), 1},
		{NewString("a"), NewString("b"), -1},
		{NewString("b"), NewString("b"), 0},
		{Null, NewInt(0), -1},
		{NewInt(0), Null, 1},
		{Null, Null, 0},
		{NewBool(false), NewBool(true), -1},
		{NewTime(time.Unix(1, 0)), NewTime(time.Unix(2, 0)), -1},
		// cross-kind: string vs int falls back to kind order (int < string)
		{NewInt(5), NewString("5"), -1},
	}
	for _, tt := range tests {
		if got := tt.a.Compare(tt.b); got != tt.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
		if got := tt.b.Compare(tt.a); got != -tt.want {
			t.Errorf("Compare(%v, %v) = %d, want %d (antisymmetry)", tt.b, tt.a, got, -tt.want)
		}
	}
}

func TestCompareAntisymmetryProperty(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := NewInt(a), NewInt(b)
		return va.Compare(vb) == -vb.Compare(va)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHashEqualConsistencyProperty(t *testing.T) {
	// Equal values of the same kind must hash identically, and an integral
	// float must hash like its int image (coerced join keys).
	f := func(x int64) bool {
		if NewInt(x).Hash() != NewInt(x).Hash() {
			return false
		}
		x %= 1 << 52 // keep exactly representable in float64
		return NewInt(x).Hash() == NewFloat(float64(x)).Hash()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if NewString("ab").Hash() == NewString("ba").Hash() {
		t.Error("distinct strings should (very likely) hash differently")
	}
}

func TestValueAsStringAllKinds(t *testing.T) {
	if NewInt(3).AsString() != "3" {
		t.Error("int AsString")
	}
	if NewString("q").AsString() != "q" {
		t.Error("string AsString")
	}
}
