// Package types defines the value, tuple and schema model shared by the
// storage manager, the shared operators and the SQL front-end.
//
// Values are small immutable scalars: a kind tag and one 64-bit word beside
// a string header, 32 bytes, because the shared operators move and compare
// them by the million per cycle.
//
// The struct is comparable, and == is bit identity: same kind, same word,
// same string. For FLOAT the word is the IEEE-754 bit pattern, so == tells
// -0.0 from +0.0 and a NaN equals a NaN with the same bits. Equal, Compare
// and Hash keep SQL numeric semantics instead (coercion across INT, FLOAT,
// BOOL and TIME; -0.0 equals +0.0).
package types

import (
	"fmt"
	"math"
	"strconv"
	"time"
)

// Kind enumerates the scalar types supported by the engine.
type Kind uint8

// Supported value kinds.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
	KindTime // stored as Unix nanoseconds, UTC
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "VARCHAR"
	case KindBool:
		return "BOOL"
	case KindTime:
		return "TIMESTAMP"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a single typed scalar. The zero Value is NULL.
//
// Int is the payload of every fixed-width kind: the integer for INT, 0/1
// for BOOL, Unix nanoseconds for TIME and the IEEE-754 bits for FLOAT (read
// a FLOAT through AsFloat). Reading Int is meaningful only under an
// integer-kind check.
type Value struct {
	K   Kind
	Int int64
	Str string
}

// Null is the SQL NULL value.
var Null = Value{}

// NewInt returns an INT value.
func NewInt(v int64) Value { return Value{K: KindInt, Int: v} }

// NewFloat returns a FLOAT value.
func NewFloat(v float64) Value { return Value{K: KindFloat, Int: int64(math.Float64bits(v))} }

// NewString returns a VARCHAR value.
func NewString(v string) Value { return Value{K: KindString, Str: v} }

// NewBool returns a BOOL value.
func NewBool(v bool) Value {
	if v {
		return Value{K: KindBool, Int: 1}
	}
	return Value{K: KindBool}
}

// NewTime returns a TIMESTAMP value (UTC, nanosecond precision).
func NewTime(t time.Time) Value { return Value{K: KindTime, Int: t.UnixNano()} }

// Kind returns the value's kind.
func (v Value) Kind() Kind { return v.K }

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.K == KindNull }

// AsInt returns the value as an int64. FLOATs are truncated, BOOLs map to
// 0/1, and all other kinds return 0.
func (v Value) AsInt() int64 {
	switch v.K {
	case KindInt, KindBool, KindTime:
		return v.Int
	case KindFloat:
		return int64(v.AsFloat())
	default:
		return 0
	}
}

// AsFloat returns the value as a float64 (0 for non-numeric kinds).
func (v Value) AsFloat() float64 {
	switch v.K {
	case KindFloat:
		return math.Float64frombits(uint64(v.Int))
	case KindInt, KindBool, KindTime:
		return float64(v.Int)
	default:
		return 0
	}
}

// AsString returns the value as a string, formatting non-string kinds.
func (v Value) AsString() string {
	if v.K == KindString {
		return v.Str
	}
	return v.String()
}

// AsBool returns the truthiness of the value.
func (v Value) AsBool() bool {
	switch v.K {
	case KindBool, KindInt, KindTime:
		return v.Int != 0
	case KindFloat:
		return v.AsFloat() != 0
	case KindString:
		return v.Str != ""
	default:
		return false
	}
}

// AsTime returns the value as a time.Time (zero time for non-time kinds).
func (v Value) AsTime() time.Time {
	if v.K != KindTime {
		return time.Time{}
	}
	return time.Unix(0, v.Int).UTC()
}

// String renders the value for display and debugging.
func (v Value) String() string {
	switch v.K {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.Int, 10)
	case KindFloat:
		return strconv.FormatFloat(v.AsFloat(), 'g', -1, 64)
	case KindString:
		return v.Str
	case KindBool:
		if v.Int != 0 {
			return "true"
		}
		return "false"
	case KindTime:
		return v.AsTime().Format(time.RFC3339Nano)
	default:
		return fmt.Sprintf("Value(kind=%d)", uint8(v.K))
	}
}

// FNV-1a parameters shared by Value.Hash and the codec's composite
// KeyHash — the two mixes must stay compatible: shard routing hashes
// stored rows through KeyHash and relies on Value.Hash's coercion
// consistency.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Numeric reports whether k participates in numeric coercion.
func (k Kind) Numeric() bool {
	return k == KindInt || k == KindFloat || k == KindBool || k == KindTime
}

// Compare orders two values: -1 if v < o, 0 if equal, +1 if v > o.
// NULL sorts before every non-NULL value. INT/FLOAT/BOOL/TIME compare
// numerically with coercion; strings compare lexicographically. Values of
// incomparable kinds order by kind tag so that sorting is always total.
func (v Value) Compare(o Value) int {
	if v.K == KindNull || o.K == KindNull {
		switch {
		case v.K == o.K:
			return 0
		case v.K == KindNull:
			return -1
		default:
			return 1
		}
	}
	if v.K.Numeric() && o.K.Numeric() {
		if v.K == KindFloat || o.K == KindFloat {
			a, b := v.AsFloat(), o.AsFloat()
			switch {
			case a < b:
				return -1
			case a > b:
				return 1
			default:
				return 0
			}
		}
		a, b := v.Int, o.Int
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		default:
			return 0
		}
	}
	if v.K == KindString && o.K == KindString {
		switch {
		case v.Str < o.Str:
			return -1
		case v.Str > o.Str:
			return 1
		default:
			return 0
		}
	}
	// Incomparable kinds: fall back to kind ordering for a total order.
	switch {
	case v.K < o.K:
		return -1
	case v.K > o.K:
		return 1
	default:
		return 0
	}
}

// Equal reports whether two values compare equal (with numeric coercion).
func (v Value) Equal(o Value) bool { return v.Compare(o) == 0 }

// Hash returns a 64-bit hash of the value, consistent with Equal for values
// of the same kind family (numeric values hash by their float64 image when
// either side could be FLOAT; the engine only mixes kinds via coercion in
// comparisons, hash tables are built per-column so kinds are homogeneous).
// It is built from the per-kind images HashInt, HashFloat and HashString,
// which typed column loops call on unboxed payloads.
func (v Value) Hash() uint64 {
	switch v.K {
	case KindNull:
		h := uint64(fnvOffset64) // FNV-1a of one zero byte
		return h * fnvPrime64
	case KindInt, KindBool, KindTime:
		return HashInt(v.Int)
	case KindFloat:
		return HashFloat(v.AsFloat())
	case KindString:
		return HashString(v.Str)
	}
	return fnvOffset64
}

// HashNull is the hash of NULL.
var HashNull = Null.Hash()

// HashInt is the hash of an INT, BOOL or TIME payload: FNV-1a of its 8
// little-endian bytes.
func HashInt(i int64) uint64 {
	h := uint64(fnvOffset64)
	for s := 0; s < 64; s += 8 {
		h ^= (uint64(i) >> s) & 0xff
		h *= fnvPrime64
	}
	return h
}

// HashFloat is the hash of a FLOAT: an integral finite float hashes as the
// equal INT (coerced equality keeps hash consistency), any other by its bit
// pattern.
func HashFloat(f float64) uint64 {
	if f == math.Trunc(f) && !math.IsInf(f, 0) {
		return HashInt(int64(f))
	}
	return HashInt(int64(math.Float64bits(f)))
}

// HashString is the hash of a VARCHAR: FNV-1a of its bytes.
func HashString(s string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}
