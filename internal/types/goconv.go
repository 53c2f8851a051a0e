package types

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// FromGo converts Go parameter values to engine values. It accepts nil
// (NULL), int, int32, int64, uint64, float32, float64, string, bool,
// time.Time and Value itself. INT is 64-bit signed, so a uint64 above
// math.MaxInt64 is an error rather than a wrapped negative number. Both the
// in-process API and the network client convert their arguments here.
func FromGo(args []any) ([]Value, error) {
	if len(args) == 0 {
		return nil, nil
	}
	out := make([]Value, len(args))
	for i, a := range args {
		switch v := a.(type) {
		case nil:
			out[i] = Null
		case int:
			out[i] = NewInt(int64(v))
		case int32:
			out[i] = NewInt(int64(v))
		case int64:
			out[i] = NewInt(v)
		case uint64:
			if v > math.MaxInt64 {
				return nil, fmt.Errorf("parameter %d: uint64 %d overflows INT", i+1, v)
			}
			out[i] = NewInt(int64(v))
		case float64:
			out[i] = NewFloat(v)
		case float32:
			out[i] = NewFloat(float64(v))
		case string:
			out[i] = NewString(v)
		case bool:
			out[i] = NewBool(v)
		case time.Time:
			out[i] = NewTime(v)
		case Value:
			out[i] = v
		default:
			return nil, fmt.Errorf("unsupported parameter type %T", a)
		}
	}
	return out, nil
}

// Scan copies the row into dest pointers (*int64, *int, *float64, *string,
// *bool, *time.Time or *Value). Destinations bind to the row's leading
// columns: more destinations than columns is an error, while trailing
// columns beyond len(dest) are not scanned. A nil row is a result cursor
// with no current row (Scan before Next).
func (r Row) Scan(dest ...any) error {
	if r == nil {
		return errors.New("Rows.Scan without Next")
	}
	if len(dest) > len(r) {
		return fmt.Errorf("Rows.Scan wants %d values, row has %d", len(dest), len(r))
	}
	for i, d := range dest {
		v := r[i]
		switch p := d.(type) {
		case *int64:
			*p = v.AsInt()
		case *int:
			*p = int(v.AsInt())
		case *float64:
			*p = v.AsFloat()
		case *string:
			*p = v.AsString()
		case *bool:
			*p = v.AsBool()
		case *time.Time:
			*p = v.AsTime()
		case *Value:
			*p = v
		default:
			return fmt.Errorf("unsupported Rows.Scan destination %T", d)
		}
	}
	return nil
}
