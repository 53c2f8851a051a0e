package types

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestFromGo(t *testing.T) {
	when := time.Date(2012, 8, 27, 1, 2, 3, 4, time.UTC)
	for _, tc := range []struct {
		in   any
		want Value
		err  string // non-empty: FromGo fails with a message containing it
	}{
		{in: nil, want: Null},
		{in: int(-7), want: NewInt(-7)},
		{in: int32(math.MinInt32), want: NewInt(math.MinInt32)},
		{in: int64(math.MinInt64), want: NewInt(math.MinInt64)},
		{in: uint64(math.MaxInt64), want: NewInt(math.MaxInt64)},
		{in: uint64(math.MaxInt64) + 1, err: "overflows INT"},
		{in: uint64(math.MaxUint64), err: "overflows INT"},
		{in: float32(1.5), want: NewFloat(1.5)},
		{in: math.Copysign(0, -1), want: NewFloat(math.Copysign(0, -1))},
		{in: "abc", want: NewString("abc")},
		{in: true, want: NewBool(true)},
		{in: when, want: NewTime(when)},
		{in: NewString("v"), want: NewString("v")},
		{in: uint32(1), err: "unsupported parameter type uint32"},
		{in: struct{}{}, err: "unsupported parameter type struct {}"},
	} {
		got, err := FromGo([]any{int64(1), tc.in})
		if tc.err != "" {
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("FromGo(%T %v) error = %v, want %q", tc.in, tc.in, err, tc.err)
			}
			continue
		}
		if err != nil || len(got) != 2 || got[1] != tc.want || got[0] != NewInt(1) {
			t.Errorf("FromGo(%T %v) = %v, %v; want [1 %v]", tc.in, tc.in, got, err, tc.want)
		}
	}
	if got, err := FromGo(nil); got != nil || err != nil {
		t.Errorf("FromGo(nil) = %v, %v; want nil, nil", got, err)
	}
}

func TestRowScan(t *testing.T) {
	when := time.Date(2012, 8, 27, 0, 0, 0, 0, time.UTC)
	row := Row{NewInt(42), NewFloat(2.5), NewString("s"), NewBool(true), NewTime(when), NewInt(-3), NewString("v")}
	var (
		i64 int64
		f   float64
		s   string
		b   bool
		tm  time.Time
		i   int
		v   Value
	)
	if err := row.Scan(&i64, &f, &s, &b, &tm, &i, &v); err != nil {
		t.Fatal(err)
	}
	if i64 != 42 || f != 2.5 || s != "s" || !b || !tm.Equal(when) || i != -3 || v != NewString("v") {
		t.Errorf("scanned %v %v %v %v %v %v %v", i64, f, s, b, tm, i, v)
	}
	// Destinations bind to the leading columns; the rest are not scanned.
	var lead int64
	if err := row.Scan(&lead); err != nil || lead != 42 {
		t.Errorf("Scan(one dest) = %v, %v; want 42, nil", lead, err)
	}
	for _, tc := range []struct {
		row  Row
		dest []any
		err  string
	}{
		{row: nil, dest: []any{&i64}, err: "Rows.Scan without Next"},
		{row: Row{NewInt(1)}, dest: []any{&i64, &i64}, err: "Rows.Scan wants 2 values, row has 1"},
		{row: Row{NewInt(1)}, dest: []any{new(uint8)}, err: "unsupported Rows.Scan destination *uint8"},
		{row: Row{NewInt(1)}, dest: []any{i64}, err: "unsupported Rows.Scan destination int64"},
	} {
		if err := tc.row.Scan(tc.dest...); err == nil || err.Error() != tc.err {
			t.Errorf("%v.Scan(%T...) error = %v, want %q", tc.row, tc.dest[0], err, tc.err)
		}
	}
}
