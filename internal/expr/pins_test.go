package expr

import (
	"slices"
	"testing"

	"shareddb/internal/types"
)

func TestPinsOf(t *testing.T) {
	p0, p1 := &Param{Idx: 0}, &Param{Idx: 1}
	one, two, null := lit(intv(1)), lit(intv(2)), lit(types.Null)
	and := func(kids ...Expr) Expr { return &And{Kids: kids} }
	for _, tc := range []struct {
		name    string
		pred    Expr
		want    Pins
		allPins bool // every conjunct pins a distinct column (index-edge)
	}{
		{"nil predicate", nil, Pins{}, true},
		{"col = const", cmp(EQ, col(0), one), Pins{{0, 0, one}}, true},
		{"reversed ? = col", cmp(EQ, p0, col(3)), Pins{{3, 0, p0}}, true},
		{"const against param", cmp(EQ, one, p0), Pins{}, false},
		{"col = col", cmp(EQ, col(0), col(1)), Pins{}, false},
		{"NULL constant", cmp(EQ, col(2), null), Pins{{2, 0, null}}, true},
		{"first conjunct per column wins",
			and(cmp(EQ, col(0), one), cmp(EQ, col(1), p0), cmp(EQ, two, col(0))),
			Pins{{0, 0, one}, {1, 1, p0}}, false},
		{"non-EQ conjuncts are ignored",
			and(cmp(LT, col(0), one), cmp(NE, col(1), two), &Or{Kids: []Expr{cmp(EQ, col(2), one)}},
				&Not{Kid: cmp(EQ, col(4), one)}, cmp(EQ, col(5), p1)),
			Pins{{5, 4, p1}}, false},
		{"every conjunct pins, nested AND",
			and(cmp(EQ, col(1), p0), and(cmp(EQ, p1, col(0)))),
			Pins{{1, 0, p0}, {0, 1, p1}}, true},
	} {
		got := PinsOf(tc.pred)
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: PinsOf = %v, want %v", tc.name, got, tc.want)
		}
		if all := len(got) == len(Conjuncts(tc.pred)); all != tc.allPins {
			t.Errorf("%s: every conjunct a pin = %v, want %v", tc.name, all, tc.allPins)
		}
	}
}

func TestPinsOperandsAndValues(t *testing.T) {
	p0, one, null := &Param{Idx: 0}, lit(intv(1)), lit(types.Null)
	pins := PinsOf(&And{Kids: []Expr{cmp(EQ, col(0), one), cmp(EQ, col(1), p0), cmp(EQ, null, col(2))}})
	if pin, ok := pins.Of(1); !ok || pin != (Pin{Col: 1, At: 1, Operand: p0}) {
		t.Errorf("Of(1) = %v, %v; want the second conjunct's pin", pin, ok)
	}
	if pin, ok := pins.Of(3); ok {
		t.Errorf("Of(3) = %v, true; want no pin", pin)
	}
	if ops := pins.Operands([]int{1, 0}); len(ops) != 2 || ops[0] != p0 || ops[1] != one {
		t.Errorf("Operands(1, 0) = %v, want [$0 1]", ops)
	}
	if ops := pins.Operands([]int{0, 3}); ops != nil {
		t.Errorf("Operands over an unpinned column = %v, want nil", ops)
	}
	if ops := pins.Operands(nil); ops == nil || len(ops) != 0 {
		t.Errorf("Operands(no columns) = %#v, want an empty key", ops)
	}
	if vals, ok := pins.Values([]int{2, 0}); !ok || len(vals) != 2 || !vals[0].IsNull() || vals[1] != intv(1) {
		t.Errorf("Values(2, 0) = %v, %v; want [NULL 1], true", vals, ok)
	}
	if vals, ok := pins.Values([]int{1}); ok {
		t.Errorf("Values over a parameter pin = %v, true; want false", vals)
	}
	if vals, ok := pins.Values([]int{3}); ok {
		t.Errorf("Values over an unpinned column = %v, true; want false", vals)
	}
}
