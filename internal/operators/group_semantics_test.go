package operators

import (
	"fmt"
	"testing"

	"shareddb/internal/expr"
	"shareddb/internal/queryset"
	"shareddb/internal/types"
)

// SQL aggregate edge-case semantics (satellite audit): aggregates over empty
// groups and over all-NULL inputs must produce SQL's answers — COUNT is 0,
// SUM/AVG/MIN/MAX are NULL, never a zero value. NULL inputs are skipped, not
// aggregated as zeros. Each case runs at a worker budget of 1 and of 4,
// which must agree.

func runScalarAgg(t *testing.T, def AggDef, inputs []types.Value, workers int) types.Value {
	t.Helper()
	op := &GroupOp{
		Streams:   map[int]GroupStream{1: {GroupCols: nil, AggArgs: []expr.Expr{&expr.ColRef{Idx: 0}}}},
		Aggs:      []AggDef{def},
		OutStream: 2,
	}
	tasks := []Task{{Query: 1, Spec: GroupSpec{Scalar: true}}}
	batch := &Batch{Stream: 1}
	for _, v := range inputs {
		batch.Tuples = append(batch.Tuples, Tuple{Row: types.Row{v}, QS: queryset.Single(1)})
	}
	res := driveOp(op, tasks, workers, func(c *Cycle) {
		if len(batch.Tuples) > 0 {
			c.node.Op.Consume(c, batch)
		}
	})
	rows := res[1]
	if len(rows) != 1 {
		t.Fatalf("scalar aggregate emitted %d rows, want exactly 1", len(rows))
	}
	if len(rows[0]) != 1 {
		t.Fatalf("scalar aggregate row = %v, want 1 column", rows[0])
	}
	return rows[0][0]
}

func TestAggregateEdgeCaseSemantics(t *testing.T) {
	i := func(v int64) types.Value { return types.NewInt(v) }
	f := func(v float64) types.Value { return types.NewFloat(v) }
	null := types.Null
	cases := []struct {
		name   string
		def    AggDef
		inputs []types.Value
		want   types.Value
	}{
		// empty input: one scalar row with SQL defaults
		{"COUNT/empty", AggDef{Kind: AggCount}, nil, i(0)},
		{"SUM/empty", AggDef{Kind: AggSum}, nil, null},
		{"AVG/empty", AggDef{Kind: AggAvg}, nil, null},
		{"MIN/empty", AggDef{Kind: AggMin}, nil, null},
		{"MAX/empty", AggDef{Kind: AggMax}, nil, null},

		// all-NULL input: same as empty for everything but COUNT(*)
		{"COUNT/all-null", AggDef{Kind: AggCount}, []types.Value{null, null, null}, i(0)},
		{"SUM/all-null", AggDef{Kind: AggSum}, []types.Value{null, null}, null},
		{"AVG/all-null", AggDef{Kind: AggAvg}, []types.Value{null, null}, null},
		{"MIN/all-null", AggDef{Kind: AggMin}, []types.Value{null, null}, null},
		{"MAX/all-null", AggDef{Kind: AggMax}, []types.Value{null}, null},

		// NULLs are skipped, not treated as zero
		{"COUNT/mixed", AggDef{Kind: AggCount}, []types.Value{i(5), null, i(7)}, i(2)},
		{"SUM/mixed", AggDef{Kind: AggSum}, []types.Value{i(5), null, i(7)}, i(12)},
		{"AVG/mixed", AggDef{Kind: AggAvg}, []types.Value{i(5), null, i(7)}, f(6)},
		{"MIN/mixed", AggDef{Kind: AggMin}, []types.Value{i(5), null, i(-7)}, i(-7)},
		{"MAX/mixed", AggDef{Kind: AggMax}, []types.Value{null, i(5), i(7), null}, i(7)},

		// MIN/MAX must not confuse SQL NULL with falsy values
		{"MIN/zero-is-not-null", AggDef{Kind: AggMin}, []types.Value{i(3), i(0), i(9)}, i(0)},
		{"MAX/negative-only", AggDef{Kind: AggMax}, []types.Value{i(-3), i(-9)}, i(-3)},
		{"SUM/zeros", AggDef{Kind: AggSum}, []types.Value{i(0), i(0)}, i(0)},

		// float accumulation
		{"SUM/float", AggDef{Kind: AggSum}, []types.Value{f(1.5), null, f(2.25)}, f(3.75)},
		{"AVG/float", AggDef{Kind: AggAvg}, []types.Value{f(1), f(2)}, f(1.5)},

		// DISTINCT: duplicates collapse before aggregation, NULLs still skip
		{"COUNT-DISTINCT", AggDef{Kind: AggCount, Distinct: true}, []types.Value{i(4), i(4), null, i(5)}, i(2)},
		{"SUM-DISTINCT", AggDef{Kind: AggSum, Distinct: true}, []types.Value{i(4), i(4), i(5)}, i(9)},
		{"AVG-DISTINCT", AggDef{Kind: AggAvg, Distinct: true}, []types.Value{i(2), i(2), i(4)}, f(3)},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				got := runScalarAgg(t, tc.def, tc.inputs, workers)
				if got.IsNull() != tc.want.IsNull() || (!got.IsNull() && got.Compare(tc.want) != 0) {
					t.Errorf("got %v, want %v", got, tc.want)
				}
			})
		}
	}
}

// A grouped (non-scalar) query over empty input emits no rows at all — SQL
// produces zero groups, not a NULL-filled one.
func TestGroupedAggregateEmptyInputEmitsNothing(t *testing.T) {
	for _, workers := range []int{1, 4} {
		op := &GroupOp{
			Streams:   map[int]GroupStream{1: {GroupCols: []int{0}, AggArgs: []expr.Expr{&expr.ColRef{Idx: 1}}}},
			Aggs:      []AggDef{{Kind: AggSum}},
			OutStream: 2,
		}
		res := driveOp(op, []Task{{Query: 1, Spec: GroupSpec{}}}, workers, func(*Cycle) {})
		if len(res[1]) != 0 {
			t.Errorf("workers=%d: empty grouped input emitted %v", workers, res[1])
		}
	}
}

// A query subscribed to none of a group's tuples must not receive that
// group, even though other queries materialized it.
func TestGroupPerQuerySubscriptionIsolation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		op := &GroupOp{
			Streams:   map[int]GroupStream{1: {GroupCols: []int{0}, AggArgs: []expr.Expr{&expr.ColRef{Idx: 1}}}},
			Aggs:      []AggDef{{Kind: AggSum}},
			OutStream: 2,
		}
		tasks := []Task{{Query: 1, Spec: GroupSpec{}}, {Query: 2, Spec: GroupSpec{}}}
		batch := &Batch{Stream: 1, Tuples: []Tuple{
			{Row: types.Row{types.NewInt(1), types.NewInt(10)}, QS: queryset.Of(1, 2)},
			{Row: types.Row{types.NewInt(2), types.NewInt(20)}, QS: queryset.Single(1)}, // group 2: only Q1
		}}
		res := driveOp(op, tasks, workers, func(c *Cycle) { c.node.Op.Consume(c, batch) })
		if len(res[1]) != 2 {
			t.Errorf("workers=%d: Q1 got %d groups, want 2", workers, len(res[1]))
		}
		if len(res[2]) != 1 {
			t.Errorf("workers=%d: Q2 got %d groups, want 1 (subscription isolation)", workers, len(res[2]))
		}
	}
}

// Scalar aggregates still emit their empty-input row when a HAVING
// predicate admits it, and suppress it when it does not.
func TestScalarAggregateEmptyInputHaving(t *testing.T) {
	mk := func() *GroupOp {
		return &GroupOp{
			Streams:   map[int]GroupStream{1: {GroupCols: nil, AggArgs: []expr.Expr{nil}}},
			Aggs:      []AggDef{{Kind: AggCount}},
			OutStream: 2,
		}
	}
	eq0 := &expr.Cmp{Op: expr.EQ, L: &expr.ColRef{Idx: 0}, R: &expr.Const{Val: types.NewInt(0)}}
	gt0 := &expr.Cmp{Op: expr.GT, L: &expr.ColRef{Idx: 0}, R: &expr.Const{Val: types.NewInt(0)}}
	for _, workers := range []int{1, 4} {
		res := driveOp(mk(), []Task{{Query: 1, Spec: GroupSpec{Scalar: true, Having: eq0}}}, workers, func(*Cycle) {})
		if len(res[1]) != 1 || res[1][0][0].AsInt() != 0 {
			t.Errorf("workers=%d: HAVING count=0 over empty input → %v, want one row [0]", workers, res[1])
		}
		res = driveOp(mk(), []Task{{Query: 1, Spec: GroupSpec{Scalar: true, Having: gt0}}}, workers, func(*Cycle) {})
		if len(res[1]) != 0 {
			t.Errorf("workers=%d: HAVING count>0 over empty input → %v, want no rows", workers, res[1])
		}
	}
}
