package shard

import (
	"reflect"
	"testing"

	"shareddb/internal/expr"
	"shareddb/internal/sql"
	"shareddb/internal/types"
)

func iv(v int64) types.Value   { return types.NewInt(v) }
func fv(v float64) types.Value { return types.NewFloat(v) }
func sv(v string) types.Value  { return types.NewString(v) }

func rowsEqual(a, b []types.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j].Compare(b[i][j]) != 0 ||
				(a[i][j].IsNull() != b[i][j].IsNull()) {
				return false
			}
		}
	}
	return true
}

// TestMergeOrdered exercises the k-way merge independent of the router:
// interleaving, cross-shard ties (earlier shard wins), DESC keys, LIMIT
// re-cut before stripping appended key columns, and DISTINCT after.
func TestMergeOrdered(t *testing.T) {
	mk := func(vals ...int64) []types.Row {
		out := make([]types.Row, len(vals))
		for i, v := range vals {
			out[i] = types.Row{sv("r"), iv(v)} // payload + appended sort key
		}
		return out
	}
	cases := []struct {
		name   string
		shards [][]types.Row
		spec   sql.MergeSpec
		want   [][2]interface{} // (payload, key) pairs expected pre-strip order
		n      int              // expected row count after merge
		strip  bool
	}{
		{
			name:   "interleave two shards ascending",
			shards: [][]types.Row{mk(1, 4, 9), mk(2, 3, 10)},
			spec:   sql.MergeSpec{Kind: sql.MergeOrdered, Limit: -1, SortCols: []int{1}, SortDesc: []bool{false}},
			n:      6,
		},
		{
			name:   "descending",
			shards: [][]types.Row{mk(9, 4, 1), mk(10, 3, 2)},
			spec:   sql.MergeSpec{Kind: sql.MergeOrdered, Limit: -1, SortCols: []int{1}, SortDesc: []bool{true}},
			n:      6,
		},
		{
			name:   "limit recut",
			shards: [][]types.Row{mk(1, 4), mk(2, 3)},
			spec:   sql.MergeSpec{Kind: sql.MergeOrdered, Limit: 3, SortCols: []int{1}, SortDesc: []bool{false}},
			n:      3,
		},
		{
			name:   "empty shard",
			shards: [][]types.Row{mk(), mk(5, 6), mk(1)},
			spec:   sql.MergeSpec{Kind: sql.MergeOrdered, Limit: -1, SortCols: []int{1}, SortDesc: []bool{false}},
			n:      3,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := MergeResults(tc.shards, &tc.spec, nil)
			if len(got) != tc.n {
				t.Fatalf("got %d rows, want %d", len(got), tc.n)
			}
			for i := 1; i < len(got); i++ {
				d := got[i-1][1].Compare(got[i][1])
				if tc.spec.SortDesc[0] {
					d = -d
				}
				if d > 0 {
					t.Fatalf("row %d out of order: %v after %v", i, got[i], got[i-1])
				}
			}
		})
	}
}

// TestMergeOrderedTies pins the deterministic tie-break: equal keys keep
// shard order.
func TestMergeOrderedTies(t *testing.T) {
	shards := [][]types.Row{
		{{sv("s0a"), iv(5)}, {sv("s0b"), iv(7)}},
		{{sv("s1a"), iv(5)}, {sv("s1b"), iv(7)}},
	}
	spec := &sql.MergeSpec{Kind: sql.MergeOrdered, Limit: -1, SortCols: []int{1}, SortDesc: []bool{false}}
	got := MergeResults(shards, spec, nil)
	want := []string{"s0a", "s1a", "s0b", "s1b"}
	for i, w := range want {
		if got[i][0].AsString() != w {
			t.Fatalf("tie order: got %v at %d, want %s", got[i][0], i, w)
		}
	}
}

// TestMergeOrderedStripDistinct: the LIMIT cut happens on the extended
// rows, then appended key columns strip, then DISTINCT dedups — matching
// the single-engine Sort→Limit→Project→Distinct pipeline.
func TestMergeOrderedStripDistinct(t *testing.T) {
	shards := [][]types.Row{
		{{sv("a"), iv(1)}, {sv("a"), iv(2)}},
		{{sv("b"), iv(3)}},
	}
	spec := &sql.MergeSpec{Kind: sql.MergeOrdered, Limit: 2, Distinct: true,
		SortCols: []int{1}, SortDesc: []bool{false}, Strip: 1}
	got := MergeResults(shards, spec, nil)
	// cut keeps (a,1),(a,2); strip → (a),(a); distinct → (a). The b row
	// must NOT slide into the cut.
	if len(got) != 1 || got[0][0].AsString() != "a" || len(got[0]) != 1 {
		t.Fatalf("got %v, want single stripped row [a]", got)
	}
}

func TestMergeConcat(t *testing.T) {
	shards := [][]types.Row{
		{{iv(1)}, {iv(2)}},
		{{iv(2)}, {iv(3)}},
	}
	t.Run("plain", func(t *testing.T) {
		spec := &sql.MergeSpec{Kind: sql.MergeConcat, Limit: -1}
		got := MergeResults(shards, spec, nil)
		if len(got) != 4 || got[0][0].AsInt() != 1 || got[2][0].AsInt() != 2 {
			t.Fatalf("concat order wrong: %v", got)
		}
	})
	t.Run("distinct then limit", func(t *testing.T) {
		spec := &sql.MergeSpec{Kind: sql.MergeConcat, Limit: 2, Distinct: true}
		got := MergeResults(shards, spec, nil)
		if len(got) != 2 || got[0][0].AsInt() != 1 || got[1][0].AsInt() != 2 {
			t.Fatalf("got %v, want [1 2]", got)
		}
	})
}

// grouped merge helpers: partial layout [group, SUM(x), COUNT(x)].
func avgSpec() *sql.MergeSpec {
	return &sql.MergeSpec{
		Kind:      sql.MergeGrouped,
		Limit:     -1,
		GroupCols: 1,
		Aggs: []sql.AggMerge{{
			Func: sql.AggAvg, ArgPos: -1, SumPos: 1, CountPos: 2, MinPos: -1, MaxPos: -1,
		}},
	}
}

// TestMergeGroupedAvg: AVG recombines as sum-of-sums over sum-of-counts,
// with NULL partials (empty partitions) contributing nothing and an
// all-empty group yielding NULL.
func TestMergeGroupedAvg(t *testing.T) {
	shards := [][]types.Row{
		{ // shard 0
			{sv("g1"), fv(10), iv(2)},     // sum=10 over 2 rows
			{sv("g2"), types.Null, iv(0)}, // empty partition for g2
			{sv("g3"), types.Null, iv(0)}, // g3 empty here…
		},
		{ // shard 1
			{sv("g1"), fv(5), iv(1)},
			{sv("g2"), types.Null, iv(0)}, // …and empty everywhere
			{sv("g3"), iv(7), iv(7)},      // integer partial sum
		},
	}
	got := MergeResults(shards, avgSpec(), nil)
	if len(got) != 3 {
		t.Fatalf("got %d groups, want 3", len(got))
	}
	byKey := map[string]types.Value{}
	for _, r := range got {
		byKey[r[0].AsString()] = r[1]
	}
	if v := byKey["g1"]; v.AsFloat() != 5.0 {
		t.Errorf("AVG g1 = %v, want 5 (15/3)", v)
	}
	if v := byKey["g2"]; !v.IsNull() {
		t.Errorf("AVG g2 = %v, want NULL (all partitions empty)", v)
	}
	if v := byKey["g3"]; v.AsFloat() != 1.0 {
		t.Errorf("AVG g3 = %v, want 1 (7/7)", v)
	}
}

// TestMergeGroupedDistinct: DISTINCT aggregates recombine from the merged
// value sets — the same value shipped by several shards counts once, and
// NULL values never count.
func TestMergeGroupedDistinct(t *testing.T) {
	// partial layout: [group, arg] — each shard ships distinct (g, x) pairs
	spec := &sql.MergeSpec{
		Kind:      sql.MergeGrouped,
		Limit:     -1,
		GroupCols: 1,
		Aggs: []sql.AggMerge{
			{Func: sql.AggCount, Distinct: true, ArgPos: 1, SumPos: -1, CountPos: -1, MinPos: -1, MaxPos: -1},
			{Func: sql.AggSum, Distinct: true, ArgPos: 1, SumPos: -1, CountPos: -1, MinPos: -1, MaxPos: -1},
		},
	}
	shards := [][]types.Row{
		{{sv("g"), iv(1)}, {sv("g"), iv(2)}, {sv("g"), types.Null}},
		{{sv("g"), iv(2)}, {sv("g"), iv(3)}},
		{{sv("g"), iv(1)}},
	}
	got := MergeResults(shards, spec, nil)
	if len(got) != 1 {
		t.Fatalf("got %d groups, want 1", len(got))
	}
	if c := got[0][1].AsInt(); c != 3 {
		t.Errorf("COUNT(DISTINCT) = %d, want 3 (1,2,3 deduped across shards)", c)
	}
	if s := got[0][2].AsInt(); s != 6 {
		t.Errorf("SUM(DISTINCT) = %d, want 6", s)
	}
	if got[0][2].Kind() != types.KindInt {
		t.Errorf("SUM(DISTINCT) over INT lost its kind: %v", got[0][2].Kind())
	}
}

// TestMergeGroupedScalar: scalar statements emit exactly one row even when
// no shard contributes, with SQL empty-input defaults (COUNT 0, others
// NULL).
func TestMergeGroupedScalar(t *testing.T) {
	spec := &sql.MergeSpec{
		Kind:      sql.MergeGrouped,
		Limit:     -1,
		GroupCols: 0,
		Scalar:    true,
		Aggs: []sql.AggMerge{
			{Func: sql.AggCount, ArgPos: -1, SumPos: -1, CountPos: 0, MinPos: -1, MaxPos: -1},
			{Func: sql.AggSum, ArgPos: -1, SumPos: 1, CountPos: -1, MinPos: -1, MaxPos: -1},
			{Func: sql.AggMin, ArgPos: -1, SumPos: -1, CountPos: -1, MinPos: 2, MaxPos: -1},
		},
	}
	t.Run("empty everywhere", func(t *testing.T) {
		got := MergeResults([][]types.Row{{}, {}}, spec, nil)
		want := []types.Row{{iv(0), types.Null, types.Null}}
		if !rowsEqual(got, want) {
			t.Fatalf("got %v, want %v", got, want)
		}
	})
	t.Run("partials combine", func(t *testing.T) {
		shards := [][]types.Row{
			{{iv(2), iv(10), iv(4)}},
			{{iv(0), types.Null, types.Null}}, // empty partition's scalar row
			{{iv(3), iv(5), iv(1)}},
		}
		got := MergeResults(shards, spec, nil)
		want := []types.Row{{iv(5), iv(15), iv(1)}}
		if !rowsEqual(got, want) {
			t.Fatalf("got %v, want %v", got, want)
		}
	})
}

// TestMergeGroupedMinMax: MIN/MAX recombine as min/max of per-shard
// extrema, NULL partials skipped.
func TestMergeGroupedMinMax(t *testing.T) {
	spec := &sql.MergeSpec{
		Kind:      sql.MergeGrouped,
		Limit:     -1,
		GroupCols: 1,
		Aggs: []sql.AggMerge{
			{Func: sql.AggMin, ArgPos: -1, SumPos: -1, CountPos: -1, MinPos: 1, MaxPos: -1},
			{Func: sql.AggMax, ArgPos: -1, SumPos: -1, CountPos: -1, MinPos: -1, MaxPos: 2},
		},
	}
	shards := [][]types.Row{
		{{sv("g"), fv(3), fv(9)}},
		{{sv("g"), types.Null, types.Null}},
		{{sv("g"), fv(1), fv(4)}},
	}
	got := MergeResults(shards, spec, nil)
	if got[0][1].AsFloat() != 1 || got[0][2].AsFloat() != 9 {
		t.Fatalf("min/max = %v/%v, want 1/9", got[0][1], got[0][2])
	}
}

// TestMergeGroupedHavingSortLimit: HAVING filters recombined rows (never
// per-shard partials), then ORDER BY + LIMIT apply before projection.
func TestMergeGroupedHavingSortLimit(t *testing.T) {
	// layout: [group, COUNT(*)]; final row = same
	spec := &sql.MergeSpec{
		Kind:      sql.MergeGrouped,
		Limit:     2,
		GroupCols: 1,
		Aggs: []sql.AggMerge{
			{Func: sql.AggCount, ArgPos: -1, SumPos: -1, CountPos: 1, MinPos: -1, MaxPos: -1},
		},
		Having: &expr.Cmp{Op: expr.GT, L: &expr.ColRef{Idx: 1}, R: &expr.Const{Val: iv(2)}},
		SortKeys: []sql.SortKey{
			{Expr: &expr.ColRef{Idx: 1}, Desc: true},
			{Expr: &expr.ColRef{Idx: 0}},
		},
		Project: []expr.Expr{&expr.ColRef{Idx: 0}},
	}
	shards := [][]types.Row{
		{{sv("a"), iv(2)}, {sv("b"), iv(1)}, {sv("c"), iv(4)}},
		{{sv("a"), iv(2)}, {sv("b"), iv(1)}, {sv("d"), iv(3)}},
	}
	// combined: a=4, b=2, c=4, d=3; having >2 keeps a,c,d; sort desc by
	// count then asc by name → a,c,d; limit 2 → a,c; project name only.
	got := MergeResults(shards, spec, nil)
	if len(got) != 2 || got[0][0].AsString() != "a" || got[1][0].AsString() != "c" {
		t.Fatalf("got %v, want [[a] [c]]", got)
	}
	if len(got[0]) != 1 {
		t.Fatalf("projection not applied: %v", got[0])
	}
}

// copyShardRows deep-copies per-shard rows: fresh outer, shard and row
// slices.
func copyShardRows(in [][]types.Row) [][]types.Row {
	out := make([][]types.Row, len(in))
	for s, rows := range in {
		out[s] = make([]types.Row, len(rows))
		for i, r := range rows {
			out[s][i] = append(types.Row(nil), r...)
		}
	}
	return out
}

// TestMergeLeavesInputUntouched: identical scatter reads fold on every
// shard, so their gathers merge the very same per-shard rows, possibly at
// the same time. Every merge kind must therefore treat shardRows as
// read-only: merging twice gives the same output, and the input still
// equals a copy taken before the first merge.
func TestMergeLeavesInputUntouched(t *testing.T) {
	cases := []struct {
		name   string
		shards [][]types.Row
		spec   *sql.MergeSpec
	}{
		{
			name: "concat distinct limit",
			shards: [][]types.Row{
				{{iv(1)}, {iv(2)}, {iv(2)}},
				{{iv(2)}, {iv(3)}},
			},
			spec: &sql.MergeSpec{Kind: sql.MergeConcat, Limit: 2, Distinct: true},
		},
		{
			name: "ordered strip distinct",
			shards: [][]types.Row{
				{{sv("a"), iv(1)}, {sv("a"), iv(2)}, {sv("c"), iv(6)}},
				{{sv("b"), iv(3)}, {sv("a"), iv(4)}},
			},
			spec: &sql.MergeSpec{Kind: sql.MergeOrdered, Limit: -1, Distinct: true,
				SortCols: []int{1}, SortDesc: []bool{false}, Strip: 1},
		},
		{
			name: "grouped having order limit project",
			shards: [][]types.Row{
				{{sv("a"), iv(2)}, {sv("b"), iv(1)}, {sv("c"), iv(4)}},
				{{sv("a"), iv(2)}, {sv("b"), iv(1)}, {sv("d"), iv(3)}},
			},
			spec: &sql.MergeSpec{
				Kind:      sql.MergeGrouped,
				Limit:     2,
				GroupCols: 1,
				Aggs: []sql.AggMerge{
					{Func: sql.AggCount, ArgPos: -1, SumPos: -1, CountPos: 1, MinPos: -1, MaxPos: -1},
				},
				Having: &expr.Cmp{Op: expr.GT, L: &expr.ColRef{Idx: 1}, R: &expr.Const{Val: iv(2)}},
				SortKeys: []sql.SortKey{
					{Expr: &expr.ColRef{Idx: 1}, Desc: true},
					{Expr: &expr.ColRef{Idx: 0}},
				},
				Project: []expr.Expr{&expr.ColRef{Idx: 0}},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := copyShardRows(tc.shards)
			first := MergeResults(tc.shards, tc.spec, nil)
			firstCopy := copyShardRows([][]types.Row{first})[0]
			second := MergeResults(tc.shards, tc.spec, nil)
			if !reflect.DeepEqual(tc.shards, before) {
				t.Fatalf("merge modified its input:\n got %v\nwant %v", tc.shards, before)
			}
			if !reflect.DeepEqual(first, firstCopy) {
				t.Fatalf("second merge modified the first output:\n got %v\nwant %v", first, firstCopy)
			}
			if !reflect.DeepEqual(first, second) {
				t.Fatalf("merges of the same input differ:\n%v\n%v", first, second)
			}
		})
	}
}
