package operators

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"shareddb/internal/expr"
	"shareddb/internal/queryset"
	"shareddb/internal/storage"
	"shareddb/internal/testutil"
	"shareddb/internal/types"
)

// A group-by whose hashed group columns are a hash join's inner key columns
// can aggregate inside the join (HashJoinOp.Group): each build bucket is one
// group, and a matched outer row folds into it without a joined tuple being
// built. FuzzGroupJoin holds the fused node to the chain it replaces — the
// same join emitting joined tuples into a GroupOp — and every query must get
// the same rows, in the same order, with byte-identical values.

// groupJoinAggs are the fused fixtures' aggregates over fg(id, k, v, w) —
// COUNT(*), COUNT(v), SUM(v), SUM(w), AVG(w), MIN(v), MAX(w), SUM(v * 2)
// (an argument that is no bare column) and COUNT(DISTINCT v) — and their
// arguments over fg's rows.
var groupJoinAggs = []AggDef{{Kind: AggCount}, {Kind: AggCount}, {Kind: AggSum}, {Kind: AggSum}, {Kind: AggAvg},
	{Kind: AggMin}, {Kind: AggMax}, {Kind: AggSum}, {Kind: AggCount, Distinct: true}}

func groupJoinArgs(v, w int) []expr.Expr {
	vc, wc := &expr.ColRef{Idx: v}, &expr.ColRef{Idx: w}
	return []expr.Expr{nil, vc, vc, wc, wc, vc, wc, &expr.Arith{Op: expr.Mul, L: vc, R: &expr.Const{Val: types.NewInt(2)}}, vc}
}

// groupJoinBuild decodes a byte per build tuple (key, carried payload): the
// key is one of 0..5, an integral FLOAT on every byte with b/11 ≡ 3 (mod 4)
// (it shares a bucket with the INT), NULL on every byte ≡ 10 (mod 11); the
// payload names the tuple, so duplicate keys carry different payloads. A
// tuple belongs to the queries q of ids with (b/6 + q) mod 3 ≠ 0, so
// duplicates may serve different queries.
func groupJoinBuild(bs []byte, ids []queryset.QueryID) []Tuple {
	out := make([]Tuple, len(bs))
	for i, b := range bs {
		key := types.NewInt(int64(b % 6))
		switch {
		case b%11 == 10:
			key = types.Null
		case b/11%4 == 3:
			key = types.NewFloat(float64(b % 6))
		}
		var qs []queryset.QueryID
		for _, q := range ids {
			if (int(b/6)+int(q))%3 != 0 {
				qs = append(qs, q)
			}
		}
		out[i] = Tuple{Row: types.Row{key, types.NewString(fmt.Sprintf("c%d", i))}, QS: queryset.Of(qs...)}
	}
	return out
}

// groupJoinCase is one fuzzed cycle: fg at a snapshot as the outer, joined
// on k to the build tuples, and the queries (predicate over fg, HAVING
// COUNT(*) > 1 over the output, mirror-fed or streamed). late delivers the
// streamed outer batches after the build instead of before it.
type groupJoinCase struct {
	tab     *storage.Table
	ts      uint64
	build   []Tuple
	queries []mirrorGroupQuery
	late    bool
}

// fusedOp is the group-join node: outer stream 2, group out-stream 4.
func (gc groupJoinCase) fusedOp() *HashJoinOp {
	hj := &HashJoinOp{InnerKeyCols: []int{0}, InnerStream: 1, Outers: map[int]JoinOuter{2: {KeyCols: []int{1}, OutStream: 4}},
		Group: &GroupOp{Streams: map[int]GroupStream{2: {GroupCols: []int{0}, CarryCols: []int{1}, AggArgs: groupJoinArgs(2, 3)}},
			Aggs: groupJoinAggs, Carry: []bool{false, true}, OutStream: 4}}
	hj.SetInnerEdge(&Edge{})
	return hj
}

// streamed is the shared scan of the streamed queries' predicates as a scan
// node would deliver it: batches of 7 tuples on stream 2.
func (gc groupJoinCase) streamed() []*Batch {
	var clients []storage.ScanClient
	for _, q := range gc.queries {
		if !q.mirror {
			clients = append(clients, storage.ScanClient{ID: q.id, Pred: q.pred})
		}
	}
	var out []*Batch
	gc.tab.SharedScan(gc.ts, clients, &storage.ColScanBuffers{}, func(_ storage.RowID, row types.Row, qs queryset.Set) {
		if len(out) == 0 || len(out[len(out)-1].Tuples) == 7 {
			out = append(out, &Batch{Stream: 2})
		}
		b := out[len(out)-1]
		b.Tuples = append(b.Tuples, Tuple{Row: row, QS: queryset.Of(qs.IDs()...)})
	})
	return out
}

func (gc groupJoinCase) ids() []queryset.QueryID {
	var ids []queryset.QueryID
	for _, q := range gc.queries {
		ids = append(ids, q.id)
	}
	return ids
}

// joinCycle runs one cycle of hash join hj — the outer read from the mirror
// for the mirror-fed queries (spec builds each task's spec), streamed for
// the rest — and hands every tuple it delivers to got, copied.
func (gc groupJoinCase) joinCycle(hj *HashJoinOp, spec func(q mirrorGroupQuery) any, got func(stream int, t Tuple)) {
	var tasks []Task
	for _, q := range gc.queries {
		tasks = append(tasks, Task{Query: q.id, Spec: spec(q)})
	}
	h := newAllocHarness(hj, queryset.Of(gc.ids()...))
	h.onTuple = func(stream int, tp Tuple) {
		got(stream, Tuple{Row: slices.Clone(tp.Row), QS: queryset.Of(tp.QS.IDs()...)})
	}
	outer := gc.streamed()
	h.cycle(tasks, gc.ts, func(c *Cycle) {
		if !gc.late {
			for _, b := range outer {
				hj.Consume(c, b)
			}
		}
		hj.Consume(c, &Batch{Stream: 1, Tuples: gc.build})
		hj.EdgeEOS(c, hj.innerEdge)
		if gc.late {
			for _, b := range outer {
				hj.Consume(c, b)
			}
		}
	})
}

// exactRow renders a row value by value, a FLOAT by its bits.
func exactRow(row types.Row) string {
	var b strings.Builder
	for _, v := range row {
		fmt.Fprintf(&b, "%d:%d:%q ", v.K, v.Int, v.Str)
	}
	return b.String()
}

// chain is the oracle: the plain hash join emits joined tuples (inner key,
// inner payload, v, w) on stream 3, and a GroupOp over them groups on the
// key, carries the payload, and emits on stream 4. It returns each query's
// rows and how many joined tuples the join emitted.
func (gc groupJoinCase) chain() (map[queryset.QueryID][]string, int) {
	hj := &HashJoinOp{InnerKeyCols: []int{0}, InnerStream: 1, Outers: map[int]JoinOuter{2: {KeyCols: []int{1}, OutStream: 3,
		OutCols: []OutCol{{Inner: true, Col: 0}, {Inner: true, Col: 1}, {Col: 2}, {Col: 3}}}}}
	hj.SetInnerEdge(&Edge{})
	var joined []Tuple
	gc.joinCycle(hj, func(q mirrorGroupQuery) any {
		if q.mirror {
			return JoinSpec{Table: gc.tab, Outer: 2, Pred: q.pred}
		}
		return JoinSpec{}
	}, func(_ int, t Tuple) { joined = append(joined, t) })

	g := &GroupOp{Streams: map[int]GroupStream{3: {GroupCols: []int{0}, CarryCols: []int{1}, AggArgs: groupJoinArgs(2, 3)}},
		Aggs: groupJoinAggs, Carry: []bool{false, true}, OutStream: 4}
	var tasks []Task
	for _, q := range gc.queries {
		tasks = append(tasks, Task{Query: q.id, Spec: GroupSpec{Having: q.having}})
	}
	h := newAllocHarness(g, queryset.Of(gc.ids()...))
	rows := map[queryset.QueryID][]string{}
	h.onTuple = func(_ int, tp Tuple) {
		for _, q := range tp.QS.IDs() {
			rows[q] = append(rows[q], exactRow(tp.Row))
		}
	}
	h.cycle(tasks, gc.ts, func(c *Cycle) {
		for i := 0; i < len(joined); i += 5 {
			g.Consume(c, &Batch{Stream: 3, Tuples: joined[i:min(i+5, len(joined))]})
		}
	})
	return rows, len(joined)
}

// fused runs one cycle of the group-join node hj and returns each query's
// rows and how many tuples it delivered on any stream but the group's.
func (gc groupJoinCase) fused(hj *HashJoinOp) (map[queryset.QueryID][]string, int) {
	rows := map[queryset.QueryID][]string{}
	other := 0
	gc.joinCycle(hj, func(q mirrorGroupQuery) any {
		spec := GroupSpec{Having: q.having}
		if q.mirror {
			spec.Table, spec.Input, spec.Pred = gc.tab, 2, q.pred
		}
		return spec
	}, func(stream int, t Tuple) {
		if stream != hj.Group.OutStream {
			other++
		}
		for _, q := range t.QS.IDs() {
			rows[q] = append(rows[q], exactRow(t.Row))
		}
	})
	return rows, other
}

// check holds two cycles of one fused node (a reused cycle must not
// remember the last one) to the chain, and returns how many joined tuples
// the chain's join emitted.
func (gc groupJoinCase) check(t *testing.T) int {
	t.Helper()
	want, joined := gc.chain()
	hj := gc.fusedOp()
	for round := 0; round < 2; round++ {
		got, other := gc.fused(hj)
		if other != 0 {
			t.Fatalf("round %d: the group-join delivered %d tuples outside its group stream", round, other)
		}
		for _, q := range gc.queries {
			if !slices.Equal(got[q.id], want[q.id]) {
				t.Fatalf("round %d query %d (mirror %v, pred %v, having %v):\ngroup-join: %v\nchain:      %v",
					round, q.id, q.mirror, q.pred, q.having, got[q.id], want[q.id])
			}
		}
	}
	return joined
}

// groupJoinFixture loads fg from rows and the first half of tape (plus, with
// demote bit 1, a FLOAT and a string in the INT column v, and with bit 2 an
// integral FLOAT join key), pins the mirror at the snapshot, and lands the
// rest of tape after it.
func groupJoinFixture(t *testing.T, rows, tape []byte, demote uint8) (*storage.Table, uint64) {
	db, tab := mirrorGroupTable(t, rows)
	nextID := int64(len(rows))
	half := len(tape) / 2
	if before := mirrorGroupWrites(tape[:half], &nextID); len(before) > 0 {
		applyOK(t, db, before...)
	}
	if demote&1 != 0 {
		applyOK(t, db,
			storage.WriteOp{Table: "fg", Kind: storage.WInsert, Row: types.Row{types.NewInt(nextID), types.NewInt(1), types.NewFloat(2.5), types.NewFloat(0.5)}},
			storage.WriteOp{Table: "fg", Kind: storage.WInsert, Row: types.Row{types.NewInt(nextID + 1), types.NewInt(3), types.NewString("x"), types.NewFloat(-1)}})
		nextID += 2
	}
	if demote&2 != 0 {
		applyOK(t, db, storage.WriteOp{Table: "fg", Kind: storage.WInsert, Row: types.Row{types.NewInt(nextID), types.NewFloat(2), types.NewInt(4), types.NewFloat(1.25)}})
		nextID++
	}
	ts := db.SnapshotTS()
	tab.SharedScan(ts, []storage.ScanClient{{ID: 1}}, &storage.ColScanBuffers{}, func(storage.RowID, types.Row, queryset.Set) {})
	if after := mirrorGroupWrites(tape[half:], &nextID); len(after) > 0 {
		applyOK(t, db, after...)
	}
	return tab, ts
}

// FuzzGroupJoin drives fuzzed outer tables, build sides and query mixes
// through a group-join node and holds it to the hash join → group-by chain.
// rows: a byte per outer row (NULL keys and measures included). build: a
// byte per build tuple (duplicate, NULL and FLOAT keys; none is an empty
// build). tape: a byte per outer write; the first half lands before the
// snapshot. queries: a byte per query, 1 to 4 (predicate, HAVING, mirror or
// streamed). demote: bit 1 demotes v, bit 2 the join key column k. late
// streams the outer after the build.
func FuzzGroupJoin(f *testing.F) {
	rows := make([]byte, 200)
	for i := range rows {
		rows[i] = byte(i * 29)
	}
	f.Add(rows, []byte{0, 1, 2, 3, 4, 5}, []byte{0, 4, 8, 3}, []byte{16, 17, 2, 28}, uint8(0), false)
	f.Add(rows, []byte{0, 6, 12, 1, 7, 37, 43, 10, 21}, []byte{1, 2, 5, 14}, []byte{16, 19, 3}, uint8(1), false)
	f.Add(rows, []byte{}, []byte{3, 6}, []byte{16, 8}, uint8(0), false)
	f.Add(rows, []byte{2, 3, 38, 39, 3}, []byte{}, []byte{24, 25, 26, 27}, uint8(3), true)
	f.Add([]byte{}, []byte{1, 2}, []byte{0, 3, 6, 9}, []byte{16, 0}, uint8(2), false)
	f.Add(rows[:40], []byte{4, 4, 4, 10, 21}, []byte{2, 5, 8, 11, 0, 1}, []byte{17}, uint8(0), true)
	f.Add(rows, []byte{12, 0, 13, 1, 18, 7}, []byte{1, 4}, []byte{16, 17}, uint8(0), false)
	f.Fuzz(func(t *testing.T, rows, build, tape, queries []byte, demote uint8, late bool) {
		if len(queries) == 0 || len(queries) > 4 || len(rows) > 512 || len(build) > 64 || len(tape) > 64 {
			return
		}
		tab, ts := groupJoinFixture(t, rows, tape, demote)
		qs := mirrorGroupQueries(queries, 2)
		gc := groupJoinCase{tab: tab, ts: ts, queries: qs, late: late}
		gc.build = groupJoinBuild(build, gc.ids())
		gc.check(t)
	})
}

// TestGroupJoinBuildsNoJoinedTuple pins the saving: over a fixture where the
// chain's join emits joined tuples, the group-join delivers only its groups.
func TestGroupJoinBuildsNoJoinedTuple(t *testing.T) {
	rows := make([]byte, 300)
	for i := range rows {
		rows[i] = byte(i * 37)
	}
	tab, ts := groupJoinFixture(t, rows, nil, 0)
	gc := groupJoinCase{tab: tab, ts: ts, queries: mirrorGroupQueries([]byte{16, 17, 18, 1}, 2)}
	gc.build = groupJoinBuild([]byte{0, 1, 2, 3, 4, 5}, gc.ids())
	if joined := gc.check(t); joined == 0 {
		t.Fatal("the chain's join emitted no joined tuple: the fixture shows nothing")
	}
}

// TestGroupJoinZeroAllocSteadyState pins the group-join hot path: once the
// node's free lists, scan buffers, batch pool and row arena are warm, a
// cycle that builds 16 keys, reads 4096 outer rows from the column mirror
// for four queries and emits its groups allocates nothing. The queries
// carry scan predicates of the equality, range and rest classes, and two
// filter by HAVING too.
func TestGroupJoinZeroAllocSteadyState(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	bs := make([]byte, 4096)
	for i := range bs {
		bs[i] = byte(i * 31)
	}
	tab, ts := groupJoinFixture(t, bs, nil, 0)
	var build []Tuple
	for k := int64(0); k < 16; k++ {
		build = append(build, Tuple{Row: types.Row{types.NewInt(k % 5), types.NewString("c")}, QS: queryset.Of(1, 2, 3, 4)})
	}
	hj := &HashJoinOp{InnerKeyCols: []int{0}, InnerStream: 1, Outers: map[int]JoinOuter{2: {KeyCols: []int{1}, OutStream: 4}},
		Group: &GroupOp{Streams: map[int]GroupStream{2: {GroupCols: []int{0}, CarryCols: []int{1}, AggArgs: groupJoinArgs(2, 3)[:8]}},
			Aggs: groupJoinAggs[:8], Carry: []bool{false, true}, OutStream: 4}}
	hj.SetInnerEdge(&Edge{})
	var tasks []Task
	for _, q := range mirrorGroupQueries([]byte{16, 25, 21, 31}, 2) {
		tasks = append(tasks, Task{Query: q.id, Spec: GroupSpec{Having: q.having, Table: tab, Input: 2, Pred: q.pred}})
	}
	h := newAllocHarness(hj, queryset.Of(1, 2, 3, 4))
	inner := &Batch{Stream: 1, Tuples: build}
	drive := func(c *Cycle) {
		hj.Consume(c, inner)
		hj.EdgeEOS(c, hj.innerEdge)
	}
	if allocs := h.steadyStateAllocs(tasks, ts, drive); allocs != 0 {
		t.Errorf("steady-state group-join cycle allocates %.1f times, want 0", allocs)
	}
	if h.rows == 0 {
		t.Fatal("fixture emits no group")
	}
}
