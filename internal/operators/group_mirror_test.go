package operators

import (
	"fmt"
	"slices"
	"testing"

	"shareddb/internal/expr"
	"shareddb/internal/queryset"
	"shareddb/internal/storage"
	"shareddb/internal/types"
)

// A group-by whose input is a direct scan of a base table reads that input
// from the table's column mirror itself (GroupSpec.Table). FuzzMirrorFedGroup
// holds the mirror pass to the streamed one: the same group-by consuming
// the shared scan's batches is the oracle, and every query must get the same
// rows, in the same order, from both — also when some queries of the cycle
// read the mirror and others stream in (a mixed cycle).

// mirrorGroupTable creates fg(id INT, k INT, v INT, w FLOAT) with one row
// per byte of rows: k is NULL on every byte ≡ 6 (mod 7), v on every byte ≡
// 4 (mod 9).
func mirrorGroupTable(t *testing.T, rows []byte) (*storage.Database, *storage.Table) {
	t.Helper()
	db, err := storage.Open(storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	tab, err := db.CreateTable("fg", types.NewSchema(
		types.Column{Qualifier: "fg", Name: "id", Kind: types.KindInt},
		types.Column{Qualifier: "fg", Name: "k", Kind: types.KindInt},
		types.Column{Qualifier: "fg", Name: "v", Kind: types.KindInt},
		types.Column{Qualifier: "fg", Name: "w", Kind: types.KindFloat},
	))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.SetPrimaryKey("id"); err != nil {
		t.Fatal(err)
	}
	ops := make([]storage.WriteOp, len(rows))
	for i, b := range rows {
		ops[i] = storage.WriteOp{Table: "fg", Kind: storage.WInsert, Row: mirrorGroupRow(int64(i), b)}
	}
	if len(ops) > 0 {
		applyOK(t, db, ops...)
	}
	return db, tab
}

func mirrorGroupRow(id int64, b byte) types.Row {
	k, v := types.NewInt(int64(b%5)), types.NewInt(int64(b/3%13))
	if b%7 == 6 {
		k = types.Null
	}
	if b%9 == 4 {
		v = types.Null
	}
	return types.Row{types.NewInt(id), k, v, types.NewFloat(float64(b) / 7)}
}

// mirrorGroupWrites turns a tape into writes: a byte per write inserting a
// fresh row, setting v (to an INT, or to NULL) on every row with that k,
// or deleting one id. nextID is the next unused primary key.
func mirrorGroupWrites(tape []byte, nextID *int64) []storage.WriteOp {
	eq := func(col int, v int64) expr.Expr {
		return &expr.Cmp{Op: expr.EQ, L: &expr.ColRef{Idx: col}, R: &expr.Const{Val: types.NewInt(v)}}
	}
	var ops []storage.WriteOp
	for _, b := range tape {
		switch b % 3 {
		case 0:
			ops = append(ops, storage.WriteOp{Table: "fg", Kind: storage.WInsert, Row: mirrorGroupRow(*nextID, b/3)})
			*nextID++
		case 1:
			val := types.NewInt(int64(b / 3 % 20))
			if b/3%8 == 7 {
				val = types.Null
			}
			ops = append(ops, storage.WriteOp{Table: "fg", Kind: storage.WUpdate, Pred: eq(1, int64(b/3%5)),
				Set: []storage.ColSet{{Col: 2, Val: &expr.Const{Val: val}}}})
		default:
			ops = append(ops, storage.WriteOp{Table: "fg", Kind: storage.WDelete, Pred: eq(0, int64(b/3)%(*nextID+1))})
		}
	}
	return ops
}

// mirrorGroupQuery is one query of a fuzzed cycle: its scan predicate over
// fg, its HAVING over the output row, and whether it reads the mirror.
type mirrorGroupQuery struct {
	id     queryset.QueryID
	pred   expr.Expr
	having expr.Expr
	mirror bool
}

// mirrorGroupQueries decodes a byte per query: bits 0-2 pick the scan
// predicate (one selects nothing), bit 3 a HAVING COUNT(*) > 1, bit 4 the
// mirror.
func mirrorGroupQueries(qbytes []byte, nGroupCols int) []mirrorGroupQuery {
	cmp := func(op expr.CmpOp, col int, v types.Value) expr.Expr {
		return &expr.Cmp{Op: op, L: &expr.ColRef{Idx: col}, R: &expr.Const{Val: v}}
	}
	preds := []expr.Expr{
		nil,
		cmp(expr.GT, 0, types.NewInt(20)),
		cmp(expr.LE, 2, types.NewInt(6)),
		cmp(expr.LT, 0, types.NewInt(0)), // empty input
		cmp(expr.GE, 3, types.NewFloat(12)),
		cmp(expr.NE, 1, types.NewInt(2)),
		&expr.Or{Kids: []expr.Expr{cmp(expr.EQ, 1, types.NewInt(0)), cmp(expr.GT, 2, types.NewInt(9))}},
		cmp(expr.EQ, 2, types.NewInt(3)),
	}
	qs := make([]mirrorGroupQuery, len(qbytes))
	for i, b := range qbytes {
		qs[i] = mirrorGroupQuery{id: queryset.QueryID(i + 1), pred: preds[b%8], mirror: b&16 != 0}
		if b&8 != 0 {
			qs[i].having = cmp(expr.GT, nGroupCols, types.NewInt(1))
		}
	}
	return qs
}

// mirrorGroupCase is one fuzzed cycle: the table at a snapshot, a group-by
// over fg grouped by k (or scalar), and its queries.
type mirrorGroupCase struct {
	tab     *storage.Table
	ts      uint64
	scalar  bool
	queries []mirrorGroupQuery
}

func (mc mirrorGroupCase) op() *GroupOp {
	var cols []int
	if !mc.scalar {
		cols = []int{1}
	}
	v, w := &expr.ColRef{Idx: 2}, &expr.ColRef{Idx: 3}
	return &GroupOp{
		Streams: map[int]GroupStream{1: {GroupCols: cols, AggArgs: []expr.Expr{nil, v, w, w, v, v}}},
		Aggs: []AggDef{{Kind: AggCount}, {Kind: AggSum}, {Kind: AggSum}, {Kind: AggAvg},
			{Kind: AggMax}, {Kind: AggCount, Distinct: true}},
		OutStream: 2,
	}
}

// batches is the shared scan of qs's predicates as a scan node would stream
// it: batches of 7 tuples on stream 1, in RowID order.
func (mc mirrorGroupCase) batches(qs []mirrorGroupQuery) []*Batch {
	var clients []storage.ScanClient
	for _, q := range qs {
		clients = append(clients, storage.ScanClient{ID: q.id, Pred: q.pred})
	}
	var out []*Batch
	mc.tab.SharedScan(mc.ts, clients, &storage.ColScanBuffers{}, func(_ storage.RowID, row types.Row, qs queryset.Set) {
		if len(out) == 0 || len(out[len(out)-1].Tuples) == 7 {
			out = append(out, &Batch{Stream: 1})
		}
		b := out[len(out)-1]
		b.Tuples = append(b.Tuples, Tuple{Row: row, QS: queryset.Of(qs.IDs()...)})
	})
	return out
}

// groupRun is one cycle's output per query: its rows rendered in emission
// order and the sum of its COUNT(*) column.
type groupRun struct {
	rows   map[queryset.QueryID][]string
	counts map[queryset.QueryID]int64
}

// run executes one group-by cycle. Queries for which mirror holds read fg
// from the column mirror; the rest get the streamed batches.
func (mc mirrorGroupCase) run(g *GroupOp, mirror func(mirrorGroupQuery) bool, streamed []*Batch) groupRun {
	var tasks []Task
	var ids []queryset.QueryID
	for _, q := range mc.queries {
		spec := GroupSpec{Having: q.having, Scalar: mc.scalar}
		if mirror(q) {
			spec.Table, spec.Input, spec.Pred = mc.tab, 1, q.pred
		}
		tasks = append(tasks, Task{Query: q.id, Spec: spec})
		ids = append(ids, q.id)
	}
	countCol := len(g.Streams[1].GroupCols)
	h := newAllocHarness(g, queryset.Of(ids...))
	out := groupRun{rows: map[queryset.QueryID][]string{}, counts: map[queryset.QueryID]int64{}}
	h.sink.SetHandler(1, func(_ int, tp Tuple) {
		for _, q := range tp.QS.IDs() {
			out.rows[q] = append(out.rows[q], fmt.Sprint(tp.Row))
			out.counts[q] += tp.Row[countCol].AsInt()
		}
	})
	h.cycle(tasks, mc.ts, func(c *Cycle) {
		for _, b := range streamed {
			g.Consume(c, b)
		}
	})
	return out
}

// check runs the cycle with the mirror-fed queries reading the mirror, twice
// on one operator (a reused cycle must not remember the last one), and
// holds each run to the oracle: the mirror-fed queries' scan streamed in
// first, as the mirror pass runs before any batch arrives, then the
// streamed queries' scan. A query's COUNT(*)s must also add up to its
// matching visible rows, counted by per-row evaluation.
func (mc mirrorGroupCase) check(t *testing.T) {
	t.Helper()
	var mirrored, streamed []mirrorGroupQuery
	for _, q := range mc.queries {
		if q.mirror {
			mirrored = append(mirrored, q)
		} else {
			streamed = append(streamed, q)
		}
	}
	none := func(mirrorGroupQuery) bool { return false }
	want := mc.run(mc.op(), none, append(mc.batches(mirrored), mc.batches(streamed)...))
	g := mc.op()
	for round := 0; round < 2; round++ {
		got := mc.run(g, func(q mirrorGroupQuery) bool { return q.mirror }, mc.batches(streamed))
		for _, q := range mc.queries {
			if !slices.Equal(got.rows[q.id], want.rows[q.id]) {
				t.Fatalf("round %d query %d (mirror %v, pred %v, having %v):\nmirror-fed: %v\nstreamed:   %v",
					round, q.id, q.mirror, q.pred, q.having, got.rows[q.id], want.rows[q.id])
			}
		}
	}
	for _, q := range mc.queries {
		if q.having != nil {
			continue
		}
		if mc.scalar && len(want.rows[q.id]) != 1 {
			t.Fatalf("scalar query %d emitted %d rows, want exactly 1", q.id, len(want.rows[q.id]))
		}
		var n int64
		mc.tab.ScanVisible(mc.ts, func(_ storage.RowID, row types.Row) bool {
			if q.pred == nil || expr.TruthyEval(q.pred, row, nil) {
				n++
			}
			return true
		})
		if want.counts[q.id] != n {
			t.Fatalf("query %d counts %d rows, per-row evaluation %d", q.id, want.counts[q.id], n)
		}
	}
}

// FuzzMirrorFedGroup drives fuzzed tables, write tapes and query mixes
// through a mirror-fed group-by and holds it against the streamed one.
// rows: a byte per initial row (NULL keys and measures included). tape: a
// byte per write; the first half lands before the snapshot, the rest after
// it in one batch. queries: a byte per query, at most 8 (predicate, HAVING,
// mirror or streamed). demote stores a FLOAT and a string in the INT column
// v before the snapshot; scalar drops the GROUP BY.
func FuzzMirrorFedGroup(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 13, 20, 27, 34, 41, 48, 55, 62, 69, 76, 83, 90}, []byte{0, 4, 8, 3, 7, 11}, []byte{16, 17, 2, 28, 5}, false, false)
	f.Add([]byte{6, 13, 4, 9, 11, 200, 31}, []byte{1, 2, 5, 14}, []byte{16, 19, 3}, true, false)
	f.Add([]byte{7, 8, 9, 10, 11, 12, 13, 14, 15}, []byte{3, 6}, []byte{19, 24, 0, 9}, false, true)
	f.Add([]byte{}, []byte{}, []byte{16, 3, 19}, false, true)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, []byte{2, 5, 8, 11, 0, 1, 4, 7}, []byte{16, 17, 18, 20, 21, 22, 23, 31}, true, true)
	f.Fuzz(func(t *testing.T, rows, tape, queries []byte, demote, scalar bool) {
		if len(queries) == 0 || len(queries) > 8 || len(rows) > 512 || len(tape) > 64 {
			return
		}
		db, tab := mirrorGroupTable(t, rows)
		nextID := int64(len(rows))
		half := len(tape) / 2
		if before := mirrorGroupWrites(tape[:half], &nextID); len(before) > 0 {
			applyOK(t, db, before...)
		}
		if demote {
			applyOK(t, db,
				storage.WriteOp{Table: "fg", Kind: storage.WInsert, Row: types.Row{types.NewInt(nextID), types.NewInt(1), types.NewFloat(2.5), types.NewFloat(0.5)}},
				storage.WriteOp{Table: "fg", Kind: storage.WInsert, Row: types.Row{types.NewInt(nextID + 1), types.NewInt(3), types.NewString("x"), types.NewFloat(-1)}})
			nextID += 2
		}
		ts := db.SnapshotTS()
		// Pin the mirror at the snapshot before the later writes land, so
		// the cycle reads a mirror that lags the table.
		tab.SharedScan(ts, []storage.ScanClient{{ID: 1}}, &storage.ColScanBuffers{}, func(storage.RowID, types.Row, queryset.Set) {})
		if after := mirrorGroupWrites(tape[half:], &nextID); len(after) > 0 {
			applyOK(t, db, after...)
		}
		nGroupCols := 1
		if scalar {
			nGroupCols = 0
		}
		mirrorGroupCase{tab: tab, ts: ts, scalar: scalar, queries: mirrorGroupQueries(queries, nGroupCols)}.check(t)
	})
}
