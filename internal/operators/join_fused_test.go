package operators

import (
	"fmt"
	"slices"
	"testing"

	"shareddb/internal/expr"
	"shareddb/internal/queryset"
	"shareddb/internal/storage"
	"shareddb/internal/testutil"
	"shareddb/internal/types"
)

// A hash join whose outer is a direct scan of a base table reads that outer
// from the table's column mirror itself (JoinSpec.Table). These tests hold
// the fused pass to the streamed one: the same scan's batches consumed as
// the outer stream are the oracle, and the two must emit the same rows, in
// the same order, to the same queries.

// fusedOuterTable creates ol(id INT, k1 INT, k2 VARCHAR, qty INT) with
// NULL keys sprinkled in: k1 is NULL on every 7th row, k2 on every 5th.
func fusedOuterTable(t *testing.T, n int) (*storage.Database, *storage.Table) {
	t.Helper()
	db, err := storage.Open(storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	tab, err := db.CreateTable("ol", types.NewSchema(
		types.Column{Qualifier: "ol", Name: "id", Kind: types.KindInt},
		types.Column{Qualifier: "ol", Name: "k1", Kind: types.KindInt},
		types.Column{Qualifier: "ol", Name: "k2", Kind: types.KindString},
		types.Column{Qualifier: "ol", Name: "qty", Kind: types.KindInt},
	))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.SetPrimaryKey("id"); err != nil {
		t.Fatal(err)
	}
	ops := make([]storage.WriteOp, n)
	for i := 0; i < n; i++ {
		k1, k2 := types.NewInt(int64(i%13)), types.NewString(fmt.Sprintf("s%d", i%3))
		if i%7 == 3 {
			k1 = types.Null
		}
		if i%5 == 1 {
			k2 = types.Null
		}
		ops[i] = storage.WriteOp{Table: "ol", Kind: storage.WInsert,
			Row: types.Row{types.NewInt(int64(i)), k1, k2, types.NewInt(int64(i % 4))}}
	}
	applyOK(t, db, ops...)
	return db, tab
}

func applyOK(t *testing.T, db *storage.Database, ops ...storage.WriteOp) {
	t.Helper()
	results, _ := db.ApplyOps(ops)
	for _, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
}

// fusedCase is one join shape: the build tuples and key columns, the outer
// key columns in ol, and each query's scan predicate over ol.
type fusedCase struct {
	inner     []Tuple
	innerKeys []int
	outerKeys []int
	preds     map[queryset.QueryID]expr.Expr
}

func (fc fusedCase) op() *HashJoinOp {
	hj := &HashJoinOp{InnerKeyCols: fc.innerKeys, InnerStream: 1,
		Outers: map[int]JoinOuter{2: {KeyCols: fc.outerKeys, OutStream: 3, OutCols: []OutCol{
			{Col: 0}, {Inner: true, Col: 1}, {Col: 3}, {Inner: true, Col: 0},
		}}}}
	hj.SetInnerEdge(&Edge{})
	return hj
}

func (fc fusedCase) qids() []queryset.QueryID {
	var ids []queryset.QueryID
	for q := range fc.preds {
		ids = append(ids, q)
	}
	slices.Sort(ids)
	return ids
}

// emissions runs one join cycle and renders every tuple it delivers, in
// delivery order.
func (fc fusedCase) emissions(hj *HashJoinOp, tasks []Task, ts uint64, drive func(c *Cycle)) []string {
	h := newAllocHarness(hj, queryset.Of(fc.qids()...))
	var out []string
	h.sink.SetHandler(1, func(stream int, tp Tuple) {
		out = append(out, fmt.Sprintf("%d %v %s", stream, tp.Row, tp.QS))
	})
	h.cycle(tasks, ts, drive)
	return out
}

// streamed is the oracle: the outer arrives as the shared scan's batches,
// as a scan node would emit them, before the build side completes.
func (fc fusedCase) streamed(t *testing.T, tab *storage.Table, ts uint64) []string {
	t.Helper()
	var clients []storage.ScanClient
	var tasks []Task
	for _, q := range fc.qids() {
		clients = append(clients, storage.ScanClient{ID: q, Pred: fc.preds[q]})
		tasks = append(tasks, Task{Query: q, Spec: JoinSpec{}})
	}
	var outer []*Batch
	tab.SharedScan(ts, clients, &storage.ColScanBuffers{}, func(_ storage.RowID, row types.Row, qs queryset.Set) {
		if len(outer) == 0 || len(outer[len(outer)-1].Tuples) == 7 {
			outer = append(outer, &Batch{Stream: 2})
		}
		b := outer[len(outer)-1]
		b.Tuples = append(b.Tuples, Tuple{Row: row, QS: queryset.Of(qs.IDs()...)})
	})
	hj := fc.op()
	return fc.emissions(hj, tasks, ts, func(c *Cycle) {
		for _, b := range outer {
			hj.Consume(c, b)
		}
		hj.Consume(c, &Batch{Stream: 1, Tuples: fc.inner})
		hj.EdgeEOS(c, hj.innerEdge)
	})
}

// fused reads the same outer from the column mirror inside the join hj.
func (fc fusedCase) fused(hj *HashJoinOp, tab *storage.Table, ts uint64) []string {
	var tasks []Task
	for _, q := range fc.qids() {
		tasks = append(tasks, Task{Query: q, Spec: JoinSpec{Table: tab, Outer: 2, Pred: fc.preds[q]}})
	}
	return fc.emissions(hj, tasks, ts, func(c *Cycle) {
		hj.Consume(c, &Batch{Stream: 1, Tuples: fc.inner})
		hj.EdgeEOS(c, hj.innerEdge)
	})
}

// matches counts the join results by nested loops over the visible outer
// rows with Value.Equal — no hash — so a key hash that splits equal keys
// fails here even though the streamed oracle shares it.
func (fc fusedCase) matches(tab *storage.Table, ts uint64) int {
	n := 0
	tab.ScanVisible(ts, func(_ storage.RowID, row types.Row) bool {
		for _, it := range fc.inner {
			if hasNullKey(row, fc.outerKeys) || hasNullKey(it.Row, fc.innerKeys) || !keyEquals(appendKey(nil, it.Row, fc.innerKeys), row, fc.outerKeys) {
				continue
			}
			for _, q := range it.QS.IDs() {
				if p, ok := fc.preds[q]; ok && expr.TruthyEval(p, row, nil) {
					n++
					break
				}
			}
		}
		return true
	})
	return n
}

func checkFusedMatchesStreamed(t *testing.T, fc fusedCase, tab *storage.Table, ts uint64) {
	t.Helper()
	got := fc.fused(fc.op(), tab, ts)
	want := fc.streamed(t, tab, ts)
	if len(want) == 0 {
		t.Fatal("fixture joins nothing")
	}
	if !slices.Equal(got, want) {
		t.Fatalf("fused outer emitted %d tuples, streamed %d\nfused:    %v\nstreamed: %v", len(got), len(want), got, want)
	}
	if n := fc.matches(tab, ts); len(got) != n {
		t.Fatalf("join emitted %d tuples, nested loops find %d matches", len(got), n)
	}
}

func TestFusedHashJoinMatchesStreamed(t *testing.T) {
	cmp := func(op expr.CmpOp, col int, v types.Value) expr.Expr {
		return &expr.Cmp{Op: op, L: &expr.ColRef{Idx: col}, R: &expr.Const{Val: v}}
	}
	preds := map[queryset.QueryID]expr.Expr{
		1: nil,
		2: cmp(expr.GT, 0, types.NewInt(40)),
		3: cmp(expr.EQ, 3, types.NewInt(2)),
		5: cmp(expr.LE, 0, types.NewInt(150)),
	}
	// Build rows (key, payload) with overlapping query sets, a duplicate
	// key (a two-entry chain) and a NULL key that must never build.
	intInner := func(keys ...types.Value) []Tuple {
		var out []Tuple
		for i, k := range keys {
			qs := queryset.Of(1, 2, 3, 5)
			if i%2 == 1 {
				qs = queryset.Of(2, 5)
			}
			out = append(out, Tuple{Row: types.Row{k, types.NewString(fmt.Sprintf("in%d", i))}, QS: qs})
		}
		return out
	}
	oneCol := fusedCase{
		inner:     intInner(types.NewInt(3), types.NewInt(5), types.Null, types.NewInt(3), types.NewInt(12), types.NewInt(0)),
		innerKeys: []int{0}, outerKeys: []int{1}, preds: preds,
	}
	twoCol := fusedCase{
		inner: []Tuple{
			{Row: types.Row{types.NewInt(3), types.NewString("s0"), types.NewString("a")}, QS: queryset.Of(1, 2, 3, 5)},
			{Row: types.Row{types.NewInt(4), types.NewString("s1"), types.NewString("b")}, QS: queryset.Of(1, 5)},
			{Row: types.Row{types.NewInt(4), types.Null, types.NewString("c")}, QS: queryset.Of(1, 2, 3, 5)},
			{Row: types.Row{types.NewInt(9), types.NewString("s0"), types.NewString("d")}, QS: queryset.Of(2, 3)},
		},
		innerKeys: []int{0, 1}, outerKeys: []int{1, 2}, preds: preds,
	}
	floatKeys := fusedCase{
		inner:     intInner(types.NewFloat(3), types.NewFloat(4.5), types.NewFloat(-0.0), types.NewFloat(11)),
		innerKeys: []int{0}, outerKeys: []int{1}, preds: preds,
	}

	t.Run("one-column key with NULLs", func(t *testing.T) {
		db, tab := fusedOuterTable(t, 300)
		checkFusedMatchesStreamed(t, oneCol, tab, db.SnapshotTS())
	})
	t.Run("two-column key with NULLs", func(t *testing.T) {
		db, tab := fusedOuterTable(t, 300)
		checkFusedMatchesStreamed(t, twoCol, tab, db.SnapshotTS())
	})
	t.Run("INT outer against FLOAT build", func(t *testing.T) {
		db, tab := fusedOuterTable(t, 300)
		checkFusedMatchesStreamed(t, floatKeys, tab, db.SnapshotTS())
	})
	t.Run("demoted key column", func(t *testing.T) {
		db, tab := fusedOuterTable(t, 300)
		// A FLOAT and a string in the INT key column demote its vector:
		// the key is read from the rows, and 5.0 must still match 5.
		applyOK(t, db,
			storage.WriteOp{Table: "ol", Kind: storage.WUpdate, Pred: cmp(expr.EQ, 0, types.NewInt(18)),
				Set: []storage.ColSet{{Col: 1, Val: &expr.Const{Val: types.NewFloat(5)}}}},
			storage.WriteOp{Table: "ol", Kind: storage.WUpdate, Pred: cmp(expr.EQ, 0, types.NewInt(19)),
				Set: []storage.ColSet{{Col: 1, Val: &expr.Const{Val: types.NewString("3")}}}})
		checkFusedMatchesStreamed(t, oneCol, tab, db.SnapshotTS())
		checkFusedMatchesStreamed(t, twoCol, tab, db.SnapshotTS())
	})
	t.Run("deleted rows", func(t *testing.T) {
		db, tab := fusedOuterTable(t, 300)
		checkFusedMatchesStreamed(t, oneCol, tab, db.SnapshotTS())
		applyOK(t, db, storage.WriteOp{Table: "ol", Kind: storage.WDelete, Pred: cmp(expr.EQ, 3, types.NewInt(1))},
			storage.WriteOp{Table: "ol", Kind: storage.WDelete, Pred: cmp(expr.GT, 0, types.NewInt(250))})
		checkFusedMatchesStreamed(t, oneCol, tab, db.SnapshotTS())
	})
	t.Run("pin older than the mirror", func(t *testing.T) {
		db, tab := fusedOuterTable(t, 300)
		old := db.SnapshotTS()
		applyOK(t, db, storage.WriteOp{Table: "ol", Kind: storage.WUpdate, Pred: cmp(expr.LT, 0, types.NewInt(100)),
			Set: []storage.ColSet{{Col: 1, Val: &expr.Const{Val: types.NewInt(12)}}}})
		// The mirror moves to the newest snapshot; the join then reads the
		// older one, which rebuilds it.
		tab.SharedScan(db.SnapshotTS(), []storage.ScanClient{{ID: 1}}, &storage.ColScanBuffers{}, func(storage.RowID, types.Row, queryset.Set) {})
		checkFusedMatchesStreamed(t, oneCol, tab, old)
		checkFusedMatchesStreamed(t, oneCol, tab, db.SnapshotTS())
	})
}

// TestFusedHashJoinZeroAllocSteadyState pins a warmed hash-join cycle that
// reads its outer from the column mirror — build, mirror pass, key read,
// probe, gather and emit — at zero allocations.
func TestFusedHashJoinZeroAllocSteadyState(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	db, inner, outer, outCols := joinFixture(t)
	hj := &HashJoinOp{InnerKeyCols: []int{0}, InnerStream: 1,
		Outers: map[int]JoinOuter{2: {KeyCols: []int{1}, OutStream: 3, OutCols: outCols}}}
	hj.SetInnerEdge(&Edge{})
	h := newAllocHarness(hj, queryset.Of(2))
	tasks := []Task{{Query: 2, Spec: JoinSpec{Table: db.Table("orders"), Outer: 2}}}
	allocs := h.steadyStateAllocs(tasks, db.SnapshotTS(), func(c *Cycle) {
		hj.Consume(c, inner)
		hj.EdgeEOS(c, hj.innerEdge)
	})
	checkJoinRows(t, h, outer, outCols)
	if allocs != 0 {
		t.Errorf("fused hash join cycle over %d matches allocates %.0f, want 0", len(outer.Tuples), allocs)
	}
}
