package operators

import (
	"testing"

	"shareddb/internal/expr"
	"shareddb/internal/queryset"
	"shareddb/internal/storage"
	"shareddb/internal/testutil"
	"shareddb/internal/types"
)

// TestGroupColumnarZeroAllocSteadyState pins the mirror-fed group-by hot
// path (GroupSpec.Table set: the operator reads its input from the column
// mirror in Start): once the operator's free lists, scan buffers and batch
// pool are warm, a cycle over 4096 rows must allocate only for what it
// emits (one output row per live (group, query)) — per-row absorb,
// per-(group, query) aggregate state and the selection bitmaps all recycle.
func TestGroupColumnarZeroAllocSteadyState(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	db, err := storage.Open(storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tab, err := db.CreateTable("t", types.NewSchema(
		types.Column{Qualifier: "t", Name: "t_id", Kind: types.KindInt},
		types.Column{Qualifier: "t", Name: "t_g", Kind: types.KindInt},
		types.Column{Qualifier: "t", Name: "t_v", Kind: types.KindInt},
	))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.SetPrimaryKey("t_id"); err != nil {
		t.Fatal(err)
	}
	const nRows, nGroups = 4096, 16
	ops := make([]storage.WriteOp, nRows)
	for i := 0; i < nRows; i++ {
		ops[i] = storage.WriteOp{Table: "t", Kind: storage.WInsert, Row: types.Row{
			types.NewInt(int64(i)),
			types.NewInt(int64(i % nGroups)),
			types.NewInt(int64((i * 31) % 1024)),
		}}
	}
	results, ts := db.ApplyOps(ops)
	for _, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}

	op := &GroupOp{
		Streams: map[int]GroupStream{1: {
			GroupCols: []int{1},
			AggArgs:   []expr.Expr{nil, &expr.ColRef{Idx: 2}, &expr.ColRef{Idx: 2}},
		}},
		Aggs:      []AggDef{{Kind: AggCount}, {Kind: AggSum}, {Kind: AggMin}},
		OutStream: 2,
	}
	cmp := func(o expr.CmpOp, col int, v int64) expr.Expr {
		return &expr.Cmp{Op: o, L: &expr.ColRef{Idx: col}, R: &expr.Const{Val: types.NewInt(v)}}
	}
	tasks := []Task{
		{Query: 1, Spec: GroupSpec{Table: tab, Input: 1, Pred: cmp(expr.GE, 2, 0)}},
		{Query: 2, Spec: GroupSpec{Table: tab, Input: 1, Pred: cmp(expr.LT, 2, 512)}},
		{Query: 3, Spec: GroupSpec{Table: tab, Input: 1, Pred: cmp(expr.LE, 1, 7)}},
		{Query: 4, Spec: GroupSpec{Table: tab, Input: 1, Pred: cmp(expr.GE, 2, 256)}},
	}

	pool := NewBatchPool()
	node := NewNode(0, "group", op)
	node.SetPool(pool)
	sink := &SinkOp{}
	sinkNode := NewNode(1, "sink", sink)
	sinkNode.SetPool(pool)
	edge := Connect(node, sinkNode)
	qs := queryset.Of(1, 2, 3, 4)
	edge.SetQueries(1, qs)
	var emitted int
	sink.SetHandler(1, func(_ int, tp Tuple) { emitted += tp.QS.Len() })
	sinkCycle := &Cycle{Gen: 1}
	drain := func() {
		for sinkNode.Inbox().Len() > 0 {
			m, ok := sinkNode.Inbox().Pop()
			if !ok {
				return
			}
			if m.Batch != nil {
				sink.Consume(sinkCycle, m.Batch)
				pool.Put(m.Batch)
			}
		}
	}

	var em emitter
	cycle := func() {
		em.reset(node, 1)
		c := &Cycle{Gen: 1, TS: ts, Tasks: tasks, node: node, em: &em}
		op.Start(c)
		op.Finish(c)
		c.em.flushEOS()
		drain()
	}

	// Warm up: build the columnar mirror, grow the free lists, the scan
	// bitmaps and the batch pool to this workload's steady-state shape.
	for i := 0; i < 5; i++ {
		cycle()
	}
	emitted = 0
	cycle()
	perCycle := emitted
	if perCycle == 0 || perCycle > nGroups*len(tasks) {
		t.Fatalf("fixture emits %d rows/cycle, want 1..%d", perCycle, nGroups*len(tasks))
	}

	allocs := testing.AllocsPerRun(10, cycle)
	// Budget: ~2 allocations per emitted row (the output types.Row and its
	// routing) plus a fixed per-cycle overhead for the Cycle/state plumbing.
	// The failure mode this guards is per-INPUT-row or per-(group, query)
	// allocation, which would land at >= nRows/4.
	budget := float64(2*perCycle + 48)
	if allocs > budget {
		t.Errorf("columnar group cycle allocates %.1f/cycle (budget %.0f for %d emitted rows over %d input rows) — per-row or per-state allocation crept back in",
			allocs, budget, perCycle, nRows)
	}
}
