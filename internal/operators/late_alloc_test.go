package operators

import (
	"testing"

	"shareddb/internal/expr"
	"shareddb/internal/queryset"
	"shareddb/internal/storage"
	"shareddb/internal/testutil"
	"shareddb/internal/types"
)

// Allocation gates for the join → sort → group path: a warmed cycle of each
// blocking operator allocates nothing.

// groupFixture is a four-aggregate group-by over groupFixtureGroups groups:
// query 1 subscribes to every tuple, queries 2 and 3 split them by parity.
const groupFixtureGroups = 64

func groupFixture() (op *GroupOp, tasks []Task, mkBatches func(nTuples int) []*Batch) {
	op = &GroupOp{
		Streams: map[int]GroupStream{1: {
			GroupCols: []int{0},
			AggArgs:   []expr.Expr{nil, &expr.ColRef{Idx: 1}, &expr.ColRef{Idx: 2}, &expr.ColRef{Idx: 1}},
		}},
		Aggs:      []AggDef{{Kind: AggCount}, {Kind: AggSum}, {Kind: AggAvg}, {Kind: AggMax}},
		OutStream: 2,
	}
	tasks = []Task{{Query: 1, Spec: GroupSpec{}}, {Query: 2, Spec: GroupSpec{}}, {Query: 3, Spec: GroupSpec{}}}
	mkBatches = func(nTuples int) []*Batch {
		var out []*Batch
		for i := 0; i < nTuples; i++ {
			if i%batchSize == 0 {
				out = append(out, &Batch{Stream: 1})
			}
			b := out[len(out)-1]
			b.Tuples = append(b.Tuples, Tuple{
				Row: types.Row{types.NewInt(int64(i % groupFixtureGroups)), types.NewInt(int64(i)), types.NewFloat(float64(i) / 7)},
				QS:  queryset.Of(1, queryset.QueryID(2+i%2)),
			})
		}
		return out
	}
	return op, tasks, mkBatches
}

// allocHarness runs one operator's cycles the way a node does — emitter,
// batch pool, a generation arena released after every cycle — with a sink
// that reads every delivered row, and reports what a warmed cycle allocates.
type allocHarness struct {
	op       Operator
	node     *Node
	sinkNode *Node
	sink     *SinkOp
	pool     *BatchPool
	rowPool  *RowPool
	em       emitter
	c        Cycle
	rows     int       // tuples the last cycle delivered
	last     types.Row // a copy of the last delivered row
}

func newAllocHarness(op Operator, edgeQueries queryset.Set) *allocHarness {
	h := &allocHarness{op: op, sink: &SinkOp{}, pool: NewBatchPool(), rowPool: NewRowPool()}
	h.node = NewNode(0, "op", op)
	h.node.SetPool(h.pool)
	h.sinkNode = NewNode(1, "sink", h.sink)
	Connect(h.node, h.sinkNode).SetQueries(1, edgeQueries)
	h.sink.SetHandler(1, func(_ int, tp Tuple) {
		h.rows++
		h.last = append(h.last[:0], tp.Row...)
	})
	return h
}

// cycle runs Start, drive, Finish and drains the sink.
func (h *allocHarness) cycle(tasks []Task, ts uint64, drive func(c *Cycle)) {
	h.em.reset(h.node, 1)
	arena := h.rowPool.NewArena()
	h.c = Cycle{Gen: 1, TS: ts, Tasks: tasks, node: h.node, em: &h.em, rows: arena, retained: h.c.retained[:0]}
	c := &h.c
	h.rows = 0
	h.op.Start(c)
	drive(c)
	h.op.Finish(c)
	h.em.flushEOS()
	for _, b := range c.retained {
		b.retained = false // fixture batches are not pooled: un-retain by hand
	}
	for h.sinkNode.Inbox().Len() > 0 {
		if m, _ := h.sinkNode.Inbox().Pop(); m.Batch != nil {
			h.sink.Consume(c, m.Batch)
			h.pool.Put(m.Batch)
		}
	}
	arena.Release()
}

// steadyStateAllocs warms the harness and returns one cycle's allocations.
func (h *allocHarness) steadyStateAllocs(tasks []Task, ts uint64, drive func(c *Cycle)) float64 {
	for i := 0; i < 3; i++ {
		h.cycle(tasks, ts, drive)
	}
	return testing.AllocsPerRun(20, func() { h.cycle(tasks, ts, drive) })
}

// joinFixture is users(user_id, country) × 10 as the inner side and
// orders(o_id, o_user_id, o_status) × 30 as the outer; every order matches
// exactly one user. The carried columns are o_id and country.
func joinFixture(t *testing.T) (db *storage.Database, inner, outer *Batch, outCols []OutCol) {
	t.Helper()
	db = newTestDB(t)
	t.Cleanup(func() { db.Close() })
	ts := db.SnapshotTS()
	inner, outer = &Batch{Stream: 1}, &Batch{Stream: 2}
	db.Table("users").ScanVisible(ts, func(_ storage.RowID, row types.Row) bool {
		inner.Tuples = append(inner.Tuples, Tuple{Row: row, QS: queryset.Of(1, 2)})
		return true
	})
	db.Table("orders").ScanVisible(ts, func(_ storage.RowID, row types.Row) bool {
		outer.Tuples = append(outer.Tuples, Tuple{Row: row, QS: queryset.Of(2)})
		return true
	})
	return db, inner, outer, []OutCol{{Col: 0}, {Inner: true, Col: 1}}
}

// checkJoinRows verifies the harness fixture joined what it should.
func checkJoinRows(t *testing.T, h *allocHarness, outer *Batch, outCols []OutCol) {
	t.Helper()
	if h.rows != len(outer.Tuples) || len(h.last) != len(outCols) || h.last[1].Kind() != types.KindString {
		t.Fatalf("cycle delivered %d rows, last %v; want %d rows of (o_id, country)", h.rows, h.last, len(outer.Tuples))
	}
}

// TestJoinProbeZeroAllocBeyondOutputRows pins a whole hash-join cycle —
// build, probe, gather, emit — at zero allocations, output rows included:
// they are cut from the generation's arena, whose chunks recycle through the
// plan's row pool (no full-width concatenation, no heap object per result).
func TestJoinProbeZeroAllocBeyondOutputRows(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	db, inner, outer, outCols := joinFixture(t)
	hj := &HashJoinOp{InnerKeyCols: []int{0}, InnerStream: 1,
		Outers: map[int]JoinOuter{2: {KeyCols: []int{1}, OutStream: 3, OutCols: outCols}}}
	hj.SetInnerEdge(&Edge{})
	h := newAllocHarness(hj, queryset.Of(2))
	allocs := h.steadyStateAllocs([]Task{{Query: 2, Spec: JoinSpec{}}}, db.SnapshotTS(), func(c *Cycle) {
		hj.Consume(c, outer) // buffered until the build side is complete
		hj.Consume(c, inner)
		hj.EdgeEOS(c, hj.innerEdge)
	})
	checkJoinRows(t, h, outer, outCols)
	if allocs != 0 {
		t.Errorf("hash join cycle over %d matches allocates %.0f, want 0", len(outer.Tuples), allocs)
	}
}

// TestIndexJoinZeroAllocSteadyState pins the index nested-loop join the same
// way: seek, gather and emit allocate nothing.
func TestIndexJoinZeroAllocSteadyState(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	db, _, outer, outCols := joinFixture(t)
	ij := &IndexJoinOp{Table: db.Table("users"), Index: db.Table("users").PrimaryKey(),
		Outers: map[int]JoinOuter{2: {KeyCols: []int{1}, OutStream: 3, OutCols: outCols}}}
	h := newAllocHarness(ij, queryset.Of(2))
	allocs := h.steadyStateAllocs([]Task{{Query: 2}}, db.SnapshotTS(), func(c *Cycle) {
		ij.Consume(c, outer)
	})
	checkJoinRows(t, h, outer, outCols)
	if allocs != 0 {
		t.Errorf("index join cycle over %d matches allocates %.0f, want 0", len(outer.Tuples), allocs)
	}
}

// TestSortTopNZeroAllocSteadyState pins the shared sort in both regimes:
// buffering, the index permutation or the per-query heaps, routing and
// emission all run on operator-owned scratch.
func TestSortTopNZeroAllocSteadyState(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	const n, nq = 800, 16 // log₂ 800 ≈ 9.6: 16 subscribers per tuple is past the selector's threshold
	var tasks []Task
	var all []queryset.QueryID
	for q := queryset.QueryID(1); q <= nq; q++ {
		tasks = append(tasks, Task{Query: q, Spec: SortSpec{Limit: 5 + 10*int(q%4)}}) // 5, 15, 25 or 35 of a query's 50 tuples
		all = append(all, q)
	}
	mk := func(qs func(i int) queryset.Set) *Batch {
		b := &Batch{Stream: 1}
		for i := 0; i < n; i++ {
			b.Tuples = append(b.Tuples, Tuple{Row: types.Row{types.NewInt(int64(i * 7919 % 101)), types.NewString("r")}, QS: qs(i)})
		}
		return b
	}
	for _, tc := range []struct {
		name  string
		batch *Batch
		rows  int // tuples delivered per cycle
	}{
		// One subscriber per tuple: pairs = o, each query is served from its
		// own heap and every kept row goes out with a singleton set.
		{"selection", mk(func(i int) queryset.Set { return queryset.Single(queryset.QueryID(1 + i%nq)) }), 4 * (5 + 15 + 25 + 35)},
		// Every query subscribes to every tuple: one sort, and routing stops
		// after the 35 tuples the largest LIMIT needs.
		{"shared sort", mk(func(int) queryset.Set { return queryset.Of(all...) }), 35},
	} {
		op := &SortOp{Streams: map[int]SortStream{1: {Keys: []SortKey{{E: &expr.ColRef{Idx: 0}, Desc: true}}, OutStream: 1}}}
		h := newAllocHarness(op, queryset.Of(all...))
		allocs := h.steadyStateAllocs(tasks, 0, func(c *Cycle) { op.Consume(c, tc.batch) })
		if h.rows != tc.rows {
			t.Fatalf("%s: delivered %d tuples, want %d", tc.name, h.rows, tc.rows)
		}
		if allocs != 0 {
			t.Errorf("%s: sort cycle over %d tuples allocates %.0f, want 0", tc.name, n, allocs)
		}
	}
}

// TestGroupEmitZeroAllocSteadyState pins the serial group-by cycle, emission
// included: per-(group, query) output rows and the empty-input scalar row are
// cut from the generation's arena.
func TestGroupEmitZeroAllocSteadyState(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	op, tasks, mkBatches := groupFixture()
	tasks = append(tasks, Task{Query: 4, Spec: GroupSpec{Scalar: true}}) // no input: one row of defaults
	batches := mkBatches(2 * batchSize)
	h := newAllocHarness(op, queryset.Of(1, 2, 3, 4))
	allocs := h.steadyStateAllocs(tasks, 0, func(c *Cycle) {
		for _, b := range batches {
			op.Consume(c, b)
		}
	})
	if want := 2*groupFixtureGroups + 1; h.rows != want {
		t.Fatalf("fixture emits %d rows per cycle, want %d", h.rows, want)
	}
	if allocs != 0 {
		t.Errorf("group cycle emitting %d rows allocates %.0f, want 0", h.rows, allocs)
	}
}
