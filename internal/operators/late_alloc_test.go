package operators

import (
	"testing"

	"shareddb/internal/expr"
	"shareddb/internal/queryset"
	"shareddb/internal/storage"
	"shareddb/internal/testutil"
	"shareddb/internal/types"
)

// Allocation gates for the join → group path. They set Cycle.Workers = 2
// explicitly: the engine derives its worker budget from GOMAXPROCS, so a
// single-core run never reaches the partitioned paths these pin.

// TestGroupPartitionZeroAllocPerTuple pins the partitioned group-by
// (partition + combine at >= minParallelAggLen tuples): once the partition
// scratch and the per-bucket free lists are warm, a cycle allocates for its
// emitted rows and a fixed amount of plumbing — nothing per input tuple, so
// doubling the input does not move the count.
func TestGroupPartitionZeroAllocPerTuple(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	const nGroups = 64
	mkBatches := func(nTuples int) []*Batch {
		var out []*Batch
		for i := 0; i < nTuples; i++ {
			if i%batchSize == 0 {
				out = append(out, &Batch{Stream: 1})
			}
			b := out[len(out)-1]
			b.Tuples = append(b.Tuples, Tuple{
				Row: types.Row{types.NewInt(int64(i % nGroups)), types.NewInt(int64(i)), types.NewFloat(float64(i) / 7)},
				QS:  queryset.Of(1, queryset.QueryID(2+i%2)),
			})
		}
		return out
	}
	op := &GroupOp{
		Streams: map[int]GroupStream{1: {
			GroupCols: []int{0},
			AggArgs:   []expr.Expr{nil, &expr.ColRef{Idx: 1}, &expr.ColRef{Idx: 2}, &expr.ColRef{Idx: 1}},
		}},
		Aggs:      []AggDef{{Kind: AggCount}, {Kind: AggSum}, {Kind: AggAvg}, {Kind: AggMax}},
		OutStream: 2,
	}
	tasks := []Task{{Query: 1, Spec: GroupSpec{}}, {Query: 2, Spec: GroupSpec{}}, {Query: 3, Spec: GroupSpec{}}}
	// Count emitted rows through a consumer edge; the sink is never run, its
	// inbox is just drained.
	node, sinkNode := NewNode(0, "group", op), NewNode(1, "sink", &SinkOp{})
	pool := NewBatchPool()
	node.SetPool(pool)
	Connect(node, sinkNode).SetQueries(1, queryset.Of(1, 2, 3))
	rows := 0
	cycle := func(batches []*Batch) {
		c := &Cycle{Gen: 1, Tasks: tasks, Workers: 2, node: node, em: newEmitter(node, 1)}
		defer func() {
			c.em.flushEOS()
			for rows = 0; sinkNode.Inbox().Len() > 0; {
				if m, _ := sinkNode.Inbox().Pop(); m.Batch != nil {
					rows += len(m.Batch.Tuples)
					pool.Put(m.Batch)
				}
			}
		}()
		op.Start(c)
		for _, b := range batches {
			b.retained = false
			op.Consume(c, b)
		}
		op.Finish(c)
	}
	small, large := mkBatches(4*minParallelAggLen), mkBatches(8*minParallelAggLen)
	for i := 0; i < 3; i++ { // warm the scratch to the larger shape
		cycle(large)
	}
	allocsSmall := testing.AllocsPerRun(10, func() { cycle(small) })
	allocsLarge := testing.AllocsPerRun(10, func() { cycle(large) })
	if rows != 2*nGroups { // query 1 sees every group; 2 and 3 split them by parity
		t.Fatalf("fixture emits %d rows per cycle, want %d", rows, 2*nGroups)
	}
	emitted := float64(rows)
	if allocsLarge > emitted+16 {
		t.Errorf("partitioned group cycle allocates %.0f for %d tuples and %.0f emitted rows — per-tuple allocation crept back in",
			allocsLarge, 8*minParallelAggLen, emitted)
	}
	// The slack covers the cycle's retained-batch list growing with the
	// batch count; a per-tuple allocation would add thousands.
	if allocsLarge > allocsSmall+2 {
		t.Errorf("doubling the input moved allocations %.0f → %.0f, want 0 per tuple", allocsSmall, allocsLarge)
	}
}

// TestJoinProbeZeroAllocBeyondOutputRows pins the probe side of both joins:
// one allocation per emitted tuple — the result row, len(OutCols) wide — and
// nothing else (no full-width concatenation, no per-seek dedup map).
func TestJoinProbeZeroAllocBeyondOutputRows(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	db := newTestDB(t) // users(user_id, country) × 10, orders(o_id, o_user_id, o_status) × 30
	defer db.Close()
	ts := db.SnapshotTS()
	// The carried columns: o_id from the outer, country from the inner.
	outCols := []OutCol{{Col: 0}, {Inner: true, Col: 1}}
	var inner, outer Batch
	inner.Stream, outer.Stream = 1, 2
	db.Table("users").ScanVisible(ts, func(_ storage.RowID, row types.Row) bool {
		inner.Tuples = append(inner.Tuples, Tuple{Row: row, QS: queryset.Of(1, 2)})
		return true
	})
	db.Table("orders").ScanVisible(ts, func(_ storage.RowID, row types.Row) bool {
		outer.Tuples = append(outer.Tuples, Tuple{Row: row, QS: queryset.Of(2)})
		return true
	})
	matches := float64(len(outer.Tuples)) // every order has exactly one user

	var last types.Row
	sink := &SinkOp{}
	sink.SetHandler(1, func(_ int, tp Tuple) { last = tp.Row })
	check := func(name string, op Operator, probe func(c *Cycle)) {
		t.Helper()
		pool := NewBatchPool()
		node := NewNode(0, name, op)
		node.SetPool(pool)
		sinkNode := NewNode(1, "sink", sink)
		Connect(node, sinkNode).SetQueries(1, queryset.Of(2))
		c := &Cycle{Gen: 1, TS: ts, Workers: 2, node: node, em: newEmitter(node, 1),
			Tasks: []Task{{Query: 2, Spec: IndexJoinSpec{}}}}
		op.Start(c)
		run := func() {
			probe(c)
			c.em.flushEOS()
			for sinkNode.Inbox().Len() > 0 {
				if m, _ := sinkNode.Inbox().Pop(); m.Batch != nil {
					sink.Consume(c, m.Batch)
					pool.Put(m.Batch)
				}
			}
		}
		run() // warm the batch pool and scratch
		if len(last) != len(outCols) || last[1].Kind() != types.KindString {
			t.Fatalf("%s: emitted row %v, want (o_id, country)", name, last)
		}
		if allocs := testing.AllocsPerRun(20, run); allocs != matches {
			t.Errorf("%s: probing %d tuples allocates %.0f, want %.0f (one %d-column row per match)",
				name, len(outer.Tuples), allocs, matches, len(outCols))
		}
	}

	hj := &HashJoinOp{InnerKeyCols: []int{0}, InnerStream: 1,
		Outers: map[int]JoinOuter{2: {KeyCols: []int{1}, OutStream: 3, OutCols: outCols}}}
	hj.SetInnerEdge(&Edge{})
	built := false
	check("hash join", hj, func(c *Cycle) {
		if !built {
			built = true
			hj.Consume(c, &inner)
			hj.EdgeEOS(c, hj.innerEdge)
		}
		hj.probeBatch(c, &outer)
	})
	ij := &IndexJoinOp{Table: db.Table("users"), Index: db.Table("users").PrimaryKey(),
		Outers: map[int]JoinOuter{2: {KeyCols: []int{1}, OutStream: 3, OutCols: outCols}}}
	check("index join", ij, func(c *Cycle) { ij.Consume(c, &outer) })
}
