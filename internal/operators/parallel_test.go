package operators

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"shareddb/internal/expr"
	"shareddb/internal/queryset"
	"shareddb/internal/types"
)

// Tests for the data-parallel Finish phases: at any worker count the
// per-query output of every blocking operator must be identical to serial
// execution — identical rows, identical per-query order where the operator
// defines one (sort), identical multisets where it does not (group-by).

// driveOp runs one operator cycle synchronously and returns every emitted
// row per query, in emission order.
func driveOp(op Operator, tasks []Task, workers int, drive func(c *Cycle)) map[queryset.QueryID][]types.Row {
	node := NewNode(0, "op", op)
	sink := &SinkOp{}
	sinkNode := NewNode(1, "sink", sink)
	edge := Connect(node, sinkNode)
	ids := make([]queryset.QueryID, 0, len(tasks))
	for _, tk := range tasks {
		ids = append(ids, tk.Query)
	}
	edge.SetQueries(1, queryset.Of(ids...))
	results := map[queryset.QueryID][]types.Row{}
	sink.SetHandler(1, func(_ int, tp Tuple) {
		for _, q := range tp.QS.IDs() {
			results[q] = append(results[q], tp.Row)
		}
	})
	c := &Cycle{Gen: 1, Tasks: tasks, Workers: workers, node: node, em: newEmitter(node, 1)}
	op.Start(c)
	drive(c)
	op.Finish(c)
	c.em.flushEOS()
	for sinkNode.Inbox().Len() > 0 {
		msg, _ := sinkNode.Inbox().Pop()
		if msg.Batch != nil {
			sink.Consume(&Cycle{Gen: 1}, msg.Batch)
		}
	}
	return results
}

func rowsKey(r types.Row) string { return types.EncodeKey(r...) }

func sortedKeys(rows []types.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = rowsKey(r)
	}
	sort.Strings(out)
	return out
}

func compareExact(t *testing.T, label string, serial, parallel map[queryset.QueryID][]types.Row) {
	t.Helper()
	if len(serial) != len(parallel) {
		t.Fatalf("%s: %d queries serial vs %d parallel", label, len(serial), len(parallel))
	}
	for q, s := range serial {
		p := parallel[q]
		if len(s) != len(p) {
			t.Fatalf("%s query %d: %d rows serial vs %d parallel", label, q, len(s), len(p))
		}
		for i := range s {
			if rowsKey(s[i]) != rowsKey(p[i]) {
				t.Fatalf("%s query %d row %d: %v serial vs %v parallel", label, q, i, s[i], p[i])
			}
		}
	}
}

func compareMultiset(t *testing.T, label string, serial, parallel map[queryset.QueryID][]types.Row) {
	t.Helper()
	if len(serial) != len(parallel) {
		t.Fatalf("%s: %d queries serial vs %d parallel", label, len(serial), len(parallel))
	}
	for q, s := range serial {
		sk, pk := sortedKeys(s), sortedKeys(parallel[q])
		if len(sk) != len(pk) {
			t.Fatalf("%s query %d: %d rows serial vs %d parallel", label, q, len(sk), len(pk))
		}
		for i := range sk {
			if sk[i] != pk[i] {
				t.Fatalf("%s query %d: row multiset differs at %d", label, q, i)
			}
		}
	}
}

// sortIndexPerm with workers > 1 must reproduce the stable sort order
// bit-for-bit, including the order of equal keys (arrival index tiebreak).
func TestSortIndexPermMatchesSliceStable(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	n := 3 * minParallelSortLen
	keys := make([]int, n)
	for i := range keys {
		keys[i] = r.Intn(40) // heavy duplication → stability matters
	}
	cmp := func(a, b int32) int {
		if d := keys[a] - keys[b]; d != 0 {
			return d
		}
		return int(a - b)
	}
	want := make([]int32, n)
	for i := range want {
		want[i] = int32(i)
	}
	sort.SliceStable(want, func(i, j int) bool { return keys[want[i]] < keys[want[j]] })

	var scratch []int32
	for _, workers := range []int{1, 2, 3, 4, 7} {
		perm := make([]int32, n)
		for i := range perm {
			perm[i] = int32(i)
		}
		var got []int32
		got, scratch = sortIndexPerm(perm, scratch, cmp, workers, nil)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("workers=%d: position %d holds tuple %d, want %d (stability broken)", workers, i, got[i], want[i])
			}
		}
	}
}

func TestSortFinishParallelMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	op := func() *SortOp {
		return &SortOp{Streams: map[int]SortStream{
			1: {Keys: []SortKey{{E: &expr.ColRef{Idx: 0}}}, OutStream: 1},
		}}
	}
	tasks := []Task{
		{Query: 1, Spec: SortSpec{}},
		{Query: 2, Spec: SortSpec{Limit: 17}},
		{Query: 3, Spec: SortSpec{Limit: 3}},
	}
	// Overlapping query sets and an unlimited query: the shared-sort regime,
	// with enough tuples for the parallel sort path.
	mkShared := func() []*Batch {
		var batches []*Batch
		for b := 0; b < 4; b++ {
			batch := &Batch{Stream: 1}
			for i := 0; i < minParallelSortLen; i++ {
				qs := queryset.Of(1, 2)
				if i%3 == 0 {
					qs = queryset.Of(1, 2, 3)
				}
				batch.Tuples = append(batch.Tuples, Tuple{
					Row: types.Row{types.NewInt(int64(r.Intn(200)))},
					QS:  qs,
				})
			}
			batches = append(batches, batch)
		}
		return batches
	}
	sharedBatches := mkShared()
	feed := func(batches []*Batch) func(c *Cycle) {
		return func(c *Cycle) {
			for _, b := range batches {
				c.node.Op.Consume(c, b)
			}
		}
	}
	serial := driveOp(op(), tasks, 1, feed(sharedBatches))
	for _, workers := range []int{2, 4} {
		parallel := driveOp(op(), tasks, workers, feed(sharedBatches))
		compareExact(t, fmt.Sprintf("shared sort workers=%d", workers), serial, parallel)
	}
}

func TestGroupFinishParallelMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	op := func() *GroupOp {
		return &GroupOp{
			Streams: map[int]GroupStream{
				1: {GroupCols: []int{0}, AggArgs: []expr.Expr{nil, &expr.ColRef{Idx: 1}, &expr.ColRef{Idx: 2}, &expr.ColRef{Idx: 1}, &expr.ColRef{Idx: 1}}},
			},
			Aggs: []AggDef{
				{Kind: AggCount},
				{Kind: AggSum},
				{Kind: AggAvg}, // float inputs: parallel must keep accumulation order
				{Kind: AggMin},
				{Kind: AggMax},
			},
			OutStream: 2,
		}
	}
	tasks := []Task{
		{Query: 1, Spec: GroupSpec{}},
		{Query: 2, Spec: GroupSpec{}},
		{Query: 3, Spec: GroupSpec{Having: &expr.Cmp{Op: expr.GT, L: &expr.ColRef{Idx: 1}, R: &expr.Const{Val: types.NewInt(5)}}}},
	}
	var batches []*Batch
	for b := 0; b < 9; b++ {
		batch := &Batch{Stream: 1}
		for i := 0; i < 500; i++ {
			var qs queryset.Set
			switch r.Intn(3) {
			case 0:
				qs = queryset.Of(1, 2, 3)
			case 1:
				qs = queryset.Of(queryset.QueryID(1 + r.Intn(3)))
			default:
				qs = queryset.Of(1, 3)
			}
			v := types.Null
			if r.Intn(8) != 0 {
				v = types.NewInt(int64(r.Intn(50)))
			}
			batch.Tuples = append(batch.Tuples, Tuple{
				Row: types.Row{types.NewInt(int64(r.Intn(30))), v, types.NewFloat(r.Float64())},
				QS:  qs,
			})
		}
		batches = append(batches, batch)
	}
	feed := func(c *Cycle) {
		for _, b := range batches {
			c.node.Op.Consume(c, b)
		}
	}
	serial := driveOp(op(), tasks, 1, feed)
	for _, workers := range []int{2, 4, 7} {
		parallel := driveOp(op(), tasks, workers, feed)
		// group emission order is hash-map order in both regimes: compare as
		// multisets. Rows embed float sums, so identical bytes also prove the
		// accumulation order was preserved.
		compareMultiset(t, fmt.Sprintf("group workers=%d", workers), serial, parallel)
	}
}

func TestJoinParallelBuildMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	const innerStream, outerStream, outStream = 1, 2, 3
	mkOp := func() (*HashJoinOp, *Node, *Edge, *Edge) {
		op := &HashJoinOp{
			InnerKeyCols: []int{0},
			InnerStream:  innerStream,
			Outers:       map[int]JoinOuter{outerStream: {KeyCols: []int{0}, OutStream: outStream, OutCols: allOutCols(2, 2)}},
		}
		node := NewNode(0, "join", op)
		innerSrc := NewNode(10, "inner", &SinkOp{})
		innerEdge := Connect(innerSrc, node)
		op.SetInnerEdge(innerEdge)
		sinkNode := NewNode(1, "sink", &SinkOp{})
		outEdge := Connect(node, sinkNode)
		return op, node, innerEdge, outEdge
	}
	var innerBatches, outerBatches []*Batch
	for b := 0; b < 6; b++ {
		ib := &Batch{Stream: innerStream}
		ob := &Batch{Stream: outerStream}
		for i := 0; i < 300; i++ {
			ib.Tuples = append(ib.Tuples, Tuple{
				Row: types.Row{types.NewInt(int64(r.Intn(60))), types.NewInt(int64(b*1000 + i))},
				QS:  queryset.Of(1, queryset.QueryID(1+r.Intn(2))),
			})
			ob.Tuples = append(ob.Tuples, Tuple{
				Row: types.Row{types.NewInt(int64(r.Intn(60))), types.NewInt(int64(-b*1000 - i))},
				QS:  queryset.Of(queryset.QueryID(1 + r.Intn(2))),
			})
		}
		innerBatches = append(innerBatches, ib)
		outerBatches = append(outerBatches, ob)
	}
	runJoin := func(workers int) map[queryset.QueryID][]types.Row {
		op, node, innerEdge, outEdge := mkOp()
		outEdge.SetQueries(1, queryset.Of(1, 2))
		results := map[queryset.QueryID][]types.Row{}
		sinkOp := outEdge.To.Op.(*SinkOp)
		sinkOp.SetHandler(1, func(_ int, tp Tuple) {
			for _, q := range tp.QS.IDs() {
				results[q] = append(results[q], tp.Row)
			}
		})
		c := &Cycle{Gen: 1, Workers: workers, node: node, em: newEmitter(node, 1)}
		op.Start(c)
		// outers arriving before the build completes are buffered
		op.Consume(c, outerBatches[0])
		for _, b := range innerBatches {
			op.Consume(c, b)
		}
		op.EdgeEOS(c, innerEdge)
		for _, b := range outerBatches[1:] {
			op.Consume(c, b)
		}
		op.Finish(c)
		c.em.flushEOS()
		for outEdge.To.Inbox().Len() > 0 {
			msg, _ := outEdge.To.Inbox().Pop()
			if msg.Batch != nil {
				sinkOp.Consume(&Cycle{Gen: 1}, msg.Batch)
			}
		}
		return results
	}
	serial := runJoin(1)
	if len(serial[1]) == 0 || len(serial[2]) == 0 {
		t.Fatalf("join smoke: serial produced %d/%d rows", len(serial[1]), len(serial[2]))
	}
	for _, workers := range []int{2, 4} {
		parallel := runJoin(workers)
		// probe order and per-key build order are both preserved, so the
		// comparison is exact, not multiset.
		compareExact(t, fmt.Sprintf("join workers=%d", workers), serial, parallel)
	}
}

// TestJoinParallelBuildShrinkingWorkers reuses ONE join operator across
// cycles whose worker budget shrinks (4 → 2 → 1) — exactly what the
// adaptive worker budget does between generations — and checks every cycle
// produces the serial result. Pins that probes select shards with the same
// modulus the build routed with (a stale, larger shard slice from an
// earlier cycle would silently drop matches).
func TestJoinParallelBuildShrinkingWorkers(t *testing.T) {
	old := minParallelAggLen
	minParallelAggLen = 1
	t.Cleanup(func() { minParallelAggLen = old })
	const innerStream, outerStream, outStream = 1, 2, 3
	op := &HashJoinOp{
		InnerKeyCols: []int{0},
		InnerStream:  innerStream,
		Outers:       map[int]JoinOuter{outerStream: {KeyCols: []int{0}, OutStream: outStream, OutCols: allOutCols(2, 2)}},
	}
	node := NewNode(0, "join", op)
	innerSrc := NewNode(10, "inner", &SinkOp{})
	innerEdge := Connect(innerSrc, node)
	op.SetInnerEdge(innerEdge)
	sinkNode := NewNode(1, "sink", &SinkOp{})
	outEdge := Connect(node, sinkNode)
	sinkOp := sinkNode.Op.(*SinkOp)

	mkBatches := func() (*Batch, *Batch) {
		ib := &Batch{Stream: innerStream}
		ob := &Batch{Stream: outerStream}
		for i := 0; i < 200; i++ {
			ib.Tuples = append(ib.Tuples, Tuple{
				Row: types.Row{types.NewInt(int64(i % 37)), types.NewInt(int64(i))},
				QS:  queryset.Of(1),
			})
			ob.Tuples = append(ob.Tuples, Tuple{
				Row: types.Row{types.NewInt(int64(i % 37)), types.NewInt(int64(-i))},
				QS:  queryset.Of(1),
			})
		}
		return ib, ob
	}
	runCycle := func(gen uint64, workers int) int {
		outEdge.SetQueries(gen, queryset.Of(1))
		rows := 0
		sinkOp.SetHandler(gen, func(_ int, _ Tuple) { rows++ })
		c := &Cycle{Gen: gen, Workers: workers, node: node, em: newEmitter(node, gen)}
		op.Start(c)
		ib, ob := mkBatches()
		op.Consume(c, ib)
		op.EdgeEOS(c, innerEdge)
		op.Consume(c, ob)
		op.Finish(c)
		c.em.flushEOS()
		for sinkNode.Inbox().Len() > 0 {
			msg, _ := sinkNode.Inbox().Pop()
			if msg.Batch != nil {
				sinkOp.Consume(&Cycle{Gen: gen}, msg.Batch)
			}
		}
		return rows
	}
	want := 0
	for gen, workers := range []int{4, 2, 1, 4} {
		got := runCycle(uint64(gen)+1, workers)
		if gen == 0 {
			want = got
			if want == 0 {
				t.Fatal("smoke: first cycle joined nothing")
			}
			continue
		}
		if got != want {
			t.Errorf("cycle %d (workers=%d): %d join rows, want %d (shard modulus mismatch?)", gen+1, workers, got, want)
		}
	}
}

func BenchmarkSortFinishWorkers(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	n := 200000
	tuples := make([]Tuple, n)
	for i := range tuples {
		tuples[i] = Tuple{Row: types.Row{types.NewInt(int64(r.Intn(1 << 30)))}, QS: queryset.Of(1, 2)}
	}
	tasks := []Task{{Query: 1, Spec: SortSpec{}}, {Query: 2, Spec: SortSpec{Limit: 100}}}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				op := &SortOp{Streams: map[int]SortStream{1: {Keys: []SortKey{{E: &expr.ColRef{Idx: 0}}}, OutStream: 1}}}
				node := NewNode(0, "sort", op)
				sinkNode := NewNode(1, "sink", &SinkOp{})
				edge := Connect(node, sinkNode)
				edge.SetQueries(1, queryset.Of(1, 2))
				c := &Cycle{Gen: 1, Tasks: tasks, Workers: workers, node: node, em: newEmitter(node, 1)}
				op.Start(c)
				op.Consume(c, &Batch{Stream: 1, Tuples: tuples})
				b.StartTimer()
				op.Finish(c)
				b.StopTimer()
				// drop the sink's buffered output between iterations
				for sinkNode.Inbox().Len() > 0 {
					sinkNode.Inbox().Pop()
				}
				b.StartTimer()
			}
		})
	}
}
