package operators

import (
	"math/rand"
	"sort"
	"testing"

	"shareddb/internal/expr"
	"shareddb/internal/queryset"
	"shareddb/internal/types"
)

// driveOp runs one operator cycle synchronously and returns every emitted
// row per query, in emission order.
func driveOp(op Operator, tasks []Task, drive func(c *Cycle)) map[queryset.QueryID][]types.Row {
	node := NewNode(0, "op", op)
	sink := &SinkOp{}
	sinkNode := NewNode(1, "sink", sink)
	Connect(node, sinkNode)
	ids := make([]queryset.QueryID, 0, len(tasks))
	for _, tk := range tasks {
		ids = append(ids, tk.Query)
	}
	results := map[queryset.QueryID][]types.Row{}
	sinkCycle := &Cycle{Gen: 1, onTuple: func(_ int, tp Tuple) {
		for _, q := range tp.QS.IDs() {
			results[q] = append(results[q], tp.Row)
		}
	}}
	c := &Cycle{Gen: 1, Tasks: tasks, node: node, em: newEmitter(node, 1, []queryset.Set{queryset.Of(ids...)})}
	op.Start(c)
	drive(c)
	op.Finish(c)
	c.em.flushEOS()
	for sinkNode.Inbox().Len() > 0 {
		msg, _ := sinkNode.Inbox().Pop()
		if msg.Batch != nil {
			sink.Consume(sinkCycle, msg.Batch)
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

func compareExact(t *testing.T, label string, want, got map[queryset.QueryID][]types.Row) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d queries, want %d", label, len(got), len(want))
	}
	for q, w := range want {
		g := got[q]
		if len(w) != len(g) {
			t.Fatalf("%s query %d: %d rows, want %d", label, q, len(g), len(w))
		}
		for i := range w {
			if rowsKey(w[i]) != rowsKey(g[i]) {
				t.Fatalf("%s query %d row %d: %v, want %v", label, q, i, g[i], w[i])
			}
		}
	}
}

// The shared sort orders its index permutation with an unstable sort under a
// strict total order (keys, then arrival index): its output must be the
// stable sort order bit for bit, equal keys in arrival order.
func TestSortIndexPermMatchesSliceStable(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	const n = 3072
	batch := &Batch{Stream: 1}
	want := make([]int, n)
	for i := range want {
		// heavy duplication → stability matters
		batch.Tuples = append(batch.Tuples, Tuple{Row: types.Row{types.NewInt(int64(r.Intn(40))), types.NewInt(int64(i))}, QS: queryset.Of(1)})
		want[i] = i
	}
	sort.SliceStable(want, func(i, j int) bool {
		return batch.Tuples[want[i]].Row[0].Int < batch.Tuples[want[j]].Row[0].Int
	})
	op := &SortOp{Streams: map[int]SortStream{1: {Keys: []SortKey{{E: &expr.ColRef{Idx: 0}}}, OutStream: 1}}}
	got := driveOp(op, []Task{{Query: 1, Spec: SortSpec{}}}, func(c *Cycle) { op.Consume(c, batch) })[1]
	if len(got) != n {
		t.Fatalf("%d rows, want %d", len(got), n)
	}
	for i, row := range got {
		if int(row[1].Int) != want[i] {
			t.Fatalf("position %d holds tuple %d, want %d (stability broken)", i, row[1].Int, want[i])
		}
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
	whole := &Batch{Stream: 1}
	for _, b := range batches {
		whole.Tuples = append(whole.Tuples, b.Tuples...)
	}
	want := driveOp(op(), tasks, func(c *Cycle) { c.node.Op.Consume(c, whole) })
	// Groups emit in first-arrival order however the input is batched. Rows
	// embed float sums, so identical bytes also prove the accumulation order.
	// (The name dates from when Finish had a partitioned variant.)
	compareExact(t, "group over nine batches", want, driveOp(op(), tasks, feed))
}
