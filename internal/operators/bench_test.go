package operators

import (
	"fmt"
	"testing"

	"shareddb/internal/queryset"
	"shareddb/internal/types"
)

// Ablation A3: the shared hash join's two build strategies
// (§3.3) — hashing the build side on the join key vs hashing on query_id
// (the set-based join of Helmer & Moerkotte). The query-id variant is
// "only beneficial if these sets are small": with few subscribers per inner
// tuple it avoids key hashing, with many it explodes.
func BenchmarkAblation_JoinByKeyVsByQueryID(b *testing.B) {
	const innerRows = 1000
	const outerRows = 1000
	for _, queriesPerTuple := range []int{1, 8, 64} {
		for _, byQID := range []bool{false, true} {
			mode := "byKey"
			if byQID {
				mode = "byQueryID"
			}
			b.Run(fmt.Sprintf("%dq/%s", queriesPerTuple, mode), func(b *testing.B) {
				inner := &Batch{Stream: 1}
				for i := 0; i < innerRows; i++ {
					ids := make([]queryset.QueryID, queriesPerTuple)
					for q := range ids {
						ids[q] = queryset.QueryID(q + 1)
					}
					inner.Tuples = append(inner.Tuples, Tuple{
						Row: types.Row{types.NewInt(int64(i)), types.NewString("inner")},
						QS:  queryset.Of(ids...),
					})
				}
				outer := &Batch{Stream: 2}
				for i := 0; i < outerRows; i++ {
					ids := make([]queryset.QueryID, queriesPerTuple)
					for q := range ids {
						ids[q] = queryset.QueryID(q + 1)
					}
					outer.Tuples = append(outer.Tuples, Tuple{
						Row: types.Row{types.NewInt(int64(i % innerRows)), types.NewString("outer")},
						QS:  queryset.Of(ids...),
					})
				}
				op := &HashJoinOp{
					InnerKeyCols: []int{0},
					InnerStream:  1,
					Outers:       map[int]JoinOuter{2: {KeyCols: []int{0}, OutStream: 3, OutCols: allOutCols(2, 2)}},
					ByQueryID:    byQID,
				}
				node := NewNode(0, "bench-join", op) // no consumers: emit is a no-op
				edge := &Edge{From: node, To: node}
				op.SetInnerEdge(edge)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c := &Cycle{Gen: uint64(i), em: newEmitter(node, uint64(i))}
					op.Start(c)
					op.Consume(c, inner)
					op.EdgeEOS(c, edge)
					op.Consume(c, outer)
					op.Finish(c)
				}
			})
		}
	}
}
