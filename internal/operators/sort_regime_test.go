package operators

import (
	"math/rand"
	"slices"
	"testing"

	"shareddb/internal/expr"
	"shareddb/internal/queryset"
	"shareddb/internal/types"
)

// The shared sort picks between two Finish regimes from the cycle's measured
// overlap (see SortOp). This property test drives random inputs through both
// regimes and through the selector, and holds each against a naive reference:
// per query, a stable sort of the tuples it subscribed to, cut at its LIMIT.

// sortRegimeCase is one random cycle: tuples over two input streams with
// different layouts, keyed (k1 DESC, k2 ASC) with NULLs and heavy ties.
type sortRegimeCase struct {
	tasks   []Task
	batches []*Batch
	// ref is the input in arrival order: its keys, its subscribers and the id
	// the emitted row is recognised by.
	ref []struct {
		k1, k2 types.Value
		qs     []queryset.QueryID
		id     int64
	}
}

func newSortRegimeCase(r *rand.Rand) *sortRegimeCase {
	nq := 1 + r.Intn(16)
	n := r.Intn(400)
	if r.Intn(2) == 0 {
		n = r.Intn(40) // small o: a handful of subscribers per tuple already favours the shared sort
	}
	// subscribers per tuple: 1 … all, so the selector lands on both sides
	maxSubs := 1 + r.Intn(nq)
	if r.Intn(3) == 0 {
		maxSubs = 2 * nq // ids are drawn with replacement: nearly every query on every tuple
	}
	unlimited := r.Intn(3) == 0 // a third of the cycles mix in ORDER BY without LIMIT
	tc := &sortRegimeCase{}
	for q := 1; q <= nq+1; q++ { // query nq+1 never receives a tuple
		lim := 1 + r.Intn(8) // small against n/nq: ties straddle the cut
		if unlimited && r.Intn(2) == 0 {
			lim = 0
		}
		tc.tasks = append(tc.tasks, Task{Query: queryset.QueryID(q), Spec: SortSpec{Limit: lim}})
	}
	key := func(domain int) types.Value {
		if r.Intn(6) == 0 {
			return types.Null
		}
		return types.NewInt(int64(r.Intn(domain)))
	}
	for i := 0; i < n; i++ {
		ids := make([]queryset.QueryID, 1+r.Intn(maxSubs))
		for j := range ids {
			ids[j] = queryset.QueryID(1 + r.Intn(nq))
		}
		qs := queryset.Of(ids...)
		k1, k2, id := key(4), key(3), types.NewFloat(float64(i)) // the only FLOAT column, wherever the layout puts it
		stream, row := 1, types.Row{k1, k2, id}
		if r.Intn(2) == 0 {
			stream, row = 2, types.Row{id, k2, k1}
		}
		if len(tc.batches) == 0 || tc.batches[len(tc.batches)-1].Stream != stream || r.Intn(16) == 0 {
			tc.batches = append(tc.batches, &Batch{Stream: stream})
		}
		b := tc.batches[len(tc.batches)-1]
		b.Tuples = append(b.Tuples, Tuple{Row: row, QS: qs})
		tc.ref = append(tc.ref, struct {
			k1, k2 types.Value
			qs     []queryset.QueryID
			id     int64
		}{k1, k2, qs.IDs(), int64(i)})
	}
	return tc
}

// op builds the sort. Both inputs leave on one out-stream: the emitter
// batches per stream, so order across out-streams is not defined (in a plan a
// query reads exactly one).
func (tc *sortRegimeCase) op() *SortOp {
	col := func(i int) expr.Expr { return &expr.ColRef{Idx: i} }
	return &SortOp{Streams: map[int]SortStream{
		1: {Keys: []SortKey{{E: col(0), Desc: true}, {E: col(1)}}, OutStream: 11},
		2: {Keys: []SortKey{{E: col(2), Desc: true}, {E: col(1)}}, OutStream: 11},
	}}
}

// naive is the reference: per query, stable sort + cut.
func (tc *sortRegimeCase) naive() map[queryset.QueryID][]int64 {
	out := map[queryset.QueryID][]int64{}
	for _, tk := range tc.tasks {
		var mine []int
		for i, t := range tc.ref {
			if slices.Contains(t.qs, tk.Query) {
				mine = append(mine, i)
			}
		}
		slices.SortStableFunc(mine, func(a, b int) int {
			if d := tc.ref[a].k1.Compare(tc.ref[b].k1); d != 0 {
				return -d
			}
			return tc.ref[a].k2.Compare(tc.ref[b].k2)
		})
		if lim := tk.Spec.(SortSpec).Limit; lim > 0 && len(mine) > lim {
			mine = mine[:lim]
		}
		for _, i := range mine {
			out[tk.Query] = append(out[tk.Query], tc.ref[i].id)
		}
	}
	return out
}

// run drives one cycle, finishing it with finish, and returns every query's
// emitted ids in order.
func (tc *sortRegimeCase) run(finish func(op *SortOp, c *Cycle)) map[queryset.QueryID][]int64 {
	op := tc.op()
	rows := driveOp(op, tc.tasks, func(c *Cycle) {
		for _, b := range tc.batches {
			op.Consume(c, b)
		}
		finish(op, c)
		op.release() // driveOp's own Finish then sees an empty buffer
	})
	out := map[queryset.QueryID][]int64{}
	for q, rs := range rows {
		for _, row := range rs {
			i := slices.IndexFunc(row, func(v types.Value) bool { return v.Kind() == types.KindFloat })
			out[q] = append(out[q], row[i].AsInt())
		}
	}
	return out
}

func TestSortRegimesMatchNaivePerQuery(t *testing.T) {
	r := rand.New(rand.NewSource(2012))
	same := func(label string, trial int, got, want map[queryset.QueryID][]int64) {
		t.Helper()
		for q, w := range want {
			if !slices.Equal(got[q], w) {
				t.Fatalf("trial %d, %s, query %d: got %v, want %v", trial, label, q, got[q], w)
			}
		}
		for q, g := range got {
			if len(want[q]) == 0 && len(g) > 0 {
				t.Fatalf("trial %d, %s, query %d: got %v, want nothing", trial, label, q, g)
			}
		}
	}
	var selected, sorted int // how often the selector took each side, non-empty all-LIMIT cycles only
	for trial := 0; trial < 400; trial++ {
		tc := newSortRegimeCase(r)
		want := tc.naive()
		allLimited, selection := true, false
		for _, tk := range tc.tasks {
			allLimited = allLimited && tk.Spec.(SortSpec).Limit > 0
		}
		same("selector", trial, tc.run(func(op *SortOp, c *Cycle) {
			selection = op.selectionWins()
			op.Finish(c)
		}), want)
		same("shared sort", trial, tc.run((*SortOp).finishSharedSort), want)
		if !allLimited {
			if selection {
				t.Fatalf("trial %d: selection picked with an unlimited query active", trial)
			}
			continue // selection serves Top-N queries only
		}
		same("selection", trial, tc.run((*SortOp).finishSelection), want)
		if len(tc.ref) == 0 {
			continue
		}
		if selection {
			selected++
		} else {
			sorted++
		}
	}
	if selected < 20 || sorted < 20 {
		t.Errorf("generator is one-sided: the selector picked selection in %d all-LIMIT cycles and the shared sort in %d", selected, sorted)
	}
}
