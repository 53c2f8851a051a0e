package operators

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"shareddb/internal/expr"
	"shareddb/internal/queryset"
	"shareddb/internal/storage"
	"shareddb/internal/testutil"
	"shareddb/internal/types"
)

// A sort stream with a deferred join (SortStream.Lookup) must emit exactly
// what an index join feeding a plain sort emits: in a forced regime the same
// tuples with the same query sets in the same order, under the selector the
// same per-query sequences. The reference here is the two operators chained.

// innerOp is one write to the lookup fixture's inner table dim(d_id, d_name):
// an insert or update of key to name, or a delete of key.
type innerOp struct {
	key  int64
	name string
	del  bool
}

// outerTuple is one outer row (o_id, d_key, s) before its o_id is assigned.
type outerTuple struct {
	key, s types.Value
	qs     queryset.Set
}

// sortLookupCase is one cycle: the inner table at snapshot ts, the outer
// batches on stream 1 and one Top-N task per query.
type sortLookupCase struct {
	tab     *storage.Table
	ts      uint64
	batches []*Batch
	tasks   []Task
	desc    bool
}

// The fixture's layouts: outer rows (o_id, d_key, s), join rows
// (o_id, s, d_name) on stream 3 — what both operators emit.
var lookupJoin = JoinOuter{KeyCols: []int{1}, OutStream: 3, OutCols: []OutCol{{Col: 0}, {Col: 2}, {Inner: true, Col: 1}}}

// newSortLookupCase applies before to a fresh dim table, takes the snapshot,
// applies after (invisible at the snapshot) and lays the outer tuples out in
// batches of at most batchLen.
func newSortLookupCase(t testing.TB, before, after []innerOp, outer []outerTuple, limits []int, desc bool, batchLen int) *sortLookupCase {
	t.Helper()
	db, err := storage.Open(storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	tab, err := db.CreateTable("dim", types.NewSchema(
		types.Column{Qualifier: "dim", Name: "d_id", Kind: types.KindInt},
		types.Column{Qualifier: "dim", Name: "d_name", Kind: types.KindString},
	))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.SetPrimaryKey("d_id"); err != nil {
		t.Fatal(err)
	}
	live := map[int64]bool{}
	apply := func(ops []innerOp) {
		for _, op := range ops {
			w := storage.WriteOp{Table: "dim", Pred: eqExpr(0, types.NewInt(op.key))}
			switch {
			case op.del:
				w.Kind = storage.WDelete
			case live[op.key]:
				w.Kind = storage.WUpdate
				w.Set = []storage.ColSet{{Col: 1, Val: &expr.Const{Val: types.NewString(op.name)}}}
			default:
				w = storage.WriteOp{Table: "dim", Kind: storage.WInsert, Row: types.Row{types.NewInt(op.key), types.NewString(op.name)}}
			}
			live[op.key] = !op.del
			if res, _ := db.ApplyOps([]storage.WriteOp{w}); res[0].Err != nil {
				t.Fatal(res[0].Err)
			}
		}
	}
	apply(before)
	tc := &sortLookupCase{tab: tab, ts: db.SnapshotTS(), desc: desc}
	apply(after)
	for i, o := range outer {
		if i%batchLen == 0 {
			tc.batches = append(tc.batches, &Batch{Stream: 1})
		}
		b := tc.batches[len(tc.batches)-1]
		b.Tuples = append(b.Tuples, Tuple{Row: types.Row{types.NewInt(int64(i)), o.key, o.s}, QS: o.qs})
	}
	for q, lim := range limits {
		tc.tasks = append(tc.tasks, Task{Query: queryset.QueryID(q + 1), Spec: SortSpec{Limit: lim}})
	}
	return tc
}

// queries is the set of the case's query ids.
func (tc *sortLookupCase) queries() queryset.Set {
	ids := make([]queryset.QueryID, len(tc.tasks))
	for i, tk := range tc.tasks {
		ids[i] = tk.Query
	}
	return queryset.Of(ids...)
}

// sortKeys orders by s (DESC when tc.desc), then o_id descending, so ties
// on s and arrival order disagree; col is s's column, id o_id's.
func (tc *sortLookupCase) sortKeys(col, id int) []SortKey {
	return []SortKey{{E: &expr.ColRef{Idx: col}, Desc: tc.desc}, {E: &expr.Arith{Op: expr.Mod, L: &expr.ColRef{Idx: id}, R: &expr.Const{Val: types.NewInt(3)}}, Desc: true}}
}

// lookupOp is the sort under test: outer rows in, join rows out.
func (tc *sortLookupCase) lookupOp() *SortOp {
	return &SortOp{
		Streams: map[int]SortStream{1: {Keys: tc.sortKeys(2, 0), OutStream: 3, Lookup: &IndexLookup{Table: tc.tab, Index: tc.tab.PrimaryKey()}}},
		Lookups: map[int]JoinOuter{1: lookupJoin},
	}
}

// regime is how a test finishes a sort cycle.
type regime int

const (
	bySelector regime = iota // Finish: the operator picks
	selection
	sharedSort
)

func (r regime) String() string { return [...]string{"selector", "selection", "shared sort"}[r] }

// finishAs ends a cycle in regime r. A forced regime runs on the buffer and
// releases it, so the harness's own Finish sees nothing.
func finishAs(op *SortOp, c *Cycle, r regime) {
	switch r {
	case selection:
		op.finishSelection(c)
	case sharedSort:
		op.finishSharedSort(c)
	default:
		return
	}
	op.release()
}

// collect runs one sort cycle through a harness and returns its emissions.
func collect(op *SortOp, tc *sortLookupCase, batches []*Batch, r regime) []emission {
	h := newAllocHarness(op, tc.queries())
	var got []emission
	h.onTuple = func(_ int, tp Tuple) {
		got = append(got, emission{tp.Row.String(), slices.Clone(tp.QS.IDs())})
	}
	h.cycle(tc.tasks, tc.ts, func(c *Cycle) {
		for _, b := range batches {
			op.Consume(c, b)
		}
		finishAs(op, c, r)
	})
	return got
}

// reference joins the outer batches with an index join, then sorts the join
// rows with a plain sort finished in regime r.
func (tc *sortLookupCase) reference(r regime) []emission {
	ij := &IndexJoinOp{Table: tc.tab, Index: tc.tab.PrimaryKey(), Outers: map[int]JoinOuter{1: lookupJoin}}
	h := newAllocHarness(ij, tc.queries())
	joined := &Batch{Stream: 3}
	h.onTuple = func(_ int, tp Tuple) {
		joined.Tuples = append(joined.Tuples, Tuple{Row: slices.Clone(tp.Row), QS: queryset.Of(tp.QS.IDs()...)})
	}
	h.cycle(tc.tasks, tc.ts, func(c *Cycle) {
		for _, b := range tc.batches {
			ij.Consume(c, b)
		}
	})
	srt := &SortOp{Streams: map[int]SortStream{3: {Keys: tc.sortKeys(1, 0), OutStream: 3}}}
	return collect(srt, tc, []*Batch{joined}, r)
}

// perQuery splits emissions into each query's rows, in order.
func perQuery(es []emission) map[queryset.QueryID][]string {
	out := map[queryset.QueryID][]string{}
	for _, e := range es {
		for _, q := range e.qs {
			out[q] = append(out[q], e.row)
		}
	}
	return out
}

// check runs the case in every regime against the reference and reports how
// the forced selection ended: served, or handed to the shared sort.
func (tc *sortLookupCase) check(t testing.TB) (fellBack bool) {
	t.Helper()
	for _, r := range []regime{bySelector, selection, sharedSort} {
		op := tc.lookupOp()
		got := collect(op, tc, tc.batches, r)
		ref := r
		if _, misses := op.LookupCycles(); r == selection && misses > 0 {
			ref, fellBack = sharedSort, true
		}
		want := tc.reference(ref)
		if r == bySelector {
			if g, w := perQuery(got), perQuery(want); !mapsEqual(g, w) {
				t.Fatalf("%s: per-query rows\n got %v\nwant %v", r, g, w)
			}
			continue
		}
		if !slices.EqualFunc(got, want, func(a, b emission) bool { return a.row == b.row && slices.Equal(a.qs, b.qs) }) {
			t.Fatalf("%s: emitted %d tuples, reference %d; first difference at %s\n got %v\nwant %v", r, len(got), len(want), firstDiff(got, want), got, want)
		}
	}
	return fellBack
}

func mapsEqual(a, b map[queryset.QueryID][]string) bool {
	if len(a) != len(b) {
		return false
	}
	for q, rows := range a {
		if !slices.Equal(rows, b[q]) {
			return false
		}
	}
	return true
}

// TestSortLookupMatchesJoinThenSort covers the miss paths by hand — a NULL
// key, a key that never existed, an inner row deleted before the snapshot
// and one updated and one inserted after it — with ties straddling a LIMIT,
// a LIMIT beyond the candidate count and tuples shared by several queries,
// then random cycles. Both forced-selection outcomes must occur.
func TestSortLookupMatchesJoinThenSort(t *testing.T) {
	before := []innerOp{{key: 1, name: "a"}, {key: 2, name: "b"}, {key: 3, name: "c"}, {key: 4, name: "d"}, {key: 3, del: true}}
	after := []innerOp{{key: 2, name: "b-later"}, {key: 5, name: "e-later"}, {key: 4, del: true}}
	i := types.NewInt
	q12, q123 := queryset.Of(1, 2), queryset.Of(1, 2, 3)
	outer := []outerTuple{
		{i(1), i(7), q123}, {types.Null, i(7), q12}, {i(2), i(5), q123}, {i(9), i(5), q12},
		{i(3), i(7), q12}, {i(4), i(5), q123}, {i(5), i(7), q123}, {i(1), i(5), queryset.Of(3)},
		{i(2), i(7), q123}, {i(4), i(6), queryset.Of(2)}, {i(1), types.Null, q12},
	}
	for _, desc := range []bool{false, true} {
		// LIMIT 2 cuts inside a tie, LIMIT 50 exceeds every query's candidates.
		newSortLookupCase(t, before, after, outer, []int{2, 3, 50}, desc, 4).check(t)
		// Every key hits: the selection regime serves the cycle itself.
		hits := []outerTuple{{i(1), i(3), q12}, {i(2), i(3), q123}, {i(4), i(1), q12}, {i(1), i(2), queryset.Of(3)}}
		if newSortLookupCase(t, before, after, hits, []int{1, 2, 9}, desc, 3).check(t) {
			t.Fatal("a cycle whose retained rows all join fell back to the shared sort")
		}
	}
	rng := rand.New(rand.NewSource(44))
	var fell, served int
	for trial := 0; trial < 300; trial++ {
		tc := randomSortLookupCase(t, rng)
		if tc.check(t) {
			fell++
		} else {
			served++
		}
	}
	if fell < 20 || served < 20 {
		t.Errorf("forced selection fell back %d times and served %d: the generator is one-sided", fell, served)
	}
}

// randomSortLookupCase draws a cycle: ~30 inner keys with deletes and
// later writes, outer keys past the inner domain, NULL keys and sort values,
// 1–6 queries with small limits. Every other cycle has no miss at all: every
// key inserted up front, later writes only updates, no NULL key.
func randomSortLookupCase(t testing.TB, rng *rand.Rand) *sortLookupCase {
	clean := rng.Intn(2) == 0
	ops := func(n int, del bool) []innerOp {
		out := make([]innerOp, n)
		for j := range out {
			out[j] = innerOp{key: rng.Int63n(36), name: fmt.Sprint("n", rng.Intn(1000)), del: del && rng.Intn(5) == 0}
		}
		return out
	}
	before := ops(25+rng.Intn(20), !clean)
	if clean {
		for k := int64(0); k < 36; k++ {
			before = append(before, innerOp{key: k, name: fmt.Sprint("k", k)})
		}
	}
	nq := 1 + rng.Intn(6)
	limits := make([]int, nq)
	for q := range limits {
		limits[q] = 1 + rng.Intn(12)
	}
	outer := make([]outerTuple, rng.Intn(120))
	for j := range outer {
		key, s := types.NewInt(rng.Int63n(40)), types.NewInt(rng.Int63n(8))
		if clean {
			key = types.NewInt(rng.Int63n(36))
		} else if rng.Intn(12) == 0 {
			key = types.Null
		}
		if rng.Intn(15) == 0 {
			s = types.Null
		}
		ids := []queryset.QueryID{queryset.QueryID(1 + rng.Intn(nq))}
		for rng.Intn(3) == 0 {
			ids = append(ids, queryset.QueryID(1+rng.Intn(nq)))
		}
		outer[j] = outerTuple{key, s, queryset.Of(ids...)}
	}
	return newSortLookupCase(t, before, ops(rng.Intn(10), !clean), outer, limits, rng.Intn(2) == 0, 1+rng.Intn(64))
}

// FuzzSortLookup drives fuzzed inner and outer tapes through the deferred
// join and holds it against join-then-sort in every regime. inner: a byte
// per write (key, insert/update or delete; the first half lands before the
// snapshot, the rest after). outer: three bytes per tuple (key or NULL, sort
// value or NULL, query mask). limits: one query per byte, at most 8.
func FuzzSortLookup(f *testing.F) {
	f.Add([]byte{1, 2, 3, 0x83, 4, 0x42, 5}, []byte{1, 1, 1, 0, 2, 3, 2, 2, 7, 9, 3, 5, 4, 1, 6}, []byte{1, 3}, false)
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7}, []byte{0, 0, 255, 8, 1, 1, 16, 2, 2, 3, 3, 3}, []byte{2, 0, 40}, true)
	f.Add([]byte{}, []byte{1, 2, 3}, []byte{0}, false)
	f.Fuzz(func(t *testing.T, inner, outer, limits []byte, desc bool) {
		if len(limits) == 0 || len(limits) > 8 || len(outer) > 3*256 || len(inner) > 256 {
			return
		}
		ops := make([]innerOp, len(inner))
		for j, b := range inner {
			ops[j] = innerOp{key: int64(b & 0x1f), name: fmt.Sprint("v", j), del: b&0xc0 == 0x80}
		}
		lims := make([]int, len(limits))
		for q, b := range limits {
			lims[q] = 1 + int(b%64)
		}
		var tuples []outerTuple
		for j := 0; j+3 <= len(outer); j += 3 {
			key, s := types.NewInt(int64(outer[j]%40)), types.NewInt(int64(outer[j+1]%6))
			if outer[j]%8 == 7 {
				key = types.Null
			}
			if outer[j+1]%16 == 15 {
				s = types.Null
			}
			var ids []queryset.QueryID
			for q := range lims {
				if outer[j+2]>>q&1 == 1 {
					ids = append(ids, queryset.QueryID(q+1))
				}
			}
			if len(ids) == 0 {
				ids = append(ids, queryset.QueryID(1+int(outer[j+2])%len(lims)))
			}
			tuples = append(tuples, outerTuple{key, s, queryset.Of(ids...)})
		}
		half := len(ops) / 2
		newSortLookupCase(t, ops[:half], ops[half:], tuples, lims, desc, 1+len(inner)%50).check(t)
	})
}

// TestSortLookupZeroAllocSteadyState pins a warmed deferred-join cycle at
// zero allocations in both regimes: buffering, selection or sort, the
// look-ups, the gathered join rows and emission.
func TestSortLookupZeroAllocSteadyState(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	var before []innerOp
	for k := int64(0); k < 64; k++ {
		before = append(before, innerOp{key: k, name: fmt.Sprint("n", k)})
	}
	const n, nq = 800, 16
	var all []queryset.QueryID
	for q := queryset.QueryID(1); q <= nq; q++ {
		all = append(all, q)
	}
	limits := make([]int, nq)
	for q := range limits {
		limits[q] = 5 + 10*(q%4)
	}
	for _, tc := range []struct {
		name string
		qs   func(i int) queryset.Set
		miss bool // a NULL key retained by the selection: the cycle falls back
		rows int
	}{
		{"selection", func(i int) queryset.Set { return queryset.Single(queryset.QueryID(1 + i%nq)) }, false, 4 * (5 + 15 + 25 + 35)},
		{"selection → shared sort", func(i int) queryset.Set { return queryset.Single(queryset.QueryID(1 + i%nq)) }, true, 4 * (5 + 15 + 25 + 35)},
		{"shared sort", func(int) queryset.Set { return queryset.Of(all...) }, false, 35},
	} {
		outer := make([]outerTuple, n)
		for i := range outer {
			outer[i] = outerTuple{types.NewInt(int64(i % 64)), types.NewInt(int64(i * 7919 % 101)), tc.qs(i)}
		}
		if tc.miss {
			outer[0].key = types.Null
			outer[0].s = types.NewInt(-1) // first in order: always retained
		}
		sc := newSortLookupCase(t, before, nil, outer, limits, false, batchSize)
		op := sc.lookupOp()
		h := newAllocHarness(op, sc.queries())
		allocs := h.steadyStateAllocs(sc.tasks, sc.ts, func(c *Cycle) {
			for _, b := range sc.batches {
				op.Consume(c, b)
			}
		})
		cycles, misses := op.LookupCycles()
		if h.rows != tc.rows || len(h.last) != 3 || (misses > 0) != tc.miss || cycles == 0 {
			t.Fatalf("%s: delivered %d tuples (last %v), %d cycles with %d fallbacks; want %d tuples of (o_id, s, d_name), fallbacks %v",
				tc.name, h.rows, h.last, cycles, misses, tc.rows, tc.miss)
		}
		if allocs != 0 {
			t.Errorf("%s: deferred-join sort cycle over %d tuples allocates %.0f, want 0", tc.name, n, allocs)
		}
	}
}
