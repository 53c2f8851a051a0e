package operators

import (
	"testing"

	"shareddb/internal/queryset"
	"shareddb/internal/testutil"
	"shareddb/internal/types"
)

// Allocation-regression gates for the zero-allocation hot path: the
// emitter's per-tuple routing and the batch pool's recycle loop must not
// allocate in steady state. CI runs these without -race (instrumentation
// changes allocation counts); the -race run skips them.

// emitHarness wires a producer node to a consumer and returns the warmed
// emitter plus a drain function that recycles flushed batches.
func emitHarness(t *testing.T, gen uint64, edgeSet queryset.Set) (*emitter, *BatchPool, func()) {
	t.Helper()
	pool := NewBatchPool()
	src := NewNode(0, "src", &FilterOp{})
	src.SetPool(pool)
	dst := NewNode(1, "dst", &FilterOp{})
	dst.SetPool(pool)
	Connect(src, dst)
	em := newEmitter(src, gen, []queryset.Set{edgeSet})
	drain := func() {
		for dst.Inbox().Len() > 0 {
			m, ok := dst.Inbox().Pop()
			if !ok {
				return
			}
			if m.Batch != nil {
				pool.Put(m.Batch)
			}
		}
	}
	return em, pool, drain
}

// TestEmitRoutingZeroAlloc pins ~0 allocations per routed tuple on the
// steady-state emitter path: intersection into the batch arena, pooled
// batch reuse, queue hand-off.
func TestEmitRoutingZeroAlloc(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	em, _, drain := emitHarness(t, 1, queryset.Of(1, 2, 3, 4))
	row := types.Row{types.NewInt(42), types.NewString("x")}
	qs := queryset.Of(1, 3, 4)

	// Warm up: grow the pool, the batch arenas and the inbox backing array
	// to steady-state capacity.
	for i := 0; i < 8*batchSize; i++ {
		em.emit(0, row, qs)
		drain()
	}

	const tuplesPerRun = 512
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < tuplesPerRun; i++ {
			em.emit(0, row, qs)
		}
		drain()
	})
	perTuple := allocs / tuplesPerRun
	if perTuple > 0.01 {
		t.Errorf("emitter.emit allocates %.4f/tuple (%.1f/run), want ~0", perTuple, allocs)
	}
}

// TestBatchPoolRecycles checks the free-list loop: a released batch comes
// back on the next Get with its buffers intact and its state reset.
func TestBatchPoolRecycles(t *testing.T) {
	pool := NewBatchPool()
	b := pool.Get(7)
	b.Tuples = append(b.Tuples, Tuple{Row: types.Row{types.NewInt(1)}, QS: b.arena.Append(queryset.Of(1))})
	b.retained = true
	pool.Put(b)
	b2 := pool.Get(3)
	if b2 != b {
		t.Fatal("pool did not recycle the released batch")
	}
	if b2.Stream != 3 || len(b2.Tuples) != 0 || b2.retained {
		t.Errorf("recycled batch not reset: stream=%d len=%d retained=%v", b2.Stream, len(b2.Tuples), b2.retained)
	}
	gets, reuses := pool.Stats()
	if gets != 2 || reuses != 1 {
		t.Errorf("stats = (%d, %d), want (2, 1)", gets, reuses)
	}
	// Foreign batches (not pool-born) are never pooled.
	pool.Put(&Batch{Stream: 1, Tuples: make([]Tuple, 1)})
	if g, _ := pool.Stats(); g != 2 {
		t.Errorf("foreign Put changed stats")
	}
	b3 := pool.Get(1)
	if len(b3.Tuples) != 0 {
		t.Error("foreign batch leaked into the pool")
	}
}

// TestBatchPoolZeroAllocSteadyState pins the Get/Put loop itself at zero
// allocations once warmed.
func TestBatchPoolZeroAllocSteadyState(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	pool := NewBatchPool()
	pool.Put(pool.Get(0))
	allocs := testing.AllocsPerRun(1000, func() {
		b := pool.Get(0)
		pool.Put(b)
	})
	if allocs != 0 {
		t.Errorf("pool Get/Put allocates %.2f/op, want 0", allocs)
	}
}

// TestJoinTableMatchesMapSemantics drives the open-addressed build table
// against a reference map build over coercion-prone keys.
func TestJoinTableMatchesMapSemantics(t *testing.T) {
	keyCols := []int{0}
	var jt joinTable
	jt.reset(keyCols)
	ref := map[string][]int{} // encoded key → tuple ordinals
	rows := []types.Row{
		{types.NewInt(1), types.NewString("a")},
		{types.NewInt(2), types.NewString("b")},
		{types.NewInt(1), types.NewString("c")},
		{types.NewFloat(2), types.NewString("d")}, // coerces equal to INT 2
		{types.NewInt(1), types.NewString("e")},
		{types.Null, types.NewString("n1")},
		{types.Null, types.NewString("n2")},
	}
	for i, r := range rows {
		jt.insert(hashKey(r[:1]), r[:1], Tuple{Row: r})
		// reference: group by coerced equality, arrival order
		var bucket string
		switch {
		case r[0].IsNull():
			bucket = "null"
		default:
			bucket = r[0].String() // "2" for both INT 2 and FLOAT 2
		}
		ref[bucket] = append(ref[bucket], i)
	}
	for bucket, wantOrds := range ref {
		probe := rows[wantOrds[0]][:1]
		var got []string
		bi := jt.lookup(hashKey(probe), probe)
		if bi < 0 {
			t.Fatalf("bucket %s: lookup found no bucket", bucket)
		}
		for ei := jt.buckets[bi].head; ei >= 0; ei = jt.entries[ei].next {
			got = append(got, jt.entries[ei].t.Row[1].Str)
		}
		if len(got) != len(wantOrds) {
			t.Fatalf("bucket %s: got %d matches %v, want %d", bucket, len(got), got, len(wantOrds))
		}
		for i, ord := range wantOrds {
			if got[i] != rows[ord][1].Str {
				t.Errorf("bucket %s match %d = %s, want %s (arrival order broken)", bucket, i, got[i], rows[ord][1].Str)
			}
		}
	}
	if absent := []types.Value{types.NewInt(99)}; jt.lookup(hashKey(absent), absent) != -1 {
		t.Error("lookup of absent key found a match")
	}
	// Reset drops everything but keeps capacity.
	jt.reset(keyCols)
	if jt.len() != 0 {
		t.Error("reset left entries behind")
	}
}

// TestGroupTableInsertLookup checks the group-by table's open addressing
// incl. hash collisions resolved by value comparison and insertion-order
// iteration.
func TestGroupTableInsertLookup(t *testing.T) {
	var gt groupTable
	gt.reset()
	keyCols := []int{0} // entries below have one-column keys; a key doubles as the probing row
	mk := func(vals ...types.Value) *groupEntry {
		h := uint64(0)
		for _, v := range vals {
			h = (h ^ v.Hash()) * 1099511628211
		}
		return &groupEntry{hash: h, keyVals: vals}
	}
	// Force collisions by giving every entry the same hash.
	entries := []*groupEntry{
		{hash: 42, keyVals: []types.Value{types.NewInt(1)}},
		{hash: 42, keyVals: []types.Value{types.NewInt(2)}},
		{hash: 42, keyVals: []types.Value{types.NewString("x")}},
	}
	for _, ge := range entries {
		if gt.lookup(ge.hash, ge.keyVals, keyCols) != nil {
			t.Fatal("phantom entry before insert")
		}
		gt.insert(ge)
	}
	for i, ge := range entries {
		got := gt.lookup(ge.hash, ge.keyVals, keyCols)
		if got != ge {
			t.Errorf("lookup entry %d = %v, want %v", i, got, ge)
		}
	}
	// Insertion order is preserved across growth.
	for i := 0; i < 100; i++ {
		ge := mk(types.NewInt(int64(100 + i)))
		gt.insert(ge)
	}
	if len(gt.entries) != 103 {
		t.Fatalf("entries = %d, want 103", len(gt.entries))
	}
	for i, ge := range entries {
		if gt.entries[i] != ge {
			t.Errorf("insertion order broken at %d", i)
		}
	}
}

// TestSyncedQueueReusesBacking pins that the steady produce/consume cycle
// does not reallocate the queue's backing array.
func TestSyncedQueueReusesBacking(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	q := NewSyncedQueue()
	// Warm the backing array.
	for i := 0; i < 64; i++ {
		q.Push(Message{Gen: uint64(i)})
	}
	for q.Len() > 0 {
		q.Pop()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 16; i++ {
			q.Push(Message{Gen: uint64(i)})
		}
		for q.Len() > 0 {
			q.Pop()
		}
	})
	if allocs != 0 {
		t.Errorf("queue push/pop allocates %.2f/run, want 0", allocs)
	}
}
