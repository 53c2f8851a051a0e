package storage

import (
	"fmt"
	"math/rand"
	"testing"

	"shareddb/internal/expr"
	"shareddb/internal/queryset"
	"shareddb/internal/testutil"
	"shareddb/internal/types"
)

// Differential correctness sweep for the columnar shared scan: for random
// schemas, evolving row sets (interleaved inserts, updates and deletes) and
// predicate batches drawn from every client class — equality, range,
// residual-conjunct, LIKE and rest — SharedScan must reproduce
// per-query evaluation (sharedScanNaive at the same snapshot) exactly: same
// RowID order, same row objects, same per-row query sets. The mirror's whole maintenance surface is in the
// loop: incremental delta application between snapshots, compaction (forced
// by lowered thresholds), rebuild fallbacks, and typed-vector demotion via
// cross-kind updates.

// lowerColThresholds shrinks the columnar maintenance knobs so test-sized
// fixtures exercise many chunks, compaction and the rebuild backlog path.
func lowerColThresholds(t *testing.T) {
	t.Helper()
	oldChunk, oldCompact, oldRebuild := colChunkRows, colCompactMinRows, colRebuildMinPending
	colChunkRows = 64 // must stay a multiple of 64
	colCompactMinRows = 8
	colRebuildMinPending = 16
	t.Cleanup(func() {
		colChunkRows, colCompactMinRows, colRebuildMinPending = oldChunk, oldCompact, oldRebuild
	})
}

// fuzzPredColumnar draws from fuzzPred's predicate classes plus LIKE
// shapes (exact/prefix/suffix/contains/general, half negated) when a string
// column exists — the columnar rest-class fast path.
func fuzzPredColumnar(r *rand.Rand, kinds []types.Kind) expr.Expr {
	if r.Intn(4) == 0 {
		var strCols []int
		for i, k := range kinds {
			if k == types.KindString {
				strCols = append(strCols, i)
			}
		}
		if len(strCols) > 0 {
			c := strCols[r.Intn(len(strCols))]
			letter := string(rune('a' + r.Intn(5)))
			patterns := []string{letter, letter + "%", "%" + letter, "%" + letter + "%", letter + "_%", "%"}
			return &expr.Like{
				L:       &expr.ColRef{Idx: c},
				Pattern: &expr.Const{Val: types.NewString(patterns[r.Intn(len(patterns))])},
				Negate:  r.Intn(2) == 0,
			}
		}
	}
	return fuzzPred(r, kinds)
}

// colEmission captures one emit callback with row identity: the scan and
// the oracle hand out the very same types.Row objects (the version chain's),
// so the backing-array pointer must match, not just the values.
type colEmission struct {
	rid RowID
	qs  string
	rp  *types.Value
}

func collectColumnar(tab *Table, ts uint64, clients []ScanClient, bufs *ColScanBuffers) []colEmission {
	var out []colEmission
	tab.SharedScan(ts, clients, bufs, func(rid RowID, row types.Row, qs queryset.Set) {
		out = append(out, colEmission{rid: rid, qs: qs.String(), rp: &row[0]})
	})
	return out
}

func collectNaive(tab *Table, ts uint64, clients []ScanClient) []colEmission {
	var out []colEmission
	sharedScanNaive(tab, ts, clients, func(rid RowID, row types.Row, qs queryset.Set) {
		out = append(out, colEmission{rid: rid, qs: qs.String(), rp: &row[0]})
	})
	return out
}

func TestColumnarScanDifferentialFuzz(t *testing.T) {
	lowerColThresholds(t)
	r := rand.New(rand.NewSource(20120807))
	kindPool := []types.Kind{types.KindInt, types.KindFloat, types.KindString}
	var totalCompactions, totalIncSyncs, totalRebuilds uint64
	for trial := 0; trial < 60; trial++ {
		ncols := 1 + r.Intn(4)
		kinds := make([]types.Kind, ncols)
		cols := make([]types.Column, ncols)
		for i := range cols {
			kinds[i] = kindPool[r.Intn(len(kindPool))]
			cols[i] = types.Column{Qualifier: "t", Name: fmt.Sprintf("c%d", i), Kind: kinds[i]}
		}
		db, err := Open(Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.CreateTable("t", types.NewSchema(cols...)); err != nil {
			t.Fatal(err)
		}
		tab := db.Table("t")
		mkRow := func() types.Row {
			row := make(types.Row, ncols)
			for c := range row {
				row[c] = fuzzValue(r, kinds[c], true)
			}
			return row
		}
		nrows := r.Intn(260)
		ops := make([]WriteOp, nrows)
		for i := range ops {
			ops[i] = WriteOp{Table: "t", Kind: WInsert, Row: mkRow()}
		}
		db.ApplyOps(ops)

		bufs := &ColScanBuffers{} // reused across sweeps: steady-state reuse path
		for sweep := 0; sweep < 4; sweep++ {
			ts := db.SnapshotTS()
			nq := 1 + r.Intn(30)
			clients := make([]ScanClient, nq)
			for i := range clients {
				clients[i] = ScanClient{ID: queryset.QueryID(i + 1), Pred: fuzzPredColumnar(r, kinds)}
			}
			want := collectNaive(tab, ts, clients)
			got := collectColumnar(tab, ts, clients, bufs)
			if len(got) != len(want) {
				t.Fatalf("trial %d sweep %d: %d emissions, oracle %d",
					trial, sweep, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d sweep %d emission %d: columnar {rid %d, qs %s}, oracle {rid %d, qs %s} (row identity match: %v)",
						trial, sweep, i, got[i].rid, got[i].qs, want[i].rid, want[i].qs, got[i].rp == want[i].rp)
				}
			}

			// Interleave a delta before the next sweep: inserts, predicate-
			// targeted updates and deletes. Cross-kind SET values (1 in 8)
			// force typed-vector demotion mid-life.
			nmut := 1 + r.Intn(25)
			mops := make([]WriteOp, 0, nmut)
			for i := 0; i < nmut; i++ {
				switch r.Intn(3) {
				case 0:
					mops = append(mops, WriteOp{Table: "t", Kind: WInsert, Row: mkRow()})
				case 1:
					pc, sc := r.Intn(ncols), r.Intn(ncols)
					setKind := kinds[sc]
					if r.Intn(8) == 0 {
						setKind = kindPool[r.Intn(len(kindPool))]
					}
					mops = append(mops, WriteOp{Table: "t", Kind: WUpdate,
						Pred: &expr.Cmp{Op: expr.EQ, L: &expr.ColRef{Idx: pc}, R: &expr.Const{Val: fuzzConst(r, kinds[pc])}},
						Set:  []ColSet{{Col: sc, Val: &expr.Const{Val: fuzzValue(r, setKind, true)}}}})
				default:
					pc := r.Intn(ncols)
					mops = append(mops, WriteOp{Table: "t", Kind: WDelete,
						Pred: &expr.Cmp{Op: expr.EQ, L: &expr.ColRef{Idx: pc}, R: &expr.Const{Val: fuzzConst(r, kinds[pc])}}})
				}
			}
			db.ApplyOps(mops)
		}
		st := tab.columnarStats()
		totalCompactions += st.compactions
		totalIncSyncs += st.incSyncs
		totalRebuilds += st.rebuilds
		db.Close()
	}
	// The sweep must have exercised the whole maintenance surface, or the
	// differential proves less than it claims.
	if totalRebuilds == 0 || totalIncSyncs == 0 || totalCompactions == 0 {
		t.Fatalf("maintenance paths not covered: rebuilds=%d incSyncs=%d compactions=%d",
			totalRebuilds, totalIncSyncs, totalCompactions)
	}
}

// TestColumnarMirrorMaintenance pins the maintenance triggers one by one:
// first pin rebuilds, forward pins apply the delta incrementally, crossing
// the dead-fraction threshold compacts, and a pin at an older snapshot (or
// past the drained frontier) falls back to a rebuild — with every state
// checked against the oracle.
func TestColumnarMirrorMaintenance(t *testing.T) {
	lowerColThresholds(t)
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	cols := []types.Column{
		{Qualifier: "t", Name: "id", Kind: types.KindInt},
		{Qualifier: "t", Name: "name", Kind: types.KindString},
	}
	if _, err := db.CreateTable("t", types.NewSchema(cols...)); err != nil {
		t.Fatal(err)
	}
	tab := db.Table("t")
	insert := func(lo, hi int64) {
		var ops []WriteOp
		for i := lo; i < hi; i++ {
			ops = append(ops, WriteOp{Table: "t", Kind: WInsert,
				Row: types.Row{types.NewInt(i), types.NewString(fmt.Sprintf("n%03d", i))}})
		}
		db.ApplyOps(ops)
	}
	clients := []ScanClient{
		{ID: 1, Pred: &expr.Cmp{Op: expr.GE, L: &expr.ColRef{Idx: 0}, R: &expr.Const{Val: types.NewInt(0)}}},
		{ID: 2, Pred: &expr.Like{L: &expr.ColRef{Idx: 1}, Pattern: &expr.Const{Val: types.NewString("n0%")}}},
	}
	verify := func(label string, ts uint64) {
		t.Helper()
		want := collectNaive(tab, ts, clients)
		got := collectColumnar(tab, ts, clients, &ColScanBuffers{})
		if len(got) != len(want) {
			t.Fatalf("%s: %d emissions, oracle %d", label, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s emission %d: columnar {rid %d, qs %s}, oracle {rid %d, qs %s}",
					label, i, got[i].rid, got[i].qs, want[i].rid, want[i].qs)
			}
		}
	}

	insert(0, 40)
	ts1 := db.SnapshotTS()
	verify("initial build", ts1)
	st := tab.columnarStats()
	if st.rebuilds != 1 || st.rows != 40 {
		t.Fatalf("after first pin: stats %+v, want 1 rebuild over 40 rows", st)
	}

	// Forward delta: a handful of updates and deletes must apply in place.
	db.ApplyOps([]WriteOp{
		{Table: "t", Kind: WUpdate,
			Pred: &expr.Cmp{Op: expr.EQ, L: &expr.ColRef{Idx: 0}, R: &expr.Const{Val: types.NewInt(3)}},
			Set:  []ColSet{{Col: 1, Val: &expr.Const{Val: types.NewString("patched")}}}},
		{Table: "t", Kind: WDelete,
			Pred: &expr.Cmp{Op: expr.EQ, L: &expr.ColRef{Idx: 0}, R: &expr.Const{Val: types.NewInt(7)}}},
	})
	ts2 := db.SnapshotTS()
	verify("incremental delta", ts2)
	st = tab.columnarStats()
	if st.rebuilds != 1 || st.incSyncs == 0 {
		t.Fatalf("after forward pin: stats %+v, want incremental sync without new rebuild", st)
	}
	if st.dead != 1 {
		t.Fatalf("after one delete: dead = %d, want 1", st.dead)
	}

	// Kill most rows: the dead fraction crosses 1/2 and compaction rewrites
	// the vectors (rows >= lowered colCompactMinRows).
	db.ApplyOps([]WriteOp{{Table: "t", Kind: WDelete,
		Pred: &expr.Cmp{Op: expr.LT, L: &expr.ColRef{Idx: 0}, R: &expr.Const{Val: types.NewInt(30)}}}})
	ts3 := db.SnapshotTS()
	verify("post-compaction", ts3)
	st = tab.columnarStats()
	if st.compactions == 0 {
		t.Fatalf("after mass delete: stats %+v, want a compaction", st)
	}
	if st.dead != 0 || st.rows != 10 {
		t.Fatalf("after compaction: rows=%d dead=%d, want 10 live rows, 0 dead", st.rows, st.dead)
	}

	// Pinning an older snapshot is a chain mismatch: rebuild, and the next
	// forward pin must rebuild too (its delta records were already drained).
	verify("backward pin", ts1)
	st = tab.columnarStats()
	if st.rebuilds < 2 {
		t.Fatalf("after backward pin: stats %+v, want a rebuild fallback", st)
	}
	verify("forward after backward", ts3)
	verify("forward after backward again", ts3)

	// A pending backlog larger than both the mirror and the threshold takes
	// the rebuild-instead-of-apply path.
	insert(1000, 1100)
	ts4 := db.SnapshotTS()
	before := tab.columnarStats().rebuilds
	verify("backlog rebuild", ts4)
	if after := tab.columnarStats().rebuilds; after != before+1 {
		t.Fatalf("backlog of 100 over 10 mirrored rows: rebuilds %d -> %d, want a rebuild", before, after)
	}
}

// TestColumnarMirrorAttachedBehindStorage pins the first-attach case of a
// pipelined engine: the first scan of a table runs at a snapshot storage has
// already moved past, so the writes in between were never logged as pending.
// The mirror must not treat its first build as the drained frontier — the
// next forward pin has to rebuild, or it serves the older snapshot's rows.
func TestColumnarMirrorAttachedBehindStorage(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.CreateTable("t", types.NewSchema(
		types.Column{Qualifier: "t", Name: "id", Kind: types.KindInt},
		types.Column{Qualifier: "t", Name: "v", Kind: types.KindInt},
	)); err != nil {
		t.Fatal(err)
	}
	tab := db.Table("t")
	insert := func(lo, hi int64) {
		var ops []WriteOp
		for i := lo; i < hi; i++ {
			ops = append(ops, WriteOp{Table: "t", Kind: WInsert, Row: types.Row{types.NewInt(i), types.NewInt(0)}})
		}
		db.ApplyOps(ops)
	}
	idEq := func(id int64) expr.Expr {
		return &expr.Cmp{Op: expr.EQ, L: &expr.ColRef{Idx: 0}, R: &expr.Const{Val: types.NewInt(id)}}
	}
	clients := []ScanClient{{ID: 1, Pred: nil}, {ID: 2, Pred: &expr.Cmp{Op: expr.GT, L: &expr.ColRef{Idx: 1}, R: &expr.Const{Val: types.NewInt(0)}}}}
	verify := func(label string, ts uint64) {
		t.Helper()
		want := collectNaive(tab, ts, clients)
		got := collectColumnar(tab, ts, clients, &ColScanBuffers{})
		if len(got) != len(want) {
			t.Fatalf("%s: %d emissions, oracle %d", label, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s emission %d: columnar {rid %d, qs %s}, oracle {rid %d, qs %s}",
					label, i, got[i].rid, got[i].qs, want[i].rid, want[i].qs)
			}
		}
	}

	insert(0, 20)
	ts1 := db.PinCurrentSnapshot()
	defer db.UnpinSnapshot(ts1)
	// Storage moves on before anything has scanned the table.
	insert(20, 30)
	db.ApplyOps([]WriteOp{
		{Table: "t", Kind: WUpdate, Pred: idEq(3), Set: []ColSet{{Col: 1, Val: &expr.Const{Val: types.NewInt(9)}}}},
		{Table: "t", Kind: WDelete, Pred: idEq(7)},
	})
	ts2 := db.SnapshotTS()

	verify("first scan, behind storage", ts1)
	verify("forward pin over unlogged writes", ts2)
	// From here the log is complete: forward pins apply incrementally.
	before := tab.columnarStats()
	insert(30, 35)
	verify("forward pin over logged writes", db.SnapshotTS())
	if after := tab.columnarStats(); after.rebuilds != before.rebuilds || after.incSyncs == before.incSyncs {
		t.Fatalf("after the frontier caught up: stats %+v → %+v, want an incremental sync and no rebuild", before, after)
	}
}

// TestColumnarScanWorkersMatrix runs one 500-row fixture (64-row chunks, so
// eight chunks, the last one partial) against the oracle across the
// mirror's maintenance paths: the first pin's rebuild, an incremental sync
// of updates and deletes, a compaction after a mass delete, and the rebuild
// a backward pin falls back to. (The scan once ran at a ladder of worker
// counts; it is one serial pass now and the name is kept.)
func TestColumnarScanWorkersMatrix(t *testing.T) {
	lowerColThresholds(t)
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	cols := []types.Column{
		{Qualifier: "t", Name: "id", Kind: types.KindInt},
		{Qualifier: "t", Name: "grp", Kind: types.KindString},
	}
	if _, err := db.CreateTable("t", types.NewSchema(cols...)); err != nil {
		t.Fatal(err)
	}
	tab := db.Table("t")
	var ops []WriteOp
	for i := int64(0); i < 500; i++ {
		ops = append(ops, WriteOp{Table: "t", Kind: WInsert,
			Row: types.Row{types.NewInt(i % 97), types.NewString(string(rune('a' + i%7)))}})
	}
	db.ApplyOps(ops)
	idCmp := func(op expr.CmpOp, v int64) expr.Expr {
		return &expr.Cmp{Op: op, L: &expr.ColRef{Idx: 0}, R: &expr.Const{Val: types.NewInt(v)}}
	}
	clients := []ScanClient{
		{ID: 1, Pred: idCmp(expr.EQ, 13)},
		{ID: 2, Pred: idCmp(expr.LT, 40)},
		{ID: 3, Pred: &expr.Like{L: &expr.ColRef{Idx: 1}, Pattern: &expr.Const{Val: types.NewString("c%")}}},
		{ID: 4, Pred: nil},
	}
	bufs := &ColScanBuffers{} // reused across cycles, as a scan node reuses it
	verify := func(label string, ts uint64) {
		t.Helper()
		want := collectNaive(tab, ts, clients)
		got := collectColumnar(tab, ts, clients, bufs)
		if len(got) != len(want) {
			t.Fatalf("%s: %d emissions, want %d", label, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s emission %d: got {rid %d, qs %s}, want {rid %d, qs %s}",
					label, i, got[i].rid, got[i].qs, want[i].rid, want[i].qs)
			}
		}
	}

	ts1 := db.SnapshotTS()
	verify("first pin", ts1)
	if st := tab.columnarStats(); st.rebuilds != 1 || st.rows != 500 {
		t.Fatalf("after first pin: stats %+v, want 1 rebuild over 500 rows", st)
	}

	db.ApplyOps([]WriteOp{
		{Table: "t", Kind: WUpdate, Pred: idCmp(expr.EQ, 13),
			Set: []ColSet{{Col: 1, Val: &expr.Const{Val: types.NewString("cz")}}}},
		{Table: "t", Kind: WDelete, Pred: idCmp(expr.EQ, 20)},
	})
	verify("incremental sync", db.SnapshotTS())
	if st := tab.columnarStats(); st.rebuilds != 1 || st.incSyncs == 0 {
		t.Fatalf("after forward pin: stats %+v, want an incremental sync and no rebuild", st)
	}

	db.ApplyOps([]WriteOp{{Table: "t", Kind: WDelete, Pred: idCmp(expr.LT, 80)}})
	verify("compaction", db.SnapshotTS())
	if st := tab.columnarStats(); st.compactions == 0 || st.dead != 0 {
		t.Fatalf("after mass delete: stats %+v, want a compaction leaving no dead rows", st)
	}

	verify("backward pin", ts1)
	if st := tab.columnarStats(); st.rebuilds < 2 {
		t.Fatalf("after backward pin: stats %+v, want a rebuild fallback", st)
	}
}

// TestColumnarScanZeroAllocSteadyState is the alloc gate for the columnar
// chunk loop: once the mirror and the scan buffers are warm, re-running the
// same cycle allocates nothing per chunk — the measured allocation count
// must not grow when the table (and with it the chunk count) does.
func TestColumnarScanZeroAllocSteadyState(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	lowerColThresholds(t)
	build := func(nrows int64) (*Table, uint64, []ScanClient, *ColScanBuffers) {
		db, err := Open(Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		cols := []types.Column{
			{Qualifier: "t", Name: "id", Kind: types.KindInt},
			{Qualifier: "t", Name: "price", Kind: types.KindFloat},
			{Qualifier: "t", Name: "title", Kind: types.KindString},
		}
		if _, err := db.CreateTable("t", types.NewSchema(cols...)); err != nil {
			t.Fatal(err)
		}
		ops := make([]WriteOp, nrows)
		for i := range ops {
			ops[i] = WriteOp{Table: "t", Kind: WInsert, Row: types.Row{
				types.NewInt(int64(i) % 101),
				types.NewFloat(float64(i%89) / 2),
				types.NewString(fmt.Sprintf("Title %02d", i%13)),
			}}
		}
		db.ApplyOps(ops)
		tab := db.Table("t")
		ts := db.SnapshotTS()
		clients := []ScanClient{
			{ID: 1, Pred: &expr.Cmp{Op: expr.EQ, L: &expr.ColRef{Idx: 0}, R: &expr.Const{Val: types.NewInt(42)}}},
			{ID: 2, Pred: &expr.Cmp{Op: expr.GT, L: &expr.ColRef{Idx: 1}, R: &expr.Const{Val: types.NewFloat(30)}}},
			{ID: 3, Pred: &expr.Like{L: &expr.ColRef{Idx: 2}, Pattern: &expr.Const{Val: types.NewString("Title 0%")}}},
		}
		bufs := &ColScanBuffers{}
		sink := func(RowID, types.Row, queryset.Set) {}
		tab.SharedScan(ts, clients, bufs, sink) // warm mirror + buffers
		tab.SharedScan(ts, clients, bufs, sink)
		return tab, ts, clients, bufs
	}
	measure := func(nrows int64) float64 {
		tab, ts, clients, bufs := build(nrows)
		sink := func(RowID, types.Row, queryset.Set) {}
		return testing.AllocsPerRun(20, func() {
			tab.SharedScan(ts, clients, bufs, sink)
		})
	}
	small := measure(4 * int64(colChunkRows))  // 4 chunks
	large := measure(24 * int64(colChunkRows)) // 24 chunks
	if large > small {
		t.Fatalf("allocs grow with chunk count: %.1f at 4 chunks, %.1f at 24 chunks (want flat — ~0 allocs per chunk)", small, large)
	}
	// The per-cycle fixed cost (index build residuals etc.) stays tiny.
	if large > 16 {
		t.Fatalf("steady-state columnar cycle allocates %.1f times (want <= 16)", large)
	}
}
