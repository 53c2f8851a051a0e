package storage

import (
	"testing"

	"shareddb/internal/expr"
	"shareddb/internal/queryset"
	"shareddb/internal/types"
)

// emission is one SharedScan callback invocation, captured for exact
// (order-sensitive) comparison between the serial and partitioned scans.
type emission struct {
	rid RowID
	qs  string
}

// forceParallelScan disables the adaptive tiny-table clamp so the parallel
// scan machinery is exercised even on test-sized tables.
func forceParallelScan(t *testing.T) {
	t.Helper()
	old := minParallelScanRows
	minParallelScanRows = 0
	t.Cleanup(func() { minParallelScanRows = old })
}

// collectScan runs one shared scan cycle at the given worker count (0 = the
// sharedScanNaive oracle).
func collectScan(tab *Table, ts uint64, clients []ScanClient, workers int) []emission {
	var out []emission
	emit := func(rid RowID, _ types.Row, qs queryset.Set) {
		out = append(out, emission{rid: rid, qs: qs.String()})
	}
	if workers == 0 {
		sharedScanNaive(tab, ts, clients, emit)
	} else {
		tab.SharedScanColumnar(ts, clients, workers, &ColScanBuffers{}, emit)
	}
	return out
}

// The partitioned ClockScan must emit exactly the oracle's rows, in the same
// RowID order, with the same per-row query sets at every worker count — the
// parallelism contract of the worker-pool layer. Chunks are lowered to 64
// rows so the partitions are real.
func TestSharedScanPartitionedMatchesSerialExactly(t *testing.T) {
	forceParallelScan(t)
	lowerColThresholds(t)
	db, tab := seedUsers(t, 157) // deliberately not a multiple of any worker count
	ts := db.SnapshotTS()
	clients := []ScanClient{
		{ID: 1, Pred: eqPred(tab, "country", types.NewString("CH"))},
		{ID: 2, Pred: &expr.Cmp{Op: expr.GT, L: colRef(tab, "account"), R: &expr.Const{Val: types.NewInt(400)}}},
		{ID: 3, Pred: nil}, // full table
		{ID: 4, Pred: &expr.And{Kids: []expr.Expr{
			eqPred(tab, "country", types.NewString("DE")),
			&expr.Cmp{Op: expr.LT, L: colRef(tab, "account"), R: &expr.Const{Val: types.NewInt(900)}},
		}}},
	}
	want := collectScan(tab, ts, clients, 0)
	if len(want) != 157 { // Q3 subscribes to every row
		t.Fatalf("oracle emitted %d rows, want 157", len(want))
	}
	for _, workers := range []int{1, 2, 3, 4, 8, 157, 200} {
		got := collectScan(tab, ts, clients, workers)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: emitted %d rows, want %d", workers, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: emission %d = %+v, want %+v", workers, i, got[i], want[i])
			}
		}
	}
}

func TestSharedScanPartitionedEdgeCases(t *testing.T) {
	forceParallelScan(t)
	lowerColThresholds(t)
	db, tab := newUserDB(t)
	ts := db.SnapshotTS()
	all := []ScanClient{{ID: 1, Pred: nil}}

	// empty table
	if got := collectScan(tab, ts, all, 4); len(got) != 0 {
		t.Errorf("empty table emitted %v", got)
	}
	// no clients
	tab.SharedScanColumnar(ts, nil, 4, &ColScanBuffers{}, func(RowID, types.Row, queryset.Set) {
		t.Error("emit called with no clients")
	})

	// fewer rows than workers
	insertUsers(t, db, user(1, "a", "CH", 10), user(2, "b", "DE", 20))
	ts = db.SnapshotTS()
	got := collectScan(tab, ts, all, 16)
	if len(got) != 2 || got[0].rid != 0 || got[1].rid != 1 {
		t.Errorf("tiny table scan = %+v", got)
	}
}

// The partitioned scan must respect MVCC visibility exactly like the oracle:
// updated and deleted rows resolve to the version visible at the pinned
// snapshot even when newer versions exist, and the mirror pinned forward and
// back between the two snapshots serves each one.
func TestSharedScanPartitionedVisibility(t *testing.T) {
	forceParallelScan(t)
	lowerColThresholds(t)
	db, tab := seedUsers(t, 160)
	tsOld := db.SnapshotTS()
	db.ApplyOps([]WriteOp{
		{Table: "users", Kind: WUpdate, Pred: eqPred(tab, "id", types.NewInt(10)),
			Set: []ColSet{{Col: 2, Val: &expr.Const{Val: types.NewString("ZZ")}}}},
		{Table: "users", Kind: WDelete, Pred: eqPred(tab, "id", types.NewInt(20))},
	})
	tsNew := db.SnapshotTS()

	for _, tc := range []struct {
		ts   uint64
		name string
	}{{tsOld, "old"}, {tsNew, "new"}} {
		clients := []ScanClient{{ID: 1, Pred: nil}}
		want := collectScan(tab, tc.ts, clients, 0)
		for _, workers := range []int{1, 4} {
			got := collectScan(tab, tc.ts, clients, workers)
			if len(got) != len(want) {
				t.Fatalf("%s snapshot workers=%d: %d rows, oracle %d", tc.name, workers, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s snapshot workers=%d: emission %d differs: %+v vs oracle %+v", tc.name, workers, i, got[i], want[i])
				}
			}
		}
	}
}
