package storage

import (
	"fmt"
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

func collectScan(tab *Table, ts uint64, clients []ScanClient, workers int) []emission {
	var out []emission
	emit := func(rid RowID, _ types.Row, qs queryset.Set) {
		out = append(out, emission{rid: rid, qs: qs.String()})
	}
	if workers == 0 {
		tab.SharedScanPooled(ts, clients, 1, nil, emit)
	} else {
		tab.SharedScanPooled(ts, clients, workers, nil, emit)
	}
	return out
}

// The partitioned ClockScan must emit exactly the serial scan's rows, in the
// same RowID order, with the same per-row query sets — the parallelism
// contract of the worker-pool layer.
func TestSharedScanPartitionedMatchesSerialExactly(t *testing.T) {
	forceParallelScan(t)
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
	serial := collectScan(tab, ts, clients, 0)
	if len(serial) != 157 { // Q3 subscribes to every row
		t.Fatalf("serial emitted %d rows, want 157", len(serial))
	}
	for _, workers := range []int{1, 2, 3, 4, 8, 157, 200} {
		got := collectScan(tab, ts, clients, workers)
		if len(got) != len(serial) {
			t.Fatalf("workers=%d: emitted %d rows, want %d", workers, len(got), len(serial))
		}
		for i := range got {
			if got[i] != serial[i] {
				t.Fatalf("workers=%d: emission %d = %+v, want %+v", workers, i, got[i], serial[i])
			}
		}
	}
}

func TestSharedScanPartitionedEdgeCases(t *testing.T) {
	forceParallelScan(t)
	db, tab := newUserDB(t)
	ts := db.SnapshotTS()
	all := []ScanClient{{ID: 1, Pred: nil}}

	// empty table
	if got := collectScan(tab, ts, all, 4); len(got) != 0 {
		t.Errorf("empty table emitted %v", got)
	}
	// no clients
	tab.SharedScanPooled(ts, nil, 4, nil, func(RowID, types.Row, queryset.Set) {
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

// The partitioned scan must respect MVCC visibility exactly like the serial
// scan: updated and deleted rows resolve to the version visible at the
// pinned snapshot even when newer versions exist.
func TestSharedScanPartitionedVisibility(t *testing.T) {
	forceParallelScan(t)
	db, tab := seedUsers(t, 60)
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
		serial := collectScan(tab, tc.ts, clients, 0)
		parallel := collectScan(tab, tc.ts, clients, 4)
		if len(serial) != len(parallel) {
			t.Fatalf("%s snapshot: %d serial vs %d parallel rows", tc.name, len(serial), len(parallel))
		}
		for i := range serial {
			if serial[i] != parallel[i] {
				t.Fatalf("%s snapshot: emission %d differs: %+v vs %+v", tc.name, i, serial[i], parallel[i])
			}
		}
	}
}

// BenchmarkSharedScanPartitioned measures the partition-parallel ClockScan
// at several worker counts (the acceptance microbenchmark: ≥1.5× at 4
// workers on a multi-core host; on a single-core host all settings collapse
// to roughly serial throughput).
func BenchmarkSharedScanPartitioned(b *testing.B) {
	db, err := Open(Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	tab, _ := db.CreateTable("users", usersSchema())
	tab.SetPrimaryKey("id")
	var ops []WriteOp
	for i := int64(0); i < 20000; i++ {
		ops = append(ops, WriteOp{Table: "users", Kind: WInsert,
			Row: user(i, fmt.Sprintf("u%d", i), fmt.Sprintf("C%d", i%50), i%1000)})
	}
	db.ApplyOps(ops)
	ts := db.SnapshotTS()
	// A Fig-10-shaped batch: equality clients, range clients, and residual-
	// conjunct clients, so per-row match work (the part that parallelizes)
	// resembles a real generation rather than a single hash probe.
	clients := make([]ScanClient, 256)
	for i := range clients {
		id := queryset.QueryID(i + 1)
		switch i % 4 {
		case 0, 1:
			clients[i] = ScanClient{ID: id,
				Pred: eqPred(tab, "country", types.NewString(fmt.Sprintf("C%d", i%50)))}
		case 2:
			lo := int64(i % 900)
			clients[i] = ScanClient{ID: id, Pred: &expr.And{Kids: []expr.Expr{
				&expr.Cmp{Op: expr.GE, L: colRef(tab, "account"), R: &expr.Const{Val: types.NewInt(lo)}},
				&expr.Cmp{Op: expr.LT, L: colRef(tab, "account"), R: &expr.Const{Val: types.NewInt(lo + 50)}},
			}}}
		default:
			clients[i] = ScanClient{ID: id, Pred: &expr.And{Kids: []expr.Expr{
				eqPred(tab, "country", types.NewString(fmt.Sprintf("C%d", i%50))),
				&expr.Cmp{Op: expr.GT, L: colRef(tab, "account"), R: &expr.Const{Val: types.NewInt(int64(i))}},
			}}}
		}
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tab.SharedScanPooled(ts, clients, workers, nil, func(RowID, types.Row, queryset.Set) {})
			}
		})
	}
}
