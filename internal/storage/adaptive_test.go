package storage

import (
	"testing"

	"shareddb/internal/par"
	"shareddb/internal/queryset"
	"shareddb/internal/types"
)

// The scan clamp: a scan cycle over a tiny table must not fork worker
// goroutines, whatever the configured budget.
func TestTinyTableScanSpawnsNoWorkers(t *testing.T) {
	db, tab := seedUsers(t, 10)
	ts := db.SnapshotTS()
	clients := []ScanClient{
		{ID: 1, Pred: nil},
		{ID: 2, Pred: eqPred(tab, "country", types.NewString("CH"))},
	}
	for _, scan := range []struct {
		name string
		run  func(workers int, emit func(RowID, types.Row, queryset.Set))
	}{
		{"partitioned", func(w int, emit func(RowID, types.Row, queryset.Set)) {
			tab.SharedScanPooled(ts, clients, w, nil, emit)
		}},
		{"pooled", func(w int, emit func(RowID, types.Row, queryset.Set)) {
			var bufs ScanBuffers
			tab.SharedScanPooled(ts, clients, w, &bufs, emit)
		}},
	} {
		before := par.Forks()
		rows := 0
		scan.run(8, func(RowID, types.Row, queryset.Set) { rows++ })
		if forked := par.Forks() - before; forked != 0 {
			t.Errorf("%s: 10-row cycle forked %d workers, want 0", scan.name, forked)
		}
		if rows != 10 {
			t.Errorf("%s: emitted %d rows, want 10", scan.name, rows)
		}
	}
}

// Above the clamp the partitioned scan does fork (guards the test above
// against the heuristic accidentally disabling parallelism everywhere).
func TestLargeTableScanForksWorkers(t *testing.T) {
	old := minParallelScanRows
	minParallelScanRows = 16
	t.Cleanup(func() { minParallelScanRows = old })
	db, tab := seedUsers(t, 64)
	ts := db.SnapshotTS()
	clients := []ScanClient{{ID: 1, Pred: nil}}
	before := par.Forks()
	tab.SharedScanPooled(ts, clients, 4, nil, func(RowID, types.Row, queryset.Set) {})
	if forked := par.Forks() - before; forked == 0 {
		t.Error("64-row scan above the clamp forked no workers")
	}
}
