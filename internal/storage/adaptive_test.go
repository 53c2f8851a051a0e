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
	before := par.Forks()
	rows := 0
	tab.SharedScanColumnar(ts, clients, 8, &ColScanBuffers{}, func(RowID, types.Row, queryset.Set) { rows++ })
	if forked := par.Forks() - before; forked != 0 {
		t.Errorf("10-row cycle forked %d workers, want 0", forked)
	}
	if rows != 10 {
		t.Errorf("emitted %d rows, want 10", rows)
	}
}

// Above the clamp the partitioned scan does fork (guards the test above
// against the heuristic accidentally disabling parallelism everywhere).
func TestLargeTableScanForksWorkers(t *testing.T) {
	old := minParallelScanRows
	minParallelScanRows = 16
	t.Cleanup(func() { minParallelScanRows = old })
	lowerColThresholds(t) // 64-row chunks: four partitions
	db, tab := seedUsers(t, 256)
	ts := db.SnapshotTS()
	clients := []ScanClient{{ID: 1, Pred: nil}}
	before := par.Forks()
	tab.SharedScanColumnar(ts, clients, 4, &ColScanBuffers{}, func(RowID, types.Row, queryset.Set) {})
	if forked := par.Forks() - before; forked == 0 {
		t.Error("256-row scan above the clamp forked no workers")
	}
}
