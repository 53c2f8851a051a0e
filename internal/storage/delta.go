package storage

import (
	"sort"

	"shareddb/internal/types"
)

// Delta is the net effect of a window of writes: for each touched table,
// which logical rows appeared, vanished or changed between the snapshot
// published before the first batch (FromTS) and the snapshot published after
// the last (ToTS).
//
// Rows are reported at the boundary snapshots, so churn inside the window
// collapses: a row inserted and deleted within it appears in no list, and a
// row updated twice appears once with the first old row and the last new
// row.
//
// Nothing in the engine consumes a Delta (operators build their
// state per cycle; the column mirror keeps its own pending log). The type,
// BuildDelta and ApplyOpsRecorded stay because the repository benchmark's
// storage.delta_us_per_write probe (bench/layers.go) times them; they go
// when a benchmark-typed PR drops that probe.
type Delta struct {
	FromTS uint64
	ToTS   uint64
	Tables map[string]*TableDelta
}

// TableDelta is one table's slice of a Delta. Each list is sorted by RowID
// ascending, and a RowID appears in at most one list.
type TableDelta struct {
	Inserted []DeltaRow   // visible at ToTS, not at FromTS
	Deleted  []DeltaRow   // visible at FromTS, not at ToTS (Row is the old row)
	Updated  []UpdatedRow // visible at both with different versions
}

// DeltaRow is one inserted or deleted row.
type DeltaRow struct {
	RID RowID
	Row types.Row // inserted: row at ToTS; deleted: row at FromTS
}

// UpdatedRow carries both boundary versions of a changed row.
type UpdatedRow struct {
	RID RowID
	Old types.Row // version visible at FromTS
	New types.Row // version visible at ToTS
}

// BuildDelta classifies the rows touched by recorded writes into an exact
// Delta. Its one remaining caller is the benchmark probe named on Delta.
// recs is the physical write log (as returned by ApplyOpsRecorded —
// possibly accumulated across several batches); fromTS is the snapshot
// published before the first of those batches and toTS the snapshot
// published after the last (pinned by the caller, which shields the
// versions involved from GC).
//
// Each touched (table, rid) is classified once by comparing its visibility
// at the two boundary snapshots, so the same rid recorded several times —
// insert then delete, repeated updates — collapses to its net effect.
func (db *Database) BuildDelta(fromTS, toTS uint64, recs []WALRecord) *Delta {
	d := &Delta{FromTS: fromTS, ToTS: toTS}
	if len(recs) == 0 {
		return d
	}
	type tableTouches struct {
		t    *Table
		rids []RowID
	}
	touched := map[string]*tableTouches{}
	seen := map[string]map[RowID]bool{}
	for _, rec := range recs {
		tt := touched[rec.Table]
		if tt == nil {
			t := db.Table(rec.Table)
			if t == nil {
				continue // table dropped since the write
			}
			tt = &tableTouches{t: t}
			touched[rec.Table] = tt
			seen[rec.Table] = map[RowID]bool{}
		}
		if seen[rec.Table][rec.RID] {
			continue
		}
		seen[rec.Table][rec.RID] = true
		tt.rids = append(tt.rids, rec.RID)
	}
	for name, tt := range touched {
		sort.Slice(tt.rids, func(i, j int) bool { return tt.rids[i] < tt.rids[j] })
		td := &TableDelta{}
		tt.t.mu.RLock()
		for _, rid := range tt.rids {
			oldRow, hadOld := tt.t.visibleLocked(rid, fromTS)
			newRow, hasNew := tt.t.visibleLocked(rid, toTS)
			switch {
			case !hadOld && hasNew:
				td.Inserted = append(td.Inserted, DeltaRow{RID: rid, Row: newRow})
			case hadOld && !hasNew:
				td.Deleted = append(td.Deleted, DeltaRow{RID: rid, Row: oldRow})
			case hadOld && hasNew:
				// Boundary versions may be the same object when a touched
				// row's net effect is a no-op (e.g. a conflicting update
				// that never applied would not be recorded, but an update
				// writing identical values still produces a new version).
				td.Updated = append(td.Updated, UpdatedRow{RID: rid, Old: oldRow, New: newRow})
			}
			// !hadOld && !hasNew: inserted and deleted within the window —
			// invisible at both boundaries, no net effect.
		}
		tt.t.mu.RUnlock()
		if len(td.Inserted)+len(td.Deleted)+len(td.Updated) > 0 {
			if d.Tables == nil {
				d.Tables = map[string]*TableDelta{}
			}
			d.Tables[name] = td
		}
	}
	return d
}

// ApplyOpsRecorded is ApplyOps additionally returning the batch's physical
// write records (table, RowID, kind per applied mutation) for BuildDelta.
// The records alias the same slice handed to the WAL; callers must treat
// them as read-only.
func (db *Database) ApplyOpsRecorded(ops []WriteOp) ([]OpResult, uint64, []WALRecord) {
	return db.applyOps(ops)
}
