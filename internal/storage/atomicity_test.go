package storage

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"shareddb/internal/expr"
	"shareddb/internal/types"
)

// A write statement is atomic exactly as a transaction is: these tests run
// one multi-row UPDATE through ApplyOps (a standalone statement) and check it
// either applies whole or changes nothing.

func visibleIDs(tab *Table, ts uint64) []int64 {
	var ids []int64
	tab.ScanVisible(ts, func(_ RowID, row types.Row) bool {
		ids = append(ids, row[0].AsInt())
		return true
	})
	slices.Sort(ids)
	return ids
}

// TestStatementUniqueRejectedWhole: an UPDATE that gives two rows one value
// of a UNIQUE column is rejected whole, as Tx.Commit rejects it, and no
// timestamp is spent on it.
func TestStatementUniqueRejectedWhole(t *testing.T) {
	db, tab := newUserDB(t)
	if _, err := tab.AddIndex("users_name", true, "name"); err != nil {
		t.Fatal(err)
	}
	insertUsers(t, db, user(1, "a", "CH", 0), user(2, "b", "CH", 0), user(3, "c", "DE", 0))
	ts := db.SnapshotTS()
	setZ := []ColSet{{Col: 1, Val: &expr.Const{Val: types.NewString("z")}}}
	op := WriteOp{Table: "users", Kind: WUpdate, Pred: eqPred(tab, "country", types.NewString("CH")), Set: setZ}

	res, _ := db.ApplyOps([]WriteOp{op})
	if !errors.Is(res[0].Err, ErrUniqueViolate) || res[0].RowsAffected != 0 {
		t.Fatalf("statement: %+v, want a unique violation affecting no row", res[0])
	}
	tx := db.Begin()
	tx.Update(op.Table, op.Pred, op.Set)
	if err := tx.Commit(); !errors.Is(err, ErrUniqueViolate) {
		t.Fatalf("Tx.Commit: %v, want a unique violation", err)
	}
	if got := db.SnapshotTS(); got != ts {
		t.Fatalf("rejected writes moved the snapshot %d → %d", ts, got)
	}
	var names []string
	tab.ScanVisible(db.SnapshotTS(), func(_ RowID, row types.Row) bool {
		names = append(names, row[1].AsString())
		return true
	})
	if slices.Sort(names); !slices.Equal(names, []string{"a", "b", "c"}) {
		t.Fatalf("names = %v, want [a b c]", names)
	}
}

// TestStatementFailingLaterRowChangesNothing: an UPDATE whose second row
// fails changes no row, consumes no timestamp and appends no WAL record, so
// the next commit takes the next timestamp and a reopened log recovers no
// partial row.
func TestStatementFailingLaterRowChangesNothing(t *testing.T) {
	dir := t.TempDir()
	db, tab := newDurableDB(t, dir)
	insertUsers(t, db, user(1, "a", "CH", 0), user(2, "b", "CH", 0), user(12, "c", "DE", 0))
	ts := db.SnapshotTS()
	logPath := filepath.Join(dir, walFileName)
	before, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}

	// id = id + 10 on ids 1 and 2: row 1 → 11 fits, row 2 → 12 collides.
	plus10 := []ColSet{{Col: 0, Val: &expr.Arith{Op: expr.Add,
		L: &expr.ColRef{Idx: 0}, R: &expr.Const{Val: types.NewInt(10)}}}}
	pred := &expr.Cmp{Op: expr.LE, L: &expr.ColRef{Idx: 0}, R: &expr.Const{Val: types.NewInt(2)}}
	res, gotTS, recs := db.ApplyOpsRecorded([]WriteOp{{Table: "users", Kind: WUpdate, Pred: pred, Set: plus10}})
	if !errors.Is(res[0].Err, ErrUniqueViolate) || res[0].RowsAffected != 0 {
		t.Fatalf("statement: %+v, want a unique violation affecting no row", res[0])
	}
	if gotTS != ts || db.SnapshotTS() != ts || len(recs) != 0 {
		t.Fatalf("failed statement published ts %d (was %d) and logged %d records", gotTS, ts, len(recs))
	}
	if after, err := os.Stat(logPath); err != nil {
		t.Fatal(err)
	} else if after.Size() != before.Size() {
		t.Fatalf("failed statement grew the log: %d → %d bytes", before.Size(), after.Size())
	}

	// The next commit takes ts+1 and publishes only its own row.
	insertUsers(t, db, user(3, "d", "US", 0))
	if db.SnapshotTS() != ts+1 {
		t.Fatalf("next commit published ts %d, want %d", db.SnapshotTS(), ts+1)
	}
	want := []int64{1, 2, 3, 12}
	if got := visibleIDs(tab, db.SnapshotTS()); !slices.Equal(got, want) {
		t.Fatalf("ids = %v, want %v", got, want)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, tab2 := newDurableDB(t, dir)
	defer db2.Close()
	if err := db2.Recover(); err != nil {
		t.Fatal(err)
	}
	if got := visibleIDs(tab2, db2.SnapshotTS()); db2.SnapshotTS() != ts+1 || !slices.Equal(got, want) {
		t.Fatalf("recovered ts %d ids %v, want ts %d ids %v", db2.SnapshotTS(), got, ts+1, want)
	}
}
