package storage

import (
	"os"
	"path/filepath"
	"testing"

	"shareddb/internal/expr"
	"shareddb/internal/types"
)

func newDurableDB(t *testing.T, dir string) (*Database, *Table) {
	t.Helper()
	db, err := Open(Options{WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := db.CreateTable("users", usersSchema())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.SetPrimaryKey("id"); err != nil {
		t.Fatal(err)
	}
	return db, tab
}

func TestWALRecovery(t *testing.T) {
	dir := t.TempDir()
	db, tab := newDurableDB(t, dir)
	insertUsers(t, db, user(1, "a", "CH", 10), user(2, "b", "DE", 20))
	db.ApplyOps([]WriteOp{{
		Table: "users", Kind: WUpdate,
		Pred: eqPred(tab, "id", types.NewInt(1)),
		Set:  []ColSet{{Col: 3, Val: &expr.Const{Val: types.NewInt(99)}}},
	}})
	db.ApplyOps([]WriteOp{{Table: "users", Kind: WDelete, Pred: eqPred(tab, "id", types.NewInt(2))}})
	wantTS := db.SnapshotTS()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// "restart": fresh database, same schema, recover from log
	db2, tab2 := newDurableDB(t, dir)
	if err := db2.Recover(); err != nil {
		t.Fatal(err)
	}
	if db2.SnapshotTS() != wantTS {
		t.Errorf("recovered TS = %d, want %d", db2.SnapshotTS(), wantTS)
	}
	ts := db2.SnapshotTS()
	if n := tab2.CountVisible(ts); n != 1 {
		t.Fatalf("recovered %d rows, want 1", n)
	}
	row, ok := tab2.Visible(0, ts)
	if !ok || row[3].AsInt() != 99 {
		t.Errorf("recovered row = %v", row)
	}
	// index probes work after recovery
	if ids := seekIDs(tab2, tab2.PrimaryKey(), []types.Value{types.NewInt(1)}, ts); len(ids) == 0 {
		t.Error("pk index empty after recovery")
	}
	db2.Close()
}

func TestCheckpointAndRecovery(t *testing.T) {
	dir := t.TempDir()
	db, _ := newDurableDB(t, dir)
	insertUsers(t, db, user(1, "a", "CH", 10), user(2, "b", "DE", 20), user(3, "c", "US", 30))
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// post-checkpoint activity goes to the (truncated) log
	insertUsers(t, db, user(4, "d", "FR", 40))
	db.ApplyOps([]WriteOp{{Table: "users", Kind: WDelete, Pred: eqPred(db.Table("users"), "id", types.NewInt(2))}})
	wantTS := db.SnapshotTS()
	db.Close()

	db2, tab2 := newDurableDB(t, dir)
	if err := db2.Recover(); err != nil {
		t.Fatal(err)
	}
	ts := db2.SnapshotTS()
	if ts != wantTS {
		t.Errorf("TS = %d, want %d", ts, wantTS)
	}
	if n := tab2.CountVisible(ts); n != 3 {
		t.Errorf("recovered %d rows, want 3 (1,3,4)", n)
	}
	var ids []int64
	tab2.ScanVisible(ts, func(_ RowID, row types.Row) bool {
		ids = append(ids, row[0].AsInt())
		return true
	})
	want := map[int64]bool{1: true, 3: true, 4: true}
	for _, id := range ids {
		if !want[id] {
			t.Errorf("unexpected id %d", id)
		}
	}
	db2.Close()
}

func TestRecoveryTruncatedWALTail(t *testing.T) {
	dir := t.TempDir()
	db, _ := newDurableDB(t, dir)
	insertUsers(t, db, user(1, "a", "CH", 10))
	insertUsers(t, db, user(2, "b", "DE", 20))
	db.Close()

	// Simulate a crash mid-append: chop bytes off the log tail.
	logPath := filepath.Join(dir, walFileName)
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(logPath, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	db2, tab2 := newDurableDB(t, dir)
	if err := db2.Recover(); err != nil {
		t.Fatal(err)
	}
	// first insert survives; the torn second record is dropped
	if n := tab2.CountVisible(db2.SnapshotTS()); n != 1 {
		t.Errorf("recovered %d rows, want 1", n)
	}
	db2.Close()
}

func TestRecoveryCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	db, _ := newDurableDB(t, dir)
	insertUsers(t, db, user(1, "a", "CH", 10))
	insertUsers(t, db, user(2, "b", "DE", 20))
	db.Close()

	// Flip a byte inside the second record's payload: CRC must reject it.
	logPath := filepath.Join(dir, walFileName)
	data, _ := os.ReadFile(logPath)
	data[len(data)-3] ^= 0xFF
	os.WriteFile(logPath, data, 0o644)

	db2, tab2 := newDurableDB(t, dir)
	if err := db2.Recover(); err != nil {
		t.Fatal(err)
	}
	if n := tab2.CountVisible(db2.SnapshotTS()); n != 1 {
		t.Errorf("recovered %d rows, want 1", n)
	}
	db2.Close()
}

func TestRecoverWithoutWALFails(t *testing.T) {
	db, _ := newUserDB(t)
	if err := db.Recover(); err == nil {
		t.Error("Recover without WAL should fail")
	}
	if err := db.Checkpoint(); err == nil {
		t.Error("Checkpoint without WAL should fail")
	}
}

func TestWALSyncMode(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{WALDir: dir, SyncWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	tab, _ := db.CreateTable("users", usersSchema())
	tab.SetPrimaryKey("id")
	insertUsers(t, db, user(1, "a", "CH", 10))
	db.Close()

	db2, tab2 := newDurableDB(t, dir)
	if err := db2.Recover(); err != nil {
		t.Fatal(err)
	}
	if tab2.CountVisible(db2.SnapshotTS()) != 1 {
		t.Error("synced insert lost")
	}
	db2.Close()
}

func TestRecoveryPreservesRowIDs(t *testing.T) {
	// Updates in the log address rows by RowID; a checkpoint must keep the
	// numbering stable even with dead slots in between.
	dir := t.TempDir()
	db, tab := newDurableDB(t, dir)
	insertUsers(t, db, user(1, "a", "CH", 10), user(2, "b", "DE", 20), user(3, "c", "US", 30))
	// delete the middle row, checkpoint, then update row id=3 (slot 2)
	db.ApplyOps([]WriteOp{{Table: "users", Kind: WDelete, Pred: eqPred(tab, "id", types.NewInt(2))}})
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.ApplyOps([]WriteOp{{
		Table: "users", Kind: WUpdate,
		Pred: eqPred(tab, "id", types.NewInt(3)),
		Set:  []ColSet{{Col: 3, Val: &expr.Const{Val: types.NewInt(777)}}},
	}})
	db.Close()

	db2, tab2 := newDurableDB(t, dir)
	if err := db2.Recover(); err != nil {
		t.Fatal(err)
	}
	ts := db2.SnapshotTS()
	found := false
	tab2.ScanVisible(ts, func(_ RowID, row types.Row) bool {
		if row[0].AsInt() == 3 {
			found = true
			if row[3].AsInt() != 777 {
				t.Errorf("post-checkpoint update lost: %v", row)
			}
		}
		return true
	})
	if !found {
		t.Error("row id=3 missing after recovery")
	}
	db2.Close()
}
