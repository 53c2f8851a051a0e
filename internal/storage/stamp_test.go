package storage

import (
	"math"
	"testing"

	"shareddb/internal/expr"
	"shareddb/internal/types"
)

// stamped reports which of the table's columns ChangedSince(ts) sees as
// changed when asked about each column alone, and whether it sees a change
// with no column at all (the row-set stamp).
func stamped(tab *Table, ts uint64) (cols []bool, rows bool) {
	cols = make([]bool, len(tab.Schema().Cols))
	for c := range cols {
		cols[c] = tab.ChangedSince(ts, []int{c})
	}
	return cols, tab.ChangedSince(ts, nil)
}

func setCol(tab *Table, id int64, col int, v types.Value) WriteOp {
	return WriteOp{Table: tab.Name(), Kind: WUpdate, Pred: eqPred(tab, "id", types.NewInt(id)),
		Set: []ColSet{{Col: col, Val: &expr.Const{Val: v}}}}
}

func applyOne(t *testing.T, db *Database, op WriteOp) {
	t.Helper()
	res, _ := db.ApplyOps([]WriteOp{op})
	if res[0].Err != nil || res[0].RowsAffected != 1 {
		t.Fatalf("%v: %+v", op.Kind, res[0])
	}
}

func TestWriteStampUnchangedUpdateStampsNothing(t *testing.T) {
	db, tab := newUserDB(t)
	insertUsers(t, db, user(1, "john", "CH", 100))
	ts := db.SnapshotTS()
	applyOne(t, db, setCol(tab, 1, 3, types.NewInt(100)))
	if db.SnapshotTS() <= ts {
		t.Fatal("fixture: the update committed no new snapshot")
	}
	cols, rows := stamped(tab, ts)
	if rows {
		t.Error("an update stamped the row set")
	}
	for c, ch := range cols {
		if ch {
			t.Errorf("writing column 3's current value stamped column %d", c)
		}
	}
}

func TestWriteStampOneColumnUpdate(t *testing.T) {
	db, tab := newUserDB(t)
	insertUsers(t, db, user(1, "john", "CH", 100), user(2, "jane", "DE", 200))
	ts := db.SnapshotTS()
	applyOne(t, db, setCol(tab, 2, 2, types.NewString("FR")))
	cols, rows := stamped(tab, ts)
	if rows {
		t.Error("an update stamped the row set")
	}
	for c, ch := range cols {
		if ch != (c == 2) {
			t.Errorf("column %d stamped = %v after changing column 2 only", c, ch)
		}
	}
	if tab.ChangedSince(db.SnapshotTS(), []int{0, 1, 2, 3}) {
		t.Error("a stamp is newer than the snapshot its commit published")
	}
}

func TestWriteStampInsertDeleteStampRowSet(t *testing.T) {
	db, tab := newUserDB(t)
	ts := db.SnapshotTS()
	insertUsers(t, db, user(1, "john", "CH", 100))
	if _, rows := stamped(tab, ts); !rows {
		t.Error("an insert did not stamp the row set")
	}
	ts = db.SnapshotTS()
	applyOne(t, db, WriteOp{Table: "users", Kind: WDelete, Pred: eqPred(tab, "id", types.NewInt(1))})
	cols, rows := stamped(tab, ts)
	if !rows {
		t.Error("a delete did not stamp the row set")
	}
	for c, ch := range cols {
		if !ch {
			t.Errorf("a delete is invisible to a read of column %d", c)
		}
	}
}

func TestWriteStampNegativeZeroStamps(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := db.CreateTable("m", types.NewSchema(
		types.Column{Qualifier: "m", Name: "id", Kind: types.KindInt},
		types.Column{Qualifier: "m", Name: "v", Kind: types.KindFloat},
	))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.SetPrimaryKey("id"); err != nil {
		t.Fatal(err)
	}
	applyOne(t, db, WriteOp{Table: "m", Kind: WInsert, Row: types.Row{types.NewInt(1), types.NewFloat(0)}})
	ts := db.SnapshotTS()
	applyOne(t, db, setCol(tab, 1, 1, types.NewFloat(0)))
	if tab.ChangedSince(ts, []int{1}) {
		t.Fatal("0.0 replacing 0.0 stamped")
	}
	applyOne(t, db, setCol(tab, 1, 1, types.NewFloat(math.Copysign(0, -1))))
	if !tab.ChangedSince(ts, []int{1}) {
		t.Error("-0.0 replacing 0.0 did not stamp: the compare must be bit for bit")
	}
}

func TestWriteStampTxLikeAutocommit(t *testing.T) {
	db, tab := newUserDB(t)
	insertUsers(t, db, user(1, "john", "CH", 100), user(2, "jane", "DE", 200))

	ts := db.SnapshotTS()
	tx := db.Begin()
	tx.Update("users", eqPred(tab, "id", types.NewInt(1)), []ColSet{{Col: 1, Val: &expr.Const{Val: types.NewString("jim")}}})
	tx.Update("users", eqPred(tab, "id", types.NewInt(2)), []ColSet{{Col: 3, Val: &expr.Const{Val: types.NewInt(200)}}})
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	txCols, txRows := stamped(tab, ts)

	ts = db.SnapshotTS()
	applyOne(t, db, setCol(tab, 1, 1, types.NewString("joe")))
	applyOne(t, db, setCol(tab, 2, 3, types.NewInt(200)))
	autoCols, autoRows := stamped(tab, ts)

	if txRows || autoRows {
		t.Errorf("updates stamped the row set: tx %v, autocommit %v", txRows, autoRows)
	}
	for c := range txCols {
		if txCols[c] != autoCols[c] || txCols[c] != (c == 1) {
			t.Errorf("column %d: tx stamped %v, autocommit %v, want both %v", c, txCols[c], autoCols[c], c == 1)
		}
	}
}
