package storage

import (
	"errors"
	"fmt"
	"testing"

	"shareddb/internal/expr"
	"shareddb/internal/types"
)

func usersSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Qualifier: "users", Name: "id", Kind: types.KindInt},
		types.Column{Qualifier: "users", Name: "name", Kind: types.KindString},
		types.Column{Qualifier: "users", Name: "country", Kind: types.KindString},
		types.Column{Qualifier: "users", Name: "account", Kind: types.KindInt},
	)
}

func newUserDB(t *testing.T) (*Database, *Table) {
	t.Helper()
	db, err := Open(Options{})
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
	if _, err := tab.AddIndex("users_country", false, "country"); err != nil {
		t.Fatal(err)
	}
	return db, tab
}

func user(id int64, name, country string, account int64) types.Row {
	return types.Row{types.NewInt(id), types.NewString(name), types.NewString(country), types.NewInt(account)}
}

func insertUsers(t *testing.T, db *Database, rows ...types.Row) {
	t.Helper()
	ops := make([]WriteOp, len(rows))
	for i, r := range rows {
		ops[i] = WriteOp{Table: "users", Kind: WInsert, Row: r}
	}
	results, _ := db.ApplyOps(ops)
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("insert %d: %v", i, res.Err)
		}
	}
}

func eqPred(t *Table, col string, v types.Value) expr.Expr {
	return &expr.Cmp{Op: expr.EQ, L: &expr.ColRef{Idx: t.Schema().MustColIndex(col)}, R: &expr.Const{Val: v}}
}

func TestInsertAndVisibility(t *testing.T) {
	db, tab := newUserDB(t)
	ts0 := db.SnapshotTS()
	insertUsers(t, db, user(1, "john", "CH", 100))
	ts1 := db.SnapshotTS()
	if ts1 <= ts0 {
		t.Fatal("snapshot did not advance")
	}
	if _, ok := tab.Visible(0, ts0); ok {
		t.Error("row visible before its commit")
	}
	row, ok := tab.Visible(0, ts1)
	if !ok || row[1].AsString() != "john" {
		t.Errorf("row not visible after commit: %v %v", row, ok)
	}
	if n := tab.CountVisible(ts1); n != 1 {
		t.Errorf("CountVisible = %d", n)
	}
}

func TestUpdateCreatesVersion(t *testing.T) {
	db, tab := newUserDB(t)
	insertUsers(t, db, user(1, "john", "CH", 100))
	ts1 := db.SnapshotTS()

	res, _ := db.ApplyOps([]WriteOp{{
		Table: "users", Kind: WUpdate,
		Pred: eqPred(tab, "id", types.NewInt(1)),
		Set:  []ColSet{{Col: 3, Val: &expr.Const{Val: types.NewInt(500)}}},
	}})
	if res[0].Err != nil || res[0].RowsAffected != 1 {
		t.Fatalf("update: %+v", res[0])
	}
	ts2 := db.SnapshotTS()

	// old snapshot still sees the old value (snapshot isolation)
	old, _ := tab.Visible(0, ts1)
	if old[3].AsInt() != 100 {
		t.Errorf("old snapshot sees %d", old[3].AsInt())
	}
	cur, _ := tab.Visible(0, ts2)
	if cur[3].AsInt() != 500 {
		t.Errorf("new snapshot sees %d", cur[3].AsInt())
	}
}

func TestDeleteVisibility(t *testing.T) {
	db, tab := newUserDB(t)
	insertUsers(t, db, user(1, "john", "CH", 100))
	ts1 := db.SnapshotTS()
	res, _ := db.ApplyOps([]WriteOp{{Table: "users", Kind: WDelete, Pred: eqPred(tab, "id", types.NewInt(1))}})
	if res[0].RowsAffected != 1 {
		t.Fatalf("delete affected %d", res[0].RowsAffected)
	}
	ts2 := db.SnapshotTS()
	if _, ok := tab.Visible(0, ts2); ok {
		t.Error("deleted row still visible")
	}
	if _, ok := tab.Visible(0, ts1); !ok {
		t.Error("old snapshot lost the row")
	}
}

func TestApplyOpsArrivalOrder(t *testing.T) {
	// Crescando contract: ops in one batch see the effects of earlier ops.
	db, tab := newUserDB(t)
	insertUsers(t, db, user(1, "john", "CH", 100))
	add100 := []ColSet{{Col: 3, Val: &expr.Arith{Op: expr.Add,
		L: &expr.ColRef{Idx: 3}, R: &expr.Const{Val: types.NewInt(100)}}}}
	res, _ := db.ApplyOps([]WriteOp{
		{Table: "users", Kind: WUpdate, Pred: eqPred(tab, "id", types.NewInt(1)), Set: add100},
		{Table: "users", Kind: WUpdate, Pred: eqPred(tab, "id", types.NewInt(1)), Set: add100},
	})
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("op %d: %v", i, r.Err)
		}
	}
	row, _ := tab.Visible(0, db.SnapshotTS())
	if row[3].AsInt() != 300 {
		t.Errorf("account = %d, want 300 (both increments applied in order)", row[3].AsInt())
	}
}

func TestUniqueViolation(t *testing.T) {
	db, _ := newUserDB(t)
	insertUsers(t, db, user(1, "john", "CH", 100))
	res, _ := db.ApplyOps([]WriteOp{{Table: "users", Kind: WInsert, Row: user(1, "dup", "DE", 0)}})
	if !errors.Is(res[0].Err, ErrUniqueViolate) {
		t.Errorf("expected unique violation, got %v", res[0].Err)
	}
	// table unchanged
	if db.Table("users").CountVisible(db.SnapshotTS()) != 1 {
		t.Error("failed insert changed table")
	}
}

func TestApplyOpsUnknownTable(t *testing.T) {
	db, _ := newUserDB(t)
	res, _ := db.ApplyOps([]WriteOp{{Table: "nope", Kind: WInsert, Row: user(1, "x", "y", 0)}})
	if !errors.Is(res[0].Err, ErrNoTable) {
		t.Errorf("expected ErrNoTable, got %v", res[0].Err)
	}
}

func TestResolveTargetsUsesIndex(t *testing.T) {
	db, tab := newUserDB(t)
	var rows []types.Row
	for i := int64(0); i < 100; i++ {
		rows = append(rows, user(i, fmt.Sprintf("u%d", i), []string{"CH", "DE", "US"}[i%3], i*10))
	}
	insertUsers(t, db, rows...)
	ts := db.SnapshotTS()

	tab.mu.Lock()
	targets := resolveTargets(tab, eqPred(tab, "id", types.NewInt(42)), ts)
	tab.mu.Unlock()
	if len(targets) != 1 || targets[0] != 42 {
		t.Errorf("pk resolve = %v", targets)
	}

	tab.mu.Lock()
	targets = resolveTargets(tab, eqPred(tab, "country", types.NewString("DE")), ts)
	tab.mu.Unlock()
	if len(targets) != 33 {
		t.Errorf("secondary index resolve found %d, want 33", len(targets))
	}

	// non-indexed predicate falls back to scan
	pred := &expr.Cmp{Op: expr.GT, L: &expr.ColRef{Idx: 3}, R: &expr.Const{Val: types.NewInt(900)}}
	tab.mu.Lock()
	targets = resolveTargets(tab, pred, ts)
	tab.mu.Unlock()
	if len(targets) != 9 {
		t.Errorf("scan resolve found %d, want 9", len(targets))
	}
}

func TestTxCommitAtomic(t *testing.T) {
	db, tab := newUserDB(t)
	tx := db.Begin()
	tx.Insert("users", user(1, "a", "CH", 1))
	tx.Insert("users", user(2, "b", "DE", 2))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if tab.CountVisible(db.SnapshotTS()) != 2 {
		t.Error("both inserts should be visible")
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxDone) {
		t.Errorf("double commit: %v", err)
	}
}

func TestTxRollback(t *testing.T) {
	db, tab := newUserDB(t)
	tx := db.Begin()
	tx.Insert("users", user(1, "a", "CH", 1))
	tx.Rollback()
	if err := tx.Commit(); !errors.Is(err, ErrTxDone) {
		t.Errorf("commit after rollback: %v", err)
	}
	if tab.CountVisible(db.SnapshotTS()) != 0 {
		t.Error("rollback leaked rows")
	}
}

func TestTxWriteWriteConflict(t *testing.T) {
	db, tab := newUserDB(t)
	insertUsers(t, db, user(1, "john", "CH", 100))

	tx1 := db.Begin()
	tx2 := db.Begin()
	set := []ColSet{{Col: 3, Val: &expr.Const{Val: types.NewInt(1)}}}
	tx1.Update("users", eqPred(tab, "id", types.NewInt(1)), set)
	tx2.Update("users", eqPred(tab, "id", types.NewInt(1)), set)
	if err := tx1.Commit(); err != nil {
		t.Fatalf("tx1: %v", err)
	}
	if err := tx2.Commit(); !errors.Is(err, ErrConflict) {
		t.Errorf("tx2 should conflict, got %v", err)
	}
}

func TestTxNoConflictDisjointRows(t *testing.T) {
	db, tab := newUserDB(t)
	insertUsers(t, db, user(1, "a", "CH", 1), user(2, "b", "DE", 2))
	tx1, tx2 := db.Begin(), db.Begin()
	set := []ColSet{{Col: 3, Val: &expr.Const{Val: types.NewInt(9)}}}
	tx1.Update("users", eqPred(tab, "id", types.NewInt(1)), set)
	tx2.Update("users", eqPred(tab, "id", types.NewInt(2)), set)
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Errorf("disjoint tx2 should commit: %v", err)
	}
}

func TestTxUniqueWithinTransaction(t *testing.T) {
	db, _ := newUserDB(t)
	tx := db.Begin()
	tx.Insert("users", user(1, "a", "CH", 1))
	tx.Insert("users", user(1, "b", "DE", 2))
	if err := tx.Commit(); !errors.Is(err, ErrUniqueViolate) {
		t.Errorf("want unique violation, got %v", err)
	}
	if db.Table("users").CountVisible(db.SnapshotTS()) != 0 {
		t.Error("aborted tx applied partially")
	}
}

func TestCommitTxBatchOrdering(t *testing.T) {
	// Batch commit: transactions apply in order and each gets SI checks.
	db, tab := newUserDB(t)
	insertUsers(t, db, user(1, "a", "CH", 100))
	tx1, tx2, tx3 := db.Begin(), db.Begin(), db.Begin()
	set := []ColSet{{Col: 3, Val: &expr.Const{Val: types.NewInt(9)}}}
	tx1.Update("users", eqPred(tab, "id", types.NewInt(1)), set)
	tx2.Update("users", eqPred(tab, "id", types.NewInt(1)), set)
	tx3.Insert("users", user(2, "c", "DE", 0))
	res, _ := db.CommitTxBatch([]*Tx{tx1, tx2, tx3})
	if res[0].Err != nil || res[0].RowsAffected != 1 {
		t.Errorf("tx1: %+v", res[0])
	}
	if !errors.Is(res[1].Err, ErrConflict) {
		t.Errorf("tx2 should conflict (first committer wins), got %v", res[1].Err)
	}
	if res[2].Err != nil {
		t.Errorf("tx3: %v", res[2].Err)
	}
	if tab.CountVisible(db.SnapshotTS()) != 2 {
		t.Error("tx3 insert missing")
	}
}

func TestGCPreservesVisibleState(t *testing.T) {
	db, tab := newUserDB(t)
	insertUsers(t, db, user(1, "a", "CH", 1))
	for i := 0; i < 10; i++ {
		db.ApplyOps([]WriteOp{{
			Table: "users", Kind: WUpdate,
			Pred: eqPred(tab, "id", types.NewInt(1)),
			Set:  []ColSet{{Col: 3, Val: &expr.Const{Val: types.NewInt(int64(i))}}},
		}})
	}
	ts := db.SnapshotTS()
	before, _ := tab.Visible(0, ts)
	db.GCAll(0)
	after, ok := tab.Visible(0, ts)
	if !ok || after[3].AsInt() != before[3].AsInt() {
		t.Errorf("GC changed visible state: %v -> %v", before, after)
	}
	// chain should now be a single version
	tab.mu.RLock()
	depth := 0
	for v := tab.slots[0]; v != nil; v = v.older {
		depth++
	}
	tab.mu.RUnlock()
	if depth != 1 {
		t.Errorf("chain depth after GC = %d, want 1", depth)
	}
}

func TestGCRemovesStaleIndexEntries(t *testing.T) {
	db, tab := newUserDB(t)
	insertUsers(t, db, user(1, "a", "CH", 1))
	// move the user across countries; each update adds an index entry
	for _, c := range []string{"DE", "US", "FR"} {
		db.ApplyOps([]WriteOp{{
			Table: "users", Kind: WUpdate,
			Pred: eqPred(tab, "id", types.NewInt(1)),
			Set:  []ColSet{{Col: 2, Val: &expr.Const{Val: types.NewString(c)}}},
		}})
	}
	ix := tab.IndexByName("users_country")
	if ix.Tree().Len() != 4 {
		t.Fatalf("expected 4 entries before GC, got %d", ix.Tree().Len())
	}
	db.GCAll(0)
	if ix.Tree().Len() != 1 {
		t.Errorf("expected 1 entry after GC, got %d", ix.Tree().Len())
	}
	ts := db.SnapshotTS()
	row, _ := tab.Visible(0, ts)
	if row[2].AsString() != "FR" {
		t.Errorf("visible country = %s", row[2].AsString())
	}
}

func TestAddIndexBackfills(t *testing.T) {
	db, tab := newUserDB(t)
	insertUsers(t, db, user(1, "a", "CH", 1), user(2, "b", "CH", 2))
	ix, err := tab.AddIndex("late", false, "account")
	if err != nil {
		t.Fatal(err)
	}
	if ix.Tree().Len() != 2 {
		t.Errorf("backfill inserted %d entries", ix.Tree().Len())
	}
}

func TestPinnedIndex(t *testing.T) {
	country := &Index{Name: "country", Cols: []int{2}}
	countryName := &Index{Name: "country_name", Cols: []int{2, 1}}
	pk := &Index{Name: "pk", Cols: []int{0}, Unique: true}
	uniqCountry := &Index{Name: "uniq_country", Cols: []int{2}, Unique: true}
	indexes := []*Index{country, countryName, pk, uniqCountry}
	pinned := func(cols ...int) expr.Pins {
		var pins expr.Pins
		for i, c := range cols {
			pins = append(pins, expr.Pin{Col: c, At: i, Operand: &expr.Const{Val: types.NewInt(1)}})
		}
		return pins
	}
	for _, tc := range []struct {
		pins  expr.Pins
		want  *Index
		wantN int
	}{
		{pinned(2), uniqCountry, 1},    // ties prefer a unique index
		{pinned(2, 1), countryName, 2}, // the longest prefix wins
		{pinned(1), nil, 0},            // no index leads with column 1
		{pinned(0, 2), pk, 1},          // the first unique index among ties
		{pinned(0, 1, 2), countryName, 2},
		{expr.Pins{}, nil, 0},
	} {
		if got, n := PinnedIndex(indexes, tc.pins); got != tc.want || n != tc.wantN {
			t.Errorf("PinnedIndex(%v) = %v, %d; want %v, %d", tc.pins, got, n, tc.want, tc.wantN)
		}
	}
}
