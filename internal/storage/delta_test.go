package storage

import (
	"slices"
	"testing"

	"shareddb/internal/expr"
	"shareddb/internal/types"
)

// TestBuildDelta pins the window classification directly: churn inside the
// window collapses to the boundary snapshots, records naming a table the
// database does not have are skipped, and every list is RowID-sorted.
func TestBuildDelta(t *testing.T) {
	db, tab := newUserDB(t)
	defer db.Close()
	insertUsers(t, db, user(1, "ann", "CH", 10), user(2, "bob", "DE", 20), user(3, "cyd", "CH", 30), user(4, "dee", "US", 40))
	from := db.PinCurrentSnapshot()
	defer db.UnpinSnapshot(from)

	byID := func(id int64) expr.Expr { return eqPred(tab, "id", types.NewInt(id)) }
	setAccount := func(id, v int64) WriteOp {
		return WriteOp{Table: "users", Kind: WUpdate, Pred: byID(id),
			Set: []ColSet{{Col: 3, Val: &expr.Const{Val: types.NewInt(v)}}}}
	}
	// Two batches inside one window, written so the records arrive out of
	// RowID order (row 4 before row 2, the delete of row 3 last).
	var recs []WALRecord
	for _, batch := range [][]WriteOp{
		{
			setAccount(4, 41),
			setAccount(2, 21),
			{Table: "users", Kind: WInsert, Row: user(6, "fay", "CH", 60)},
			{Table: "users", Kind: WInsert, Row: user(5, "eve", "DE", 50)}, // inserted ...
			{Table: "users", Kind: WDelete, Pred: byID(3)},
		},
		{
			setAccount(2, 22), // second update of row 2
			{Table: "users", Kind: WDelete, Pred: byID(5)}, // ... and deleted inside the window
			{Table: "users", Kind: WDelete, Pred: byID(1)},
			{Table: "users", Kind: WInsert, Row: user(7, "gus", "US", 70)},
		},
	} {
		results, _, r := db.ApplyOpsRecorded(batch)
		for i, res := range results {
			if res.Err != nil {
				t.Fatalf("op %d: %v", i, res.Err)
			}
		}
		recs = append(recs, r...)
	}
	recs = append(recs, WALRecord{Table: "dropped", Kind: WInsert, RID: 1})
	to := db.PinCurrentSnapshot()
	defer db.UnpinSnapshot(to)

	d := db.BuildDelta(from, to, recs)
	if d.FromTS != from || d.ToTS != to {
		t.Fatalf("window [%d, %d], want [%d, %d]", d.FromTS, d.ToTS, from, to)
	}
	if len(d.Tables) != 1 || d.Tables["users"] == nil {
		t.Fatalf("tables %v, want only users (the unknown table is skipped)", d.Tables)
	}
	td := d.Tables["users"]

	ids := func(rows []DeltaRow) []int64 {
		out := make([]int64, len(rows))
		for i, r := range rows {
			out[i] = r.Row[0].AsInt()
		}
		return out
	}
	// Row 5 lived and died inside the window: in no list. The records
	// arrived as rows 4, 2, 6, 5, 3, ...: every list comes back RowID-sorted
	// (RowIDs were handed out in id order, except 6 before 5).
	if got := ids(td.Inserted); !slices.Equal(got, []int64{6, 7}) {
		t.Errorf("inserted ids %v, want [6 7]", got)
	}
	if got := ids(td.Deleted); !slices.Equal(got, []int64{1, 3}) {
		t.Errorf("deleted ids %v, want [1 3]", got)
	}
	if len(td.Updated) != 2 {
		t.Fatalf("updated %v, want rows 2 and 4", td.Updated)
	}
	// Two updates of row 2 yield first-old / last-new.
	if u := td.Updated[0]; u.Old[0].AsInt() != 2 || u.Old[3].AsInt() != 20 || u.New[3].AsInt() != 22 {
		t.Errorf("row 2: %v → %v, want account 20 → 22", u.Old, u.New)
	}
	if u := td.Updated[1]; u.Old[0].AsInt() != 4 || u.Old[3].AsInt() != 40 || u.New[3].AsInt() != 41 {
		t.Errorf("row 4: %v → %v, want account 40 → 41", u.Old, u.New)
	}
	// Deleted rows carry the FromTS version.
	if td.Deleted[0].Row[3].AsInt() != 10 {
		t.Errorf("deleted row 1 = %v, want the version visible at FromTS", td.Deleted[0].Row)
	}

	if d := db.BuildDelta(from, to, nil); len(d.Tables) != 0 {
		t.Errorf("no records: tables %v, want none", d.Tables)
	}
}
