package storage

import (
	"testing"

	"shareddb/internal/btree"
	"shareddb/internal/expr"
	"shareddb/internal/testutil"
	"shareddb/internal/types"
)

// seekIDs collects the ids (column 0) IndexSeekAt yields for key at ts.
func seekIDs(tab *Table, ix *Index, key btree.Key, ts uint64) []int64 {
	var ids []int64
	tab.IndexSeekAt(ix, key, ts, func(_ RowID, row types.Row) bool {
		ids = append(ids, row[0].AsInt())
		return true
	})
	return ids
}

// A prefix-key seek meets every index entry sharing the prefix — including
// the stale entry an update left behind for old snapshots. The row must
// still come back exactly once, at every snapshot, without any dedup state:
// only the entry carrying the visible version's full key yields it.
func TestIndexSeekPrefixKeyYieldsUpdatedRowOnce(t *testing.T) {
	db, tab := newUserDB(t)
	ix, err := tab.AddIndex("users_country_account", false, "country", "account")
	if err != nil {
		t.Fatal(err)
	}
	insertUsers(t, db, user(1, "a", "CH", 10), user(2, "b", "CH", 20), user(3, "c", "DE", 30))
	ts1 := db.SnapshotTS()
	// Same prefix, new suffix: (CH, 10) stays in the tree next to (CH, 99).
	res, _ := db.ApplyOps([]WriteOp{{
		Table: "users", Kind: WUpdate,
		Pred: eqPred(tab, "id", types.NewInt(1)),
		Set:  []ColSet{{Col: 3, Val: &expr.Const{Val: types.NewInt(99)}}},
	}})
	if res[0].Err != nil || res[0].RowsAffected != 1 {
		t.Fatalf("update: %+v", res[0])
	}
	ts2 := db.SnapshotTS()
	if n := ix.Tree().Len(); n != 4 {
		t.Fatalf("index holds %d entries, want 4 (the update must leave two for row 1)", n)
	}

	ch := btree.Key{types.NewString("CH")}
	for _, c := range []struct {
		name string
		ts   uint64
		key  btree.Key
		want []int64
	}{
		{"prefix, after the update", ts2, ch, []int64{2, 1}}, // index order: (CH,20) before (CH,99)
		{"prefix, before the update", ts1, ch, []int64{1, 2}},
		{"full key, new version", ts2, btree.Key{types.NewString("CH"), types.NewInt(99)}, []int64{1}},
		{"full key, stale entry", ts2, btree.Key{types.NewString("CH"), types.NewInt(10)}, nil},
		{"full key, old snapshot", ts1, btree.Key{types.NewString("CH"), types.NewInt(10)}, []int64{1}},
	} {
		got := seekIDs(tab, ix, c.key, c.ts)
		if len(got) != len(c.want) {
			t.Errorf("%s: ids %v, want %v", c.name, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%s: ids %v, want %v", c.name, got, c.want)
				break
			}
		}
	}
}

// TestIndexSeekZeroAlloc pins the index-join probe's storage half: a
// full-key IndexSeekAt allocates nothing (it used to build a map per call).
func TestIndexSeekZeroAlloc(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	db, tab := newUserDB(t)
	rows := make([]types.Row, 256)
	for i := range rows {
		rows[i] = user(int64(i), "u", "CH", int64(i))
	}
	insertUsers(t, db, rows...)
	ts := db.SnapshotTS()
	pk := tab.PrimaryKey()
	key := btree.Key{types.NewInt(0)}
	found := 0
	fn := func(RowID, types.Row) bool { found++; return true }
	allocs := testing.AllocsPerRun(100, func() {
		for i := int64(0); i < 256; i++ {
			key[0] = types.NewInt(i)
			tab.IndexSeekAt(pk, key, ts, fn)
		}
	})
	if found == 0 {
		t.Fatal("seeks found nothing")
	}
	if allocs != 0 {
		t.Errorf("256 full-key index seeks allocate %.1f, want 0", allocs)
	}
}
