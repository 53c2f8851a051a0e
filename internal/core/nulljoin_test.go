package core

import (
	"fmt"
	"strings"
	"testing"

	"shareddb/internal/baseline"
	"shareddb/internal/storage"
	"shareddb/internal/types"
)

// NULL = x is never true, so an equi-join never matches a row whose join key
// has a NULL in any column — not even against another NULL. The expected
// rows are written by hand, not taken from internal/baseline: a NULL-key
// mistake the engine and the baseline share passes every differential.
func TestNullJoinKeysNeverMatch(t *testing.T) {
	db, err := storage.Open(storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	col := func(table, name string) types.Column {
		return types.Column{Qualifier: table, Name: name, Kind: types.KindInt}
	}
	a, err := db.CreateTable("a", types.NewSchema(col("a", "id"), col("a", "ref"), col("a", "r2")))
	if err != nil {
		t.Fatal(err)
	}
	a.SetPrimaryKey("id")
	// bix and bh hold the same rows; only bix indexes its join key (k, k2),
	// so joins against it take ⋈ix and joins against bh take ⋈hash.
	for _, name := range []string{"bix", "bh"} {
		b, err := db.CreateTable(name, types.NewSchema(col(name, "id"), col(name, "k"), col(name, "k2")))
		if err != nil {
			t.Fatal(err)
		}
		b.SetPrimaryKey("id")
		if name == "bix" {
			b.AddIndex("bix_k", false, "k", "k2")
		}
	}
	null, i := types.Null, types.NewInt
	var ops []storage.WriteOp
	for _, r := range []types.Row{{i(1), null, i(7)}, {i(2), i(5), i(7)}, {i(3), i(5), null}, {i(4), i(6), i(8)}} {
		ops = append(ops, storage.WriteOp{Table: "a", Kind: storage.WInsert, Row: r})
	}
	for _, name := range []string{"bix", "bh"} {
		for _, r := range []types.Row{{i(10), null, i(7)}, {i(11), i(5), i(7)}, {i(12), i(5), null}, {i(13), i(6), i(8)}, {i(14), null, null}} {
			ops = append(ops, storage.WriteOp{Table: name, Kind: storage.WInsert, Row: r})
		}
	}
	results, _ := db.ApplyOps(ops)
	for _, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}

	e := newEngine(t, db)
	defer e.Close()
	for _, tc := range []struct {
		on   string
		want string
	}{
		// a.ref NULL (id 1) matches nothing; b.k NULL (ids 10, 14) is never matched.
		{"a.ref = %[1]s.k", "[2, 11] [2, 12] [3, 11] [3, 12] [4, 13]"},
		// One NULL in a two-column key (a 1 and 3, b 10, 12 and 14) rules the row out.
		{"a.ref = %[1]s.k AND a.r2 = %[1]s.k2", "[2, 11] [4, 13]"},
	} {
		for _, b := range []string{"bix", "bh"} {
			q := fmt.Sprintf("SELECT a.id, %[1]s.id FROM a JOIN %[1]s ON "+tc.on+" ORDER BY a.id, %[1]s.id", b)
			res := run(t, e, mustPrepare(t, e, q))
			if got := fmt.Sprint(res.Rows); got != "["+tc.want+"]" {
				t.Errorf("%s:\nengine  %s\nwant   [%s]", q, got, tc.want)
			}
			for _, profile := range []baseline.Profile{baseline.SystemXLike, baseline.MySQLLike} { // hash join, nested loop; both index NL on bix
				s, err := baseline.New(db, profile).Prepare(q)
				if err != nil {
					t.Fatal(err)
				}
				r, err := s.Exec(nil)
				if err != nil {
					t.Fatal(err)
				}
				if got := fmt.Sprint(r.Rows); got != "["+tc.want+"]" {
					t.Errorf("%s:\nbaseline %v %s\nwant    [%s]", q, profile, got, tc.want)
				}
			}
		}
	}
	desc := e.Plan().Describe()
	if !strings.Contains(desc, "⋈ix(bix)") || !strings.Contains(desc, "⋈hash(") {
		t.Errorf("the joins did not take both ⋈ix and ⋈hash:\n%s", desc)
	}
}
