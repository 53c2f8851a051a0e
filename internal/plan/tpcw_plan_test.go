package plan_test

import (
	"strings"
	"testing"

	"shareddb/internal/plan"
	"shareddb/internal/storage"
	"shareddb/internal/tpcw"
)

// TestTPCWTopNDefersAuthorJoin pins the cut-before-join rule on the TPC-W
// catalog: the three LIMIT 50 searches whose sort keys are item columns sort
// the item rows and look authors up by pk_author only for the rows they
// keep. Author search (its inner, item by ix_item_i_a_id, is not unique) and
// best sellers (a group-by sits between the join and the Top-N) keep their
// index joins, and the whole workload still compiles into 24 nodes.
func TestTPCWTopNDefersAuthorJoin(t *testing.T) {
	db, err := storage.Open(storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := tpcw.CreateSchema(db); err != nil {
		t.Fatal(err)
	}
	sqls := tpcw.StatementSQL()
	const lookup = "⋈ix(author/pk_author)"
	for _, tc := range []struct {
		name   string
		id     tpcw.StmtID
		defers bool
		ixJoin string // the index join node the statement keeps, if any
	}{
		{"subject search", tpcw.StDoSubjectSearch, true, ""},
		{"new products", tpcw.StGetNewProducts, true, ""},
		{"title search", tpcw.StDoTitleSearch, true, ""},
		{"author search", tpcw.StDoAuthorSearch, false, ": ⋈ix(item)"},
		{"best sellers", tpcw.StGetBestSellers, false, ": ⋈ix(author)"},
	} {
		p := plan.New(db)
		if _, err := p.Prepare(sqls[tc.id]); err != nil {
			t.Fatal(err)
		}
		d := p.Describe()
		if strings.Contains(d, lookup) != tc.defers || strings.Contains(d, ": ⋈ix(") != (tc.ixJoin != "") ||
			(tc.ixJoin != "" && !strings.Contains(d, tc.ixJoin)) {
			t.Errorf("%s: want deferred lookup %v, index join %q; plan:\n%s", tc.name, tc.defers, tc.ixJoin, d)
		}
	}

	p := plan.New(db)
	for _, q := range sqls {
		if _, err := p.Prepare(q); err != nil {
			t.Fatal(err)
		}
	}
	d := p.Describe()
	if n := p.NumNodes(); n != 24 {
		t.Errorf("TPC-W compiles into %d nodes, want 24; plan:\n%s", n, d)
	}
	// The two sort orders of the searches, each reading item rows and
	// emitting join rows; product detail and best sellers keep ⋈ix(author).
	for _, want := range []string{
		"sort(item.1|false) [", "sort(item.3|true,item.1|false) [", ": ⋈ix(author) [",
	} {
		if !strings.Contains(d, want) {
			t.Errorf("plan lacks %q:\n%s", want, d)
		}
	}
	if n := strings.Count(d, lookup); n != 3 {
		t.Errorf("%d deferred lookups, want 3 (two item streams into the title sort, one into the date sort):\n%s", n, d)
	}
}
