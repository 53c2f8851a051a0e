package plan_test

import (
	"strings"
	"testing"

	"shareddb/internal/plan"
	"shareddb/internal/storage"
	"shareddb/internal/tpcw"
	"shareddb/internal/types"
)

// TestTPCWTopNDefersAuthorJoin pins the cut-before-join rule on the TPC-W
// catalog: the three LIMIT 50 searches whose sort keys are item columns and
// best sellers (through the FD lift) sort their rows and look authors up by
// pk_author only for the rows they keep. Author search (its inner, item by
// ix_item_i_a_id, is not unique) keeps its index join, and the whole
// workload still compiles into 24 nodes.
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
		{"best sellers", tpcw.StGetBestSellers, true, ""},
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
	if n := p.NumNodes(); n != 23 {
		t.Errorf("TPC-W compiles into %d nodes, want 23; plan:\n%s", n, d)
	}
	// The two sort orders of the searches, each reading item rows and
	// emitting join rows; product detail keeps ⋈ix(author).
	for _, want := range []string{
		"sort(item.1|false) [", "sort(item.3|true,item.1|false) [", ": ⋈ix(author) [",
	} {
		if !strings.Contains(d, want) {
			t.Errorf("plan lacks %q:\n%s", want, d)
		}
	}
	if n := strings.Count(d, lookup); n != 4 {
		t.Errorf("%d deferred lookups, want 4 (two item streams into the title sort, one into the date sort, one into best sellers' sort):\n%s", n, d)
	}
}

// TestTPCWBestSellersPlan pins best sellers' plan under the FD rules and
// group-join: the hash join reads its order_line outer from the column
// mirror and aggregates it in place into a Γ hashed on i_id alone (an INT,
// the join key) that carries i_title and i_a_id, whose pk_item determines
// them, and the Top-N looks authors up by pk_author for the rows it keeps —
// no ⋈ix node of its own.
func TestTPCWBestSellersPlan(t *testing.T) {
	db, err := storage.Open(storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := tpcw.CreateSchema(db); err != nil {
		t.Fatal(err)
	}
	if k := db.Table("item").Schema().Cols[0].Kind; k != types.KindInt {
		t.Fatalf("item.0 is %v, want INT", k)
	}
	p := plan.New(db)
	if _, err := p.Prepare(tpcw.StatementSQL()[tpcw.StGetBestSellers]); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"node 1: probe(item/ix_item_i_subject) → ⋈Γ(probe(item/ix_item_i_subject); item.0,+item.1,+item.2,SUM|false|order_line.3)",
		"node 2: ⋈Γ(probe(item/ix_item_i_subject); item.0,+item.1,+item.2,SUM|false|order_line.3) ⇐ mirror(order_line) → sort(<SUM(OL_QTY)>|true)",
		"node 3: sort(<SUM(OL_QTY)>|true) [item.0 item.1 author.1 author.2 <SUM(OL_QTY)>] ⋈ix(author/pk_author) → output",
		"",
	}, "\n")
	if d := p.Describe(); d != want {
		t.Errorf("best sellers plan:\n%s\nwant:\n%s", d, want)
	}
}
