package plan_test

import (
	"os"
	"strings"
	"testing"

	"shareddb/internal/plan"
	"shareddb/internal/storage"
	"shareddb/internal/tpcw"
	"shareddb/internal/types"
)

// netSQL is the network fan-in benchmark's two statements, over its own
// item table (netItem): a title search and a primary-key point read.
var netSQL = []string{
	`SELECT i_id, i_title FROM item WHERE i_title LIKE ?`,
	`SELECT i_id, i_title, i_cost FROM item WHERE i_id = ?`,
}

// netItem creates the network fan-in benchmark's item table in db.
func netItem(t testing.TB, db *storage.Database) {
	t.Helper()
	col := func(name string, k types.Kind) types.Column {
		return types.Column{Qualifier: "item", Name: name, Kind: k}
	}
	item, err := db.CreateTable("item", types.NewSchema(col("i_id", types.KindInt), col("i_title", types.KindString), col("i_cost", types.KindFloat)))
	if err == nil {
		_, err = item.SetPrimaryKey("i_id")
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestTPCWPlanGolden pins the whole shared plan byte for byte: the
// Describe() of one plan holding every TPC-W statement, then that of one
// holding the network fan-in benchmark's two statements.
func TestTPCWPlanGolden(t *testing.T) {
	var b strings.Builder
	for _, tc := range []struct {
		name   string
		schema func(t testing.TB, db *storage.Database)
		sqls   []string
	}{
		{"tpcw", func(t testing.TB, db *storage.Database) {
			if err := tpcw.CreateSchema(db); err != nil {
				t.Fatal(err)
			}
		}, tpcw.StatementSQL()},
		{"net_fanin", netItem, netSQL},
	} {
		db, err := storage.Open(storage.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		tc.schema(t, db)
		p := plan.New(db)
		for _, q := range tc.sqls {
			if _, err := p.Prepare(q); err != nil {
				t.Fatalf("%s: %v", q, err)
			}
		}
		b.WriteString("-- " + tc.name + " --\n" + p.Describe())
	}
	want, err := os.ReadFile("testdata/tpcw_plan.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("plan differs from testdata/tpcw_plan.golden; got:\n%s", got)
	}
}
