package shard_test

import (
	"os"
	"strings"
	"testing"

	"shareddb/internal/core"
	"shareddb/internal/shard"
	"shareddb/internal/storage"
	"shareddb/internal/tpcw"
	"shareddb/internal/types"
)

// TestTPCWShardedPlanGolden pins the sharded plan byte for byte: the
// router's Describe() (shard 0's plan, partial statements included) for
// every TPC-W statement on two shards with the TPC-W placement, then for
// the network fan-in benchmark's two statements over their own item table.
func TestTPCWShardedPlanGolden(t *testing.T) {
	netItem := func(db *storage.Database) error {
		col := func(name string, k types.Kind) types.Column {
			return types.Column{Qualifier: "item", Name: name, Kind: k}
		}
		item, err := db.CreateTable("item", types.NewSchema(col("i_id", types.KindInt), col("i_title", types.KindString), col("i_cost", types.KindFloat)))
		if err == nil {
			_, err = item.SetPrimaryKey("i_id")
		}
		return err
	}
	var b strings.Builder
	for _, tc := range []struct {
		name      string
		schema    func(db *storage.Database) error
		placement shard.Placement
		sqls      []string
	}{
		{"tpcw", tpcw.CreateSchema, tpcw.ShardedPlacement(), tpcw.StatementSQL()},
		{"net_fanin", netItem, shard.Placement{}, []string{
			`SELECT i_id, i_title FROM item WHERE i_title LIKE ?`,
			`SELECT i_id, i_title, i_cost FROM item WHERE i_id = ?`,
		}},
	} {
		dbs := make([]*storage.Database, 2)
		for i := range dbs {
			db, err := storage.Open(storage.Options{Shard: storage.ShardInfo{Index: i, Count: len(dbs)}})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if err := tc.schema(db); err != nil {
				t.Fatal(err)
			}
			dbs[i] = db
		}
		r, err := shard.New(dbs, core.Config{}, tc.placement)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		for _, q := range tc.sqls {
			if _, err := r.Prepare(q); err != nil {
				t.Fatalf("%s: %v", q, err)
			}
		}
		b.WriteString("-- " + tc.name + " --\n" + r.Describe())
	}
	want, err := os.ReadFile("testdata/tpcw_sharded_plan.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("sharded plan differs from testdata/tpcw_sharded_plan.golden; got:\n%s", got)
	}
}
