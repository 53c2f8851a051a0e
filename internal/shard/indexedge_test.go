package shard

import (
	"testing"

	"shareddb/internal/baseline"
	"shareddb/internal/core"
	"shareddb/internal/plan"
	"shareddb/internal/types"
)

// The index-edge rule through Shards: 2: every shard answers its partial
// MIN/MAX from the edge of its own index, the router recombines them, and
// the result equals the unsharded oracle's full scan — also when the global
// extreme is deleted (the answer moves to another shard) or a larger key
// arrives.
func TestIndexEdgeThroughShards(t *testing.T) {
	router := newRouterEnv(t, 2, core.Config{})
	oracle := newOracle(t)
	reads := []string{
		"SELECT MAX(i_id) FROM item",
		"SELECT MIN(i_id) FROM item",
		"SELECT MAX(o_id), MAX(o_id) + 1 FROM orders",
	}
	writes := []struct {
		sql    string
		params []types.Value
	}{
		{"DELETE FROM item WHERE i_id = ?", []types.Value{types.NewInt(119)}},
		{"DELETE FROM item WHERE i_id = ?", []types.Value{types.NewInt(118)}},
		{"DELETE FROM item WHERE i_id = ?", []types.Value{types.NewInt(0)}},
		{"INSERT INTO item VALUES (?, ?, ?, ?, ?)", []types.Value{types.NewInt(500), types.NewString("late"), types.NewInt(1), types.NewString("ARTS"), types.Null}},
		{"DELETE FROM orders WHERE o_id = ?", []types.Value{types.NewInt(59)}},
	}
	var routerStmts []*plan.Statement
	var oracleStmts []*baseline.Stmt
	for _, sqlText := range reads {
		rs, err := router.Prepare(sqlText)
		if err != nil {
			t.Fatal(err)
		}
		os, err := oracle.Prepare(sqlText)
		if err != nil {
			t.Fatal(err)
		}
		routerStmts, oracleStmts = append(routerStmts, rs), append(oracleStmts, os)
	}
	check := func(when string) {
		t.Helper()
		for i, sqlText := range reads {
			res := router.Submit(routerStmts[i], nil)
			if err := res.Wait(); err != nil {
				t.Fatal(err)
			}
			want, err := oracleStmts[i].Exec(nil)
			if err != nil {
				t.Fatal(err)
			}
			if !sameRows(res.Rows, want.Rows) {
				t.Fatalf("%s: %q: router %v, oracle %v", when, sqlText, canon(res.Rows), canon(want.Rows))
			}
		}
	}
	check("fixture")
	for _, w := range writes {
		rs, err := router.Prepare(w.sql)
		if err != nil {
			t.Fatal(err)
		}
		os, err := oracle.Prepare(w.sql)
		if err != nil {
			t.Fatal(err)
		}
		if err := router.Submit(rs, w.params).Wait(); err != nil {
			t.Fatalf("%q %v: %v", w.sql, w.params, err)
		}
		if _, err := os.Exec(w.params); err != nil {
			t.Fatal(err)
		}
		check(w.sql)
	}
	for i, e := range router.Engines() {
		if e.Plan().PathCycles().IndexEdge == 0 {
			t.Errorf("shard %d never dispatched an index-edge probe cycle", i)
		}
	}
}
