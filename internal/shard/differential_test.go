package shard

import (
	"fmt"
	"math/rand"
	"testing"

	"shareddb/internal/baseline"
	"shareddb/internal/core"
	"shareddb/internal/operators"
	"shareddb/internal/plan"
	"shareddb/internal/storage"
	"shareddb/internal/testutil"
	"shareddb/internal/types"
)

// Differential testing for the sharded engine: the router must return, for
// every query, exactly the rows a query-at-a-time engine over the unsharded
// data returns — at any shard count, through every merge path (concat,
// ordered k-way merge, partial-aggregate recombination), and with writes
// interleaved between read bursts. SHAREDDB_TEST_SHARDS picks the counts
// (CI runs 1 and 3).

// canon/sameRows live in internal/testutil (floats rounded: the
// cross-shard partial-sum association differs from arrival order).
var (
	canon    = testutil.CanonRows
	sameRows = testutil.SameRows
)

type template struct {
	sql     string
	write   bool
	mkParam func(r *rand.Rand) []types.Value
}

// sweepTemplates covers every routing and merge class: point reads, shard-
// local index reads, broadcast scans, joins, ordered merges with LIMIT
// re-cuts, grouped recombination (COUNT/SUM/AVG/MIN/MAX), DISTINCT
// aggregates under HAVING, scalar aggregates, and SELECT DISTINCT.
func sweepTemplates() []template {
	subjects := append([]string{}, fixtureSubjects...)
	subjects = append(subjects, "NONE")
	subj := func(r *rand.Rand) types.Value {
		return types.NewString(subjects[r.Intn(len(subjects))])
	}
	return []template{
		{sql: "SELECT i_title, i_price FROM item WHERE i_id = ?",
			mkParam: func(r *rand.Rand) []types.Value { return []types.Value{types.NewInt(int64(r.Intn(140)))} }},
		{sql: "SELECT i_id, i_title FROM item WHERE i_subject = ?",
			mkParam: func(r *rand.Rand) []types.Value { return []types.Value{subj(r)} }},
		{sql: "SELECT i_id FROM item WHERE i_price > ? AND i_price < ?",
			mkParam: func(r *rand.Rand) []types.Value {
				lo := r.Float64() * 60
				return []types.Value{types.NewFloat(lo), types.NewFloat(lo + 25)}
			}},
		{sql: "SELECT i_id, i_title FROM item WHERE i_title LIKE ?",
			mkParam: func(r *rand.Rand) []types.Value {
				return []types.Value{types.NewString(fmt.Sprintf("%%%d%%", r.Intn(10)))}
			}},
		{sql: "SELECT i_title, a_lname FROM item, author WHERE i_a_id = a_id AND i_subject = ?",
			mkParam: func(r *rand.Rand) []types.Value { return []types.Value{subj(r)} }},
		{sql: "SELECT i_id, i_title, a_lname FROM item, author WHERE i_a_id = a_id AND i_id = ?",
			mkParam: func(r *rand.Rand) []types.Value { return []types.Value{types.NewInt(int64(r.Intn(140)))} }},
		// ordered merge with LIMIT re-cut; i_id tie-break keeps the Top-N
		// deterministic for both engines
		{sql: "SELECT i_id, i_price FROM item WHERE i_subject = ? ORDER BY i_price DESC, i_id LIMIT 8",
			mkParam: func(r *rand.Rand) []types.Value { return []types.Value{subj(r)} }},
		// grouped Top-N over a join: partial SUM recombination + final sort
		{sql: `SELECT i_id, SUM(ol_qty) AS val FROM order_line, item
		       WHERE ol_i_id = i_id AND ol_o_id > ? GROUP BY i_id ORDER BY val DESC, i_id LIMIT 10`,
			mkParam: func(r *rand.Rand) []types.Value { return []types.Value{types.NewInt(int64(r.Intn(50)))} }},
		// COUNT/AVG recombination with NULL prices in the fixture
		{sql: "SELECT i_subject, COUNT(*), AVG(i_price), MIN(i_price), MAX(i_price) FROM item WHERE i_price > ? GROUP BY i_subject",
			mkParam: func(r *rand.Rand) []types.Value { return []types.Value{types.NewFloat(r.Float64() * 80)} }},
		// HAVING over a DISTINCT aggregate (the rewrite ships per-shard
		// distinct (group, value) pairs; HAVING runs on the recombined row)
		{sql: "SELECT i_subject, COUNT(DISTINCT i_a_id) FROM item GROUP BY i_subject HAVING COUNT(DISTINCT i_a_id) > ?",
			mkParam: func(r *rand.Rand) []types.Value { return []types.Value{types.NewInt(int64(r.Intn(30)))} }},
		// HAVING over a DISTINCT aggregate that is not in the select list,
		// plus ORDER BY over the group key
		{sql: `SELECT i_subject, MAX(i_price) FROM item GROUP BY i_subject
		       HAVING COUNT(DISTINCT i_a_id) > ? ORDER BY i_subject`,
			mkParam: func(r *rand.Rand) []types.Value { return []types.Value{types.NewInt(int64(r.Intn(30)))} }},
		// scalar DISTINCT aggregates (per-shard rewrite groups by the arg)
		{sql: "SELECT COUNT(DISTINCT i_subject), SUM(DISTINCT i_a_id) FROM item WHERE i_price > ?",
			mkParam: func(r *rand.Rand) []types.Value { return []types.Value{types.NewFloat(r.Float64() * 80)} }},
		// plain scalar aggregate (every shard ships its scalar row)
		{sql: "SELECT COUNT(*) FROM orders WHERE o_c_id = ?",
			mkParam: func(r *rand.Rand) []types.Value { return []types.Value{types.NewInt(int64(r.Intn(12)))} }},
		{sql: "SELECT DISTINCT i_subject FROM item WHERE i_price < ?",
			mkParam: func(r *rand.Rand) []types.Value { return []types.Value{types.NewFloat(r.Float64() * 90)} }},
		{sql: "SELECT o_id, o_total FROM orders WHERE o_id = ?",
			mkParam: func(r *rand.Rand) []types.Value { return []types.Value{types.NewInt(int64(r.Intn(70)))} }},
		// writes interleaved between read bursts: point insert (router
		// hashes the new key), point update, broadcast update
		{sql: "INSERT INTO item VALUES (?, ?, ?, ?, ?)", write: true,
			mkParam: nil}, // params assigned by the sweep (fresh keys)
		{sql: "UPDATE item SET i_price = ? WHERE i_id = ?", write: true,
			mkParam: func(r *rand.Rand) []types.Value {
				return []types.Value{types.NewFloat(r.Float64() * 100), types.NewInt(int64(r.Intn(140)))}
			}},
		{sql: "UPDATE item SET i_price = ? WHERE i_subject = ? AND i_price < ?", write: true,
			mkParam: func(r *rand.Rand) []types.Value {
				return []types.Value{types.NewFloat(r.Float64() * 100),
					types.NewString(fixtureSubjects[r.Intn(len(fixtureSubjects))]),
					types.NewFloat(r.Float64() * 20)}
			}},
		// replicated-table write: every shard applies it, reported once
		{sql: "UPDATE author SET a_lname = ? WHERE a_id = ?", write: true,
			mkParam: func(r *rand.Rand) []types.Value {
				return []types.Value{types.NewString(fmt.Sprintf("Ln%d", r.Intn(40))),
					types.NewInt(int64(r.Intn(30)))}
			}},
	}
}

// TestDifferentialShardedVsOracle runs the randomized workload through the
// router at every configured shard count — production shard engines, then
// all-reference ones (row scan, no folding) — and asserts
// identical result multisets against the per-query baseline oracle, with
// writes applied to both sides between read bursts.
func TestDifferentialShardedVsOracle(t *testing.T) {
	t.Cleanup(operators.PoisonReleasedRowsForTest())
	for _, shards := range shardCounts(t) {
		for _, ref := range []bool{false, true} {
			t.Run(fmt.Sprintf("shards=%d/reference=%v", shards, ref), func(t *testing.T) {
				differentialShardedVsOracle(t, shards, core.Config{RowScan: ref, NoFold: ref, MaxInFlightGenerations: 4})
			})
		}
	}
}

func differentialShardedVsOracle(t *testing.T, shards int, cfg core.Config) {
	router := newRouterEnv(t, shards, cfg)
	oracle := newOracle(t)

	templates := sweepTemplates()
	routerStmts := make([]*plan.Statement, len(templates))
	oracleStmts := make([]*baseline.Stmt, len(templates))
	for i, tpl := range templates {
		var err error
		routerStmts[i], err = router.Prepare(tpl.sql)
		if err != nil {
			t.Fatalf("router prepare %q: %v", tpl.sql, err)
		}
		oracleStmts[i], err = oracle.Prepare(tpl.sql)
		if err != nil {
			t.Fatalf("oracle prepare %q: %v", tpl.sql, err)
		}
	}

	var reads, writes []int
	for i, tpl := range templates {
		if tpl.write {
			writes = append(writes, i)
		} else {
			reads = append(reads, i)
		}
	}

	r := rand.New(rand.NewSource(int64(4000 + shards)))
	nextItemID := int64(1000)
	for round := 0; round < 12; round++ {
		// Write phase: a few writes, mirrored on the oracle and
		// applied serially (the router's cross-shard write ordering
		// is per-statement).
		for w := 0; w < 3; w++ {
			ti := writes[r.Intn(len(writes))]
			var params []types.Value
			if templates[ti].mkParam == nil { // fresh-key insert
				params = []types.Value{
					types.NewInt(nextItemID),
					types.NewString(fmt.Sprintf("Title %02d new %d", nextItemID%10, nextItemID)),
					types.NewInt(nextItemID % 30),
					types.NewString(fixtureSubjects[nextItemID%int64(len(fixtureSubjects))]),
					types.NewFloat(float64(nextItemID%800) / 10),
				}
				nextItemID++
			} else {
				params = templates[ti].mkParam(r)
			}
			res := router.Submit(routerStmts[ti], params)
			if err := res.Wait(); err != nil {
				t.Fatalf("round %d router write %q: %v", round, templates[ti].sql, err)
			}
			want, err := oracleStmts[ti].Exec(params)
			if err != nil {
				t.Fatalf("oracle write: %v", err)
			}
			if res.RowsAffected != want.RowsAffected {
				t.Fatalf("round %d write %q: router affected %d, oracle %d",
					round, templates[ti].sql, res.RowsAffected, want.RowsAffected)
			}
		}

		// Read burst: concurrent submissions batch into generations
		// on every shard.
		n := 5 + r.Intn(25)
		idxs := make([]int, n)
		params := make([][]types.Value, n)
		results := make([]*core.Result, n)
		for i := 0; i < n; i++ {
			idxs[i] = reads[r.Intn(len(reads))]
			params[i] = templates[idxs[i]].mkParam(r)
			results[i] = router.Submit(routerStmts[idxs[i]], params[i])
		}
		for i := 0; i < n; i++ {
			if err := results[i].Wait(); err != nil {
				t.Fatalf("round %d query %d (%s): %v", round, i, templates[idxs[i]].sql, err)
			}
			want, err := oracleStmts[idxs[i]].Exec(params[i])
			if err != nil {
				t.Fatalf("oracle exec: %v", err)
			}
			if !sameRows(results[i].Rows, want.Rows) {
				t.Fatalf("round %d shards=%d: mismatch for %q params %v:\nrouter (%d rows): %v\noracle (%d rows): %v",
					round, shards, templates[idxs[i]].sql, params[i],
					len(results[i].Rows), canon(results[i].Rows),
					len(want.Rows), canon(want.Rows))
			}
		}
	}
}

// TestSingleShardByteIdentical pins the Shards=1 contract: the router is a
// pure pass-through, returning exactly what a directly-driven engine over
// the same data returns — same rows, same order, same schema.
func TestSingleShardByteIdentical(t *testing.T) {
	router := newRouterEnv(t, 1, core.Config{Workers: 1, MaxInFlightGenerations: 1})

	db, err := storage.Open(storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mkSchema(t, db)
	if results, _ := db.ApplyOps(fixtureOps()); results != nil {
		for _, res := range results {
			if res.Err != nil {
				t.Fatal(res.Err)
			}
		}
	}
	gp := plan.New(db)
	eng := core.New(db, gp, core.Config{Workers: 1, MaxInFlightGenerations: 1})
	defer eng.Close()

	queries := []struct {
		sql    string
		params []types.Value
	}{
		{"SELECT i_title, i_price FROM item WHERE i_id = ?", []types.Value{types.NewInt(17)}},
		{"SELECT i_id, i_title FROM item WHERE i_subject = ?", []types.Value{types.NewString("ARTS")}},
		{"SELECT i_id, i_price FROM item WHERE i_subject = ? ORDER BY i_price DESC, i_id LIMIT 8",
			[]types.Value{types.NewString("SCIENCE")}},
		{"SELECT i_subject, COUNT(*), AVG(i_price) FROM item GROUP BY i_subject", nil},
		{"SELECT i_subject, COUNT(DISTINCT i_a_id) FROM item GROUP BY i_subject HAVING COUNT(DISTINCT i_a_id) > ?",
			[]types.Value{types.NewInt(2)}},
		{"SELECT DISTINCT i_subject FROM item WHERE i_price < ?", []types.Value{types.NewFloat(50)}},
		{"SELECT COUNT(*) FROM orders WHERE o_c_id = ?", []types.Value{types.NewInt(3)}},
	}
	for _, q := range queries {
		rs, err := router.Prepare(q.sql)
		if err != nil {
			t.Fatalf("router prepare %q: %v", q.sql, err)
		}
		es, err := eng.Prepare(q.sql)
		if err != nil {
			t.Fatalf("engine prepare %q: %v", q.sql, err)
		}
		rres := router.Submit(rs, q.params)
		if err := rres.Wait(); err != nil {
			t.Fatal(err)
		}
		eres := eng.Submit(es, q.params)
		if err := eres.Wait(); err != nil {
			t.Fatal(err)
		}
		if len(rres.Rows) != len(eres.Rows) {
			t.Fatalf("%q: router %d rows, engine %d", q.sql, len(rres.Rows), len(eres.Rows))
		}
		for i := range rres.Rows {
			if len(rres.Rows[i]) != len(eres.Rows[i]) {
				t.Fatalf("%q row %d: width differs", q.sql, i)
			}
			for j := range rres.Rows[i] {
				if rres.Rows[i][j] != eres.Rows[i][j] {
					t.Fatalf("%q row %d col %d: router %#v, engine %#v (byte-identity broken)",
						q.sql, i, j, rres.Rows[i][j], eres.Rows[i][j])
				}
			}
		}
	}
}
