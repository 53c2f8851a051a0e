package shard

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"shareddb/internal/baseline"
	"shareddb/internal/core"
	"shareddb/internal/operators"
	"shareddb/internal/plan"
	"shareddb/internal/types"
)

// Sharded folding tests: the router does not fold, so duplicates collapse
// inside each shard engine — every per-shard part of a scatter read, and
// every RouteAny read that round-robins onto the same shard. The wide
// heartbeat opens a deterministic fold window on every shard engine,
// exactly like the core fold tests.
const routerFoldWindow = 400 * time.Millisecond

func foldRouterCfg() core.Config {
	return core.Config{Heartbeat: routerFoldWindow}
}

// warmRouter runs one broadcast read to completion so every shard engine's
// heartbeat clock is ticking and the next submissions pool in one window.
func warmRouter(t *testing.T, r *Router, s *plan.Statement, params []types.Value) {
	t.Helper()
	res := r.Submit(s, params)
	if err := res.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestFoldScatterDuplicates(t *testing.T) {
	for _, shards := range shardCounts(t) {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			router := newRouterEnv(t, shards, foldRouterCfg())
			oracle := newOracle(t)

			const sqlText = `SELECT i_id, i_title FROM item WHERE i_subject = ?`
			stmt, err := router.Prepare(sqlText)
			if err != nil {
				t.Fatal(err)
			}
			oStmt, err := oracle.Prepare(sqlText)
			if err != nil {
				t.Fatal(err)
			}
			params := []types.Value{types.NewString("SCIENCE")}
			warmRouter(t, router, stmt, []types.Value{types.NewString("ARTS")})
			before := router.Stats()

			const dup = 8
			results := make([]*core.Result, dup)
			for i := range results {
				results[i] = router.Submit(stmt, append([]types.Value(nil), params...))
			}
			for i, res := range results {
				if err := res.Wait(); err != nil {
					t.Fatalf("duplicate %d: %v", i, err)
				}
			}
			want, err := oStmt.Exec(params)
			if err != nil {
				t.Fatal(err)
			}
			for i, res := range results {
				if !sameRows(res.Rows, want.Rows) {
					t.Fatalf("duplicate %d: %d rows vs oracle %d:\n%v\n%v",
						i, len(res.Rows), len(want.Rows), canon(res.Rows), canon(want.Rows))
				}
				// Every duplicate merges the same folded per-shard rows:
				// identical order, not just identical multiset.
				for j := range res.Rows {
					for k := range res.Rows[j] {
						if !res.Rows[j][k].Equal(results[0].Rows[j][k]) {
							t.Fatalf("duplicate %d row %d differs from lead's", i, j)
						}
					}
				}
			}
			// Each shard engine runs its part once and folds the other
			// dup-1 parts: both counters count per-shard activations.
			st := router.Stats()
			folded := st.FoldedQueries - before.FoldedQueries
			run := st.QueriesRun - before.QueriesRun
			if want := uint64(shards * (dup - 1)); folded != want {
				t.Fatalf("folded %d, want %d (dup-1 per shard)", folded, want)
			}
			if run != uint64(shards) {
				t.Fatalf("engines ran %d activations, want %d (one per shard)", run, shards)
			}
			// shareddb.Stats.FoldHitRate over the deltas (the public
			// package imports this one, so the test cannot call it).
			rate := float64(folded) / float64(folded+run)
			if want := float64(dup-1) / dup; rate != want {
				t.Fatalf("fold hit rate %v, want %v", rate, want)
			}
		})
	}
}

// TestFoldRouteAnyDuplicatesFoldPerShard: RouteAny reads round-robin, so
// duplicates spread over the shards and fold only with the ones that land
// on the same shard.
func TestFoldRouteAnyDuplicatesFoldPerShard(t *testing.T) {
	const shards = 3
	router := newRouterEnv(t, shards, foldRouterCfg())
	oracle := newOracle(t)

	// author is replicated: this read is RouteAny.
	const sqlText = `SELECT a_lname FROM author WHERE a_id = ?`
	stmt, err := router.Prepare(sqlText)
	if err != nil {
		t.Fatal(err)
	}
	oStmt, err := oracle.Prepare(sqlText)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := router.Prepare(`SELECT i_id FROM item WHERE i_subject = ?`)
	if err != nil {
		t.Fatal(err)
	}
	warmRouter(t, router, warm, []types.Value{types.NewString("ARTS")})
	before := router.Stats()

	const dup = 6
	params := []types.Value{types.NewInt(7)}
	results := make([]*core.Result, dup)
	for i := range results {
		results[i] = router.Submit(stmt, append([]types.Value(nil), params...))
	}
	for i, res := range results {
		if err := res.Wait(); err != nil {
			t.Fatalf("duplicate %d: %v", i, err)
		}
	}
	want, err := oStmt.Exec(params)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if !sameRows(res.Rows, want.Rows) {
			t.Fatalf("duplicate %d mismatch: %v vs %v", i, canon(res.Rows), canon(want.Rows))
		}
	}
	// 6 duplicates round-robin 2 onto each of 3 shards: each shard runs one
	// and folds one.
	st := router.Stats()
	if got := st.FoldedQueries - before.FoldedQueries; got != dup-shards {
		t.Fatalf("folded %d, want %d (one per shard)", got, dup-shards)
	}
	if got := st.QueriesRun - before.QueriesRun; got != shards {
		t.Fatalf("engines ran %d activations, want %d (one per shard)", got, shards)
	}
}

// TestDifferentialFoldSharded replays a duplicate-heavy randomized read
// workload through the router with folding on and off at every configured
// shard count, asserting each client's rows match the query-at-a-time
// oracle bit-for-bit either way.
func TestDifferentialFoldSharded(t *testing.T) {
	t.Cleanup(operators.PoisonReleasedRowsForTest())
	templates := []struct {
		sql     string
		mkParam func(r *rand.Rand) []types.Value
	}{
		{"SELECT i_id, i_title FROM item WHERE i_subject = ?",
			func(r *rand.Rand) []types.Value {
				return []types.Value{types.NewString(fixtureSubjects[r.Intn(len(fixtureSubjects))])}
			}},
		{"SELECT i_title, i_price FROM item WHERE i_id = ?",
			func(r *rand.Rand) []types.Value { return []types.Value{types.NewInt(int64(r.Intn(6)))} }},
		{"SELECT a_lname FROM author WHERE a_id = ?",
			func(r *rand.Rand) []types.Value { return []types.Value{types.NewInt(int64(r.Intn(5)))} }},
		{"SELECT i_title, a_lname FROM item, author WHERE i_a_id = a_id AND i_subject = ?",
			func(r *rand.Rand) []types.Value {
				return []types.Value{types.NewString(fixtureSubjects[r.Intn(2)])}
			}},
		{"SELECT i_subject, COUNT(*), AVG(i_price) FROM item WHERE i_price > ? GROUP BY i_subject",
			func(r *rand.Rand) []types.Value {
				return []types.Value{types.NewFloat(float64(r.Intn(3)) * 25)}
			}},
		{"SELECT i_id, i_price FROM item WHERE i_subject = ? ORDER BY i_price DESC, i_id LIMIT 8",
			func(r *rand.Rand) []types.Value {
				return []types.Value{types.NewString(fixtureSubjects[r.Intn(2)])}
			}},
	}
	for _, shards := range shardCounts(t) {
		for _, fold := range []bool{false, true} {
			t.Run(fmt.Sprintf("shards=%d/fold=%v", shards, fold), func(t *testing.T) {
				router := newRouterEnv(t, shards, core.Config{NoFold: !fold})
				oracle := newOracle(t)

				stmts := make([]*plan.Statement, len(templates))
				oStmts := make([]*baseline.Stmt, len(templates))
				for i, tpl := range templates {
					var err error
					if stmts[i], err = router.Prepare(tpl.sql); err != nil {
						t.Fatal(err)
					}
					if oStmts[i], err = oracle.Prepare(tpl.sql); err != nil {
						t.Fatal(err)
					}
				}

				r := rand.New(rand.NewSource(int64(7000 + shards)))
				for round := 0; round < 6; round++ {
					n := 24 + r.Intn(16)
					idxs := make([]int, n)
					params := make([][]types.Value, n)
					results := make([]*core.Result, n)
					for i := 0; i < n; i++ {
						idxs[i] = r.Intn(len(templates))
						params[i] = templates[idxs[i]].mkParam(r)
						results[i] = router.Submit(stmts[idxs[i]], params[i])
					}
					for i := 0; i < n; i++ {
						if err := results[i].Wait(); err != nil {
							t.Fatalf("round %d query %d: %v", round, i, err)
						}
						want, err := oStmts[idxs[i]].Exec(params[i])
						if err != nil {
							t.Fatal(err)
						}
						if !sameRows(results[i].Rows, want.Rows) {
							t.Fatalf("round %d fold=%v: mismatch for %q params %v:\nrouter (%d rows): %v\noracle (%d rows): %v",
								round, fold, templates[idxs[i]].sql, params[i],
								len(results[i].Rows), canon(results[i].Rows),
								len(want.Rows), canon(want.Rows))
						}
					}
				}
				st := router.Stats()
				if !fold && st.FoldedQueries != 0 {
					t.Fatalf("folding off but FoldedQueries = %d", st.FoldedQueries)
				}
			})
		}
	}
}
