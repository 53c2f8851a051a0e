package core

import (
	"fmt"
	"runtime"
	"sort"
	"testing"

	"shareddb/internal/plan"
	"shareddb/internal/types"
)

// Engine-level contract of the worker-pool layer: any Workers setting yields
// the same per-query answers; Workers only changes how much hardware one
// generation cycle uses.

func TestWorkersResolution(t *testing.T) {
	db, closeDB := bookstore(t)
	defer closeDB()
	for _, tc := range []struct{ cfg, want int }{
		{0, runtime.GOMAXPROCS(0)},
		{1, 1},
		{-5, 1},
		{4, 4},
	} {
		gp := plan.New(db)
		e := New(db, gp, Config{Workers: tc.cfg})
		if got := e.Workers(); got != tc.want {
			t.Errorf("Config.Workers=%d resolved to %d, want %d", tc.cfg, got, tc.want)
		}
		if got := gp.Workers(); got != tc.want {
			t.Errorf("Config.Workers=%d: plan workers %d, want %d", tc.cfg, got, tc.want)
		}
		e.Close()
	}
}

// workloadStatements is the query mix used for the serial/parallel
// differential: partitioned scans (range + equality + LIKE/rest predicates)
// feeding every blocking operator — hash join, hash aggregation, sort with
// Top-N.
func workloadStatements() []string {
	return []string{
		"SELECT i_id, i_title FROM item WHERE i_id = ?",
		"SELECT i_id FROM item WHERE i_price > ?",
		"SELECT i_id, i_title FROM item WHERE i_title LIKE ?",
		"SELECT i_title, a_lname FROM item, author WHERE i_a_id = a_id AND i_subject = ?",
		"SELECT i_id, i_price FROM item WHERE i_subject = ? ORDER BY i_price DESC LIMIT 5",
		"SELECT i_subject, COUNT(*), AVG(i_price) FROM item GROUP BY i_subject",
		// the tiebreak key makes the Top-N cut deterministic: with ORDER BY
		// val alone, SQL permits any valid top-10 among tied vals, so a
		// serial-vs-parallel comparison would be comparing two answers SQL
		// both allows
		`SELECT i_id, i_title, SUM(ol_qty) AS val FROM order_line, item, author
			WHERE ol_i_id = i_id AND i_a_id = a_id AND ol_o_id > ?
			GROUP BY i_id, i_title ORDER BY val DESC, i_id LIMIT 10`,
	}
}

func workloadParams(stmt int, round int) []types.Value {
	switch stmt {
	case 0:
		return []types.Value{types.NewInt(int64(round % 100))}
	case 1:
		return []types.Value{types.NewFloat(float64(20 + round%60))}
	case 2:
		return []types.Value{types.NewString(fmt.Sprintf("Title 0%d%%", round%10))}
	case 3, 4:
		return []types.Value{types.NewString([]string{"ARTS", "SCIENCE", "HISTORY", "COOKING"}[round%4])}
	case 6:
		return []types.Value{types.NewInt(int64(round % 30))}
	default:
		return nil
	}
}

// canonical renders a result's rows as a sorted multiset fingerprint. Sorted
// because only ORDER BY queries define a total row order, and those are
// separately asserted ordered by the seed tests — which now also run at
// Workers=GOMAXPROCS via the engine default.
func canonical(rows []types.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = types.EncodeKey(r...)
	}
	sort.Strings(out)
	return out
}

func runWorkload(t *testing.T, workers int) map[string][][]string {
	t.Helper()
	db, closeDB := bookstore(t)
	defer closeDB()
	gp := plan.New(db)
	e := New(db, gp, Config{Workers: workers})
	defer e.Close()
	stmts := make([]*plan.Statement, len(workloadStatements()))
	for i, s := range workloadStatements() {
		stmts[i] = mustPrepare(t, e, s)
	}
	out := map[string][][]string{}
	// several rounds, with concurrent submission inside a round so requests
	// batch into shared generations
	for round := 0; round < 6; round++ {
		results := make([]*Result, len(stmts))
		for i, s := range stmts {
			results[i] = e.Submit(s, workloadParams(i, round))
		}
		for i, r := range results {
			if err := r.Wait(); err != nil {
				t.Fatalf("workers=%d stmt %d round %d: %v", workers, i, round, err)
			}
			key := fmt.Sprintf("stmt%d", i)
			out[key] = append(out[key], canonical(r.Rows))
		}
	}
	return out
}

func TestWorkersSerialParallelIdentical(t *testing.T) {
	serial := runWorkload(t, 1)
	for _, workers := range []int{2, 4} {
		parallel := runWorkload(t, workers)
		for key, sRounds := range serial {
			pRounds := parallel[key]
			if len(sRounds) != len(pRounds) {
				t.Fatalf("workers=%d %s: round count differs", workers, key)
			}
			for round := range sRounds {
				s, p := sRounds[round], pRounds[round]
				if len(s) != len(p) {
					t.Fatalf("workers=%d %s round %d: %d rows vs %d serial",
						workers, key, round, len(p), len(s))
				}
				for i := range s {
					if s[i] != p[i] {
						t.Fatalf("workers=%d %s round %d: row multiset differs at %d",
							workers, key, round, i)
					}
				}
			}
		}
	}
}

// Parallel workers must also hold under pipelined generations with writes
// landing between reads (the PR 1 machinery): results stay correct because
// each generation reads its own pinned snapshot regardless of how many
// workers scan it.
func TestWorkersWithPipelinedWrites(t *testing.T) {
	db, closeDB := bookstore(t)
	defer closeDB()
	gp := plan.New(db)
	e := New(db, gp, Config{Workers: 4, MaxInFlightGenerations: 4})
	defer e.Close()

	count := mustPrepare(t, e, "SELECT COUNT(*) FROM orders WHERE o_total >= ?")
	ins := mustPrepare(t, e, "INSERT INTO orders (o_id, o_c_id, o_total) VALUES (?, ?, ?)")

	base := run(t, e, count, types.NewFloat(0)).Rows[0][0].AsInt()
	const n = 40
	reads := make([]*Result, 0, n)
	for i := 0; i < n; i++ {
		e.Submit(ins, []types.Value{types.NewInt(int64(5000 + i)), types.NewInt(1), types.NewFloat(10)})
		reads = append(reads, e.Submit(count, []types.Value{types.NewFloat(0)}))
	}
	prev := base
	for i, r := range reads {
		if err := r.Wait(); err != nil {
			t.Fatal(err)
		}
		got := r.Rows[0][0].AsInt()
		// each read follows its insert in the same or later generation; the
		// count must be monotonically consistent with the write order
		if got < prev || got > base+int64(n) {
			t.Fatalf("read %d saw count %d (prev %d, base %d)", i, got, prev, base)
		}
		prev = got
	}
	if finalCount := run(t, e, count, types.NewFloat(0)).Rows[0][0].AsInt(); finalCount != base+n {
		t.Errorf("final count = %d, want %d", finalCount, base+n)
	}
}
