package shareddb

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"shareddb/internal/plan"
	"shareddb/internal/storage"
	"shareddb/internal/types"
)

// plans returns every global plan behind db (one per shard engine).
func plans(db *DB) []*plan.GlobalPlan {
	if db.router == nil {
		return []*plan.GlobalPlan{db.plan}
	}
	var out []*plan.GlobalPlan
	for _, e := range db.router.Engines() {
		out = append(out, e.Plan())
	}
	return out
}

// TestZeroConfigIsProductionPath pins that Open(Config{}) — and the same
// through the shard router — runs the paths the repository benchmark
// measures, not a reference configuration: shared scans read the columnar
// mirror, a GROUP BY over a direct base-table scan aggregates straight from
// it (the pushdown) across write generations, a scalar MAX over the primary
// key is answered from the index edge, and concurrent identical reads fold
// (inside each shard engine, on the sharded deployment), a hash join
// whose outer is a direct base-table scan reads that outer from the column
// mirror, skipping the rows whose INT key no build row has, a GROUP BY on
// that join's inner key aggregates inside the join, and a Top-N over a join
// into a unique index looks the inner rows up only for the rows it keeps.
func TestZeroConfigIsProductionPath(t *testing.T) {
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			db, err := Open(Config{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if _, err := db.Exec(`CREATE TABLE item (i_id INT, i_subject VARCHAR, i_price FLOAT, PRIMARY KEY (i_id))`); err != nil {
				t.Fatal(err)
			}
			const items = 64
			for i := 0; i < items; i++ {
				if _, err := db.Exec(`INSERT INTO item VALUES (?, ?, ?)`, i, fmt.Sprintf("S%d", i%4), 1.0); err != nil {
					t.Fatal(err)
				}
			}
			group, err := db.Prepare(`SELECT i_subject, COUNT(*), SUM(i_price) FROM item GROUP BY i_subject`)
			if err != nil {
				t.Fatal(err)
			}
			scan, err := db.Prepare(`SELECT i_id FROM item WHERE i_price > ?`)
			if err != nil {
				t.Fatal(err)
			}
			// stock is joined on both tables' primary keys, so the join stays
			// shard-local; its predicate makes the inner a scan, so the join is
			// a hash join, and item is its direct-scan outer.
			if _, err := db.Exec(`CREATE TABLE stock (s_i_id INT, s_qty INT, PRIMARY KEY (s_i_id))`); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < items; i += 2 {
				if _, err := db.Exec(`INSERT INTO stock VALUES (?, ?)`, i, i%8); err != nil {
					t.Fatal(err)
				}
			}
			if rows, err := db.Query(`SELECT i_id, s_qty FROM item, stock WHERE item.i_id = stock.s_i_id AND stock.s_qty < ? AND item.i_id >= ?`, 4, 16); err != nil {
				t.Fatal(err)
			} else if rows.Len() != (items-16)/4 {
				t.Fatalf("scan-fed hash join returned %d rows, want %d", rows.Len(), (items-16)/4)
			}
			// Grouped on stock's key, summing an item column: the group-by
			// aggregates inside the hash join (group-join).
			if rows, err := db.Query(`SELECT s_i_id, s_qty, SUM(i_price) FROM item, stock WHERE item.i_id = stock.s_i_id AND stock.s_qty < ? GROUP BY s_i_id, s_qty`, 4); err != nil {
				t.Fatal(err)
			} else if rows.Len() != items/4 {
				t.Fatalf("group-join returned %d groups, want %d", rows.Len(), items/4)
			}
			// stock's bare primary-key join under a Top-N by item columns: the
			// sort orders items and joins stock only for the rows it keeps
			// (items without stock join nothing and take no place).
			if rows, err := db.Query(`SELECT i_id, s_qty FROM item, stock WHERE item.i_id = stock.s_i_id AND item.i_subject = ? ORDER BY item.i_id DESC LIMIT 3`, "S1"); err != nil {
				t.Fatal(err)
			} else if all := rows.All(); len(all) != 0 {
				t.Fatalf("Top-N over items without stock returned %v, want no rows", all)
			}
			if rows, err := db.Query(`SELECT i_id, s_qty FROM item, stock WHERE item.i_id = stock.s_i_id AND item.i_subject = ? ORDER BY item.i_id DESC LIMIT 3`, "S2"); err != nil {
				t.Fatal(err)
			} else if all := rows.All(); len(all) != 3 || all[0][0].AsInt() != items-2 || all[2][0].AsInt() != items-10 {
				t.Fatalf("Top-N over items with stock returned %v, want items %d, %d and %d", all, items-2, items-6, items-10)
			}
			if rows, err := db.Query(`SELECT MAX(i_id) FROM item`); err != nil {
				t.Fatal(err)
			} else if all := rows.All(); len(all) != 1 || all[0][0].AsInt() != items-1 {
				t.Fatalf("MAX(i_id) = %v, want %d", all, items-1)
			}

			// The same group read, one per generation, with a write between
			// each pair: every generation's pushdown must see the new row.
			for round := 0; round < 6; round++ {
				if _, err := db.Exec(`UPDATE item SET i_price = ? WHERE i_id = ?`, float64(round+2), round); err != nil {
					t.Fatal(err)
				}
				rows, err := group.Query()
				if err != nil {
					t.Fatal(err)
				}
				if rows.Len() != 4 {
					t.Fatalf("round %d: %d groups, want 4", round, rows.Len())
				}
				total := 0.0
				for rows.Next() {
					var subject string
					var n int
					var sum float64
					if err := rows.Scan(&subject, &n, &sum); err != nil {
						t.Fatal(err)
					}
					if n != items/4 {
						t.Fatalf("round %d: group %s has %d rows, want %d", round, subject, n, items/4)
					}
					total += sum
				}
				// items rows at 1.0, rows 0..round repriced to 2.0..round+2.
				want := float64(items)
				for r := 0; r <= round; r++ {
					want += float64(r + 1)
				}
				if total != want {
					t.Fatalf("round %d: SUM(i_price) over all groups = %v, want %v", round, total, want)
				}
			}

			// Bursts of identical concurrent reads until one folds.
			deadline := time.Now().Add(10 * time.Second)
			for db.Stats().FoldedQueries == 0 && time.Now().Before(deadline) {
				var wg sync.WaitGroup
				for i := 0; i < 16; i++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						rows, err := scan.Query(1.5)
						if err != nil {
							t.Error(err)
						} else if rows.Len() != 6 {
							t.Errorf("scan returned %d rows, want 6", rows.Len())
						}
					}()
				}
				wg.Wait()
			}

			st := db.Stats()
			if st.FoldedQueries == 0 {
				t.Error("identical concurrent reads never folded")
			}
			var paths plan.PathCounts
			for _, gp := range plans(db) {
				pc := gp.PathCycles()
				paths.ColScan += pc.ColScan
				paths.ColAgg += pc.ColAgg
				paths.IndexEdge += pc.IndexEdge
				paths.JoinScan += pc.JoinScan
				paths.JoinKeyFilter += pc.JoinKeyFilter
				paths.GroupJoin += pc.GroupJoin
				paths.SortLookup += pc.SortLookup
			}
			if paths.ColScan == 0 {
				t.Error("no scan cycle read the columnar mirror")
			}
			if paths.ColAgg == 0 {
				t.Error("the direct-scan GROUP BY never ran as an aggregation pushdown")
			}
			if paths.IndexEdge == 0 {
				t.Error("MAX over the primary key never took the index-edge probe")
			}
			if paths.JoinScan == 0 {
				t.Error("the scan-fed hash join never read its outer from the column mirror")
			}
			if paths.JoinKeyFilter == 0 {
				t.Error("the scan-fed hash join over INT keys never filtered its outer by the build keys")
			}
			if paths.GroupJoin == 0 {
				t.Error("the GROUP BY on the hash join's inner key never aggregated inside the join")
			}
			if paths.SortLookup == 0 {
				t.Error("the Top-N over a unique-index join never deferred the join past its cut")
			}
		})
	}
}

// TestWritesBehindTheEngineAreRead pins that storage changed without passing
// through a generation's write phase (a bulk load through DB.Storage) is
// visible to the next read: the column mirror's pending log carries every
// write, whoever made it, so a group-by that reads its input from the
// mirror (no scan node in between) never serves a stale aggregate.
func TestWritesBehindTheEngineAreRead(t *testing.T) {
	db, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE kv (k INT, g INT, PRIMARY KEY (k))`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := db.Exec(`INSERT INTO kv VALUES (?, ?)`, i, i%2); err != nil {
			t.Fatal(err)
		}
	}
	stmt, err := db.Prepare(`SELECT g, COUNT(*) FROM kv GROUP BY g`)
	if err != nil {
		t.Fatal(err)
	}
	count := func() int {
		t.Helper()
		rows, err := stmt.Query()
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for rows.Next() {
			var g, n int
			if err := rows.Scan(&g, &n); err != nil {
				t.Fatal(err)
			}
			total += n
		}
		return total
	}
	// The mirror is built and synced when the bulk load lands.
	for i := 0; i < 3; i++ {
		if got := count(); got != 8 {
			t.Fatalf("COUNT before the bulk load = %d, want 8", got)
		}
	}
	results, _ := db.Storage().ApplyOps([]storage.WriteOp{
		{Table: "kv", Kind: storage.WInsert, Row: types.Row{types.NewInt(100), types.NewInt(0)}},
		{Table: "kv", Kind: storage.WInsert, Row: types.Row{types.NewInt(101), types.NewInt(1)}},
	})
	for _, res := range results {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	if got := count(); got != 10 {
		t.Fatalf("COUNT after a bulk load behind the engine = %d, want 10", got)
	}
}
