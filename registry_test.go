package shareddb

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// planStatements counts the statements registered in every engine's plan
// (one entry per shard engine).
func planStatements(db *DB) []int {
	if db.router == nil {
		return []int{len(db.plan.Statements())}
	}
	var out []int
	for _, e := range db.router.Engines() {
		out = append(out, len(e.Plan().Statements()))
	}
	return out
}

// TestAdHocTextRegistersOnce: repeating one ad-hoc text — through DB.Exec,
// DB.Query or Tx.Exec — compiles it into every engine's plan once; every
// later call is a registry hit on the same statement (on a router, the same
// canonical handle).
func TestAdHocTextRegistersOnce(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			db, err := Open(Config{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if _, err := db.Exec(`CREATE TABLE t (id INT, v INT, PRIMARY KEY (id))`); err != nil {
				t.Fatal(err)
			}
			// addsOne asserts that fn adds exactly one statement to every
			// engine's plan.
			addsOne := func(what string, fn func()) {
				t.Helper()
				before := planStatements(db)
				fn()
				for i, n := range planStatements(db) {
					if n != before[i]+1 {
						t.Fatalf("%s: engine %d holds %d statements, want %d", what, i, n, before[i]+1)
					}
				}
			}
			addsOne("500 DB.Exec", func() {
				for i := 0; i < 500; i++ {
					if _, err := db.Exec(`INSERT INTO t VALUES (?, ?)`, i, i); err != nil {
						t.Fatal(err)
					}
				}
			})
			// Four goroutines race the text's first Prepare.
			addsOne("500 DB.Query from 4 goroutines", func() {
				var wg sync.WaitGroup
				for g := 0; g < 4; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := g; i < 500; i += 4 {
							rows, err := db.Query(`SELECT v FROM t WHERE id = ?`, i)
							if err != nil || rows.Len() != 1 {
								t.Errorf("id %d: %v, want 1 row", i, err)
								return
							}
						}
					}()
				}
				wg.Wait()
			})
			addsOne("Tx.Exec", func() {
				for i := 0; i < 5; i++ {
					tx := db.Begin()
					for j := 0; j < 10; j++ {
						if err := tx.Exec(`UPDATE t SET v = ? WHERE id = ?`, -1, i*10+j); err != nil {
							t.Fatal(err)
						}
					}
					if err := tx.Commit(); err != nil {
						t.Fatal(err)
					}
				}
			})
			var updated int
			if err := mustQueryOne(t, db, `SELECT COUNT(*) FROM t WHERE v = -1`).Scan(&updated); err != nil || updated != 50 {
				t.Fatalf("transactions updated %d rows (%v), want 50", updated, err)
			}
			const text = `SELECT id FROM t WHERE v > ?`
			a, err := db.Prepare(text)
			if err != nil {
				t.Fatal(err)
			}
			b, err := db.Prepare(text)
			if err != nil {
				t.Fatal(err)
			}
			if a.stmt != b.stmt {
				t.Fatal("two Prepare calls of one text must wrap the same statement")
			}
		})
	}
}

// mustQueryOne runs a one-row query and positions the result on its row.
func mustQueryOne(t *testing.T, db *DB, sqlText string, args ...interface{}) *Rows {
	t.Helper()
	rows, err := db.Query(sqlText, args...)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("%s: no row", sqlText)
	}
	return rows
}

// TestShardedTxExecRejectsPartitionKeyUpdate pins where a sharded
// transaction learns a write cannot run: Tx.Exec resolves its text through
// the router's Prepare, so an UPDATE assigning a partition-key column fails
// at Tx.Exec, not at Commit, and a SELECT is refused as before. Neither
// buffers anything, so the transaction stays usable.
func TestShardedTxExecRejectsPartitionKeyUpdate(t *testing.T) {
	db, err := Open(Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE t (id INT, v INT, PRIMARY KEY (id))`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO t VALUES (1, 1)`); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	err = tx.Exec(`UPDATE t SET id = ? WHERE id = ?`, 9, 1)
	if err == nil || !strings.Contains(err.Error(), "partition-key column") {
		t.Fatalf("Tx.Exec of a partition-key UPDATE = %v, want the router's rejection", err)
	}
	err = tx.Exec(`SELECT v FROM t WHERE id = ?`, 1)
	if err == nil || err.Error() != "shareddb: only writes may run inside Tx.Exec" {
		t.Fatalf("Tx.Exec of a SELECT = %v", err)
	}
	if err := tx.Exec(`UPDATE t SET v = ? WHERE id = ?`, 7, 1); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit after the rejected statements: %v", err)
	}
	var v int
	if err := mustQueryOne(t, db, `SELECT v FROM t WHERE id = ?`, 1).Scan(&v); err != nil || v != 7 {
		t.Fatalf("row 1 has v = %d (%v), want 7", v, err)
	}
}
