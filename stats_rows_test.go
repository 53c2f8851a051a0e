package shareddb

import (
	"testing"
)

// TestRowsDatabaseSQLShape pins the materialized-result contract for
// database/sql-shaped callers: Err is always nil, Close always succeeds
// (and ends iteration), and both are safe to call at any point.
func TestRowsDatabaseSQLShape(t *testing.T) {
	db := openTestDB(t)
	rows, err := db.Query(`SELECT name FROM users WHERE country = ? ORDER BY name`, "CH")
	if err != nil {
		t.Fatal(err)
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("Err before iteration = %v", err)
	}
	n := 0
	for rows.Next() {
		n++
	}
	if n != 2 {
		t.Fatalf("iterated %d rows", n)
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("Err after iteration = %v", err)
	}
	if err := rows.Close(); err != nil {
		t.Fatalf("Close = %v", err)
	}
	if rows.Next() {
		t.Fatal("Next returned true after Close")
	}
	if err := rows.Close(); err != nil {
		t.Fatalf("second Close = %v", err)
	}
}

func TestDBStatsCounters(t *testing.T) {
	db, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE kv (k INT, v VARCHAR(8), PRIMARY KEY (k))`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := db.Exec(`INSERT INTO kv VALUES (?, ?)`, i, "x"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := db.Query(`SELECT k FROM kv WHERE k >= ?`, 0); err != nil {
			t.Fatal(err)
		}
	}
	st := db.Stats()
	if st.WritesApplied != 5 {
		t.Fatalf("WritesApplied = %d, want 5", st.WritesApplied)
	}
	if st.QueriesRun+st.FoldedQueries != 3 {
		t.Fatalf("QueriesRun %d + FoldedQueries %d, want 3 total", st.QueriesRun, st.FoldedQueries)
	}
	if st.Generations == 0 {
		t.Fatal("Generations = 0")
	}
	if rate := st.FoldHitRate(); rate < 0 || rate > 1 {
		t.Fatalf("FoldHitRate = %v", rate)
	}
	if st.QueueDepth != 0 || st.InFlightGenerations < 0 {
		t.Fatalf("gauges: queue %d, in-flight %d", st.QueueDepth, st.InFlightGenerations)
	}
}

// TestFoldHitRateZeroReads: the rate is defined (zero) before any read.
func TestFoldHitRateZeroReads(t *testing.T) {
	var st Stats
	if got := st.FoldHitRate(); got != 0 {
		t.Fatalf("FoldHitRate on zero stats = %v", got)
	}
}

// TestFoldConfigThroughPublicAPI drives duplicate queries through DB and
// checks the public counters see the collapse.
func TestFoldConfigThroughPublicAPI(t *testing.T) {
	db, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE kv (k INT, v VARCHAR(8), PRIMARY KEY (k))`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := db.Exec(`INSERT INTO kv VALUES (?, ?)`, i, "x"); err != nil {
			t.Fatal(err)
		}
	}
	stmt, err := db.Prepare(`SELECT k, v FROM kv WHERE k >= ?`)
	if err != nil {
		t.Fatal(err)
	}
	// Concurrent duplicate bursts: some land in shared generations and
	// fold; every caller still gets the full answer.
	for round := 0; round < 20; round++ {
		const dup = 8
		type out struct {
			rows *Rows
			err  error
		}
		ch := make(chan out, dup)
		for i := 0; i < dup; i++ {
			go func() {
				r, err := stmt.Query(10)
				ch <- out{r, err}
			}()
		}
		for i := 0; i < dup; i++ {
			o := <-ch
			if o.err != nil {
				t.Fatal(o.err)
			}
			if o.rows.Len() != 10 {
				t.Fatalf("duplicate got %d rows, want 10", o.rows.Len())
			}
		}
		if db.Stats().FoldedQueries > 0 {
			return // the fold path engaged through the public API
		}
	}
	t.Fatal("no fold observed across 20 concurrent duplicate bursts")
}
