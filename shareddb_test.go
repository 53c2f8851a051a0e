package shareddb

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"shareddb/internal/storage"
)

func openTestDB(t *testing.T) *DB {
	t.Helper()
	db, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	mustExec := func(sqlText string, args ...interface{}) {
		if _, err := db.Exec(sqlText, args...); err != nil {
			t.Fatalf("Exec(%q): %v", sqlText, err)
		}
	}
	mustExec(`CREATE TABLE users (id INT, name VARCHAR(40), country VARCHAR(2),
		account FLOAT, active BOOL, created TIMESTAMP, PRIMARY KEY (id))`)
	mustExec(`CREATE INDEX users_country ON users (country)`)
	now := time.Date(2012, 8, 27, 0, 0, 0, 0, time.UTC)
	for i, u := range []struct {
		name, country string
		account       float64
	}{
		{"ada", "CH", 1000}, {"bob", "DE", 250}, {"eve", "CH", 75},
		{"mallory", "US", 3000}, {"trent", "DE", 10},
	} {
		mustExec(`INSERT INTO users VALUES (?, ?, ?, ?, ?, ?)`,
			i+1, u.name, u.country, u.account, true, now)
	}
	return db
}

func TestPublicAPIQuickstart(t *testing.T) {
	db := openTestDB(t)
	stmt, err := db.Prepare(`SELECT name, account FROM users WHERE country = ? ORDER BY account DESC`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := stmt.Query("CH")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 2 {
		t.Fatalf("rows = %d", rows.Len())
	}
	var name string
	var account float64
	if !rows.Next() {
		t.Fatal("Next failed")
	}
	if err := rows.Scan(&name, &account); err != nil {
		t.Fatal(err)
	}
	if name != "ada" || account != 1000 {
		t.Errorf("first row = %s/%v", name, account)
	}
	cols := rows.Columns()
	if cols[0] != "name" || cols[1] != "account" {
		t.Errorf("columns = %v", cols)
	}
}

func TestAdhocQuery(t *testing.T) {
	db := openTestDB(t)
	rows, err := db.Query(`SELECT COUNT(*), SUM(account) FROM users WHERE account > ?`, 50.0)
	if err != nil {
		t.Fatal(err)
	}
	rows.Next()
	var n int64
	var sum float64
	if err := rows.Scan(&n, &sum); err != nil {
		t.Fatal(err)
	}
	if n != 4 || sum != 4325 {
		t.Errorf("count=%d sum=%v", n, sum)
	}
}

func TestExecWriteAndReadBack(t *testing.T) {
	db := openTestDB(t)
	res, err := db.Exec(`UPDATE users SET account = account + ? WHERE country = ?`, 100.0, "DE")
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 2 {
		t.Errorf("affected = %d", res.RowsAffected)
	}
	rows, err := db.Query(`SELECT account FROM users WHERE name = ?`, "trent")
	if err != nil {
		t.Fatal(err)
	}
	rows.Next()
	var acct float64
	rows.Scan(&acct)
	if acct != 110 {
		t.Errorf("account = %v", acct)
	}
}

func TestTransactionAPI(t *testing.T) {
	db := openTestDB(t)
	tx := db.Begin()
	if err := tx.Exec(`INSERT INTO users VALUES (?, ?, ?, ?, ?, ?)`,
		100, "zoe", "FR", 5.0, true, time.Now()); err != nil {
		t.Fatal(err)
	}
	if err := tx.Exec(`UPDATE users SET account = ? WHERE id = ?`, 42.0, 1); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	rows, _ := db.Query(`SELECT COUNT(*) FROM users`)
	rows.Next()
	var n int64
	rows.Scan(&n)
	if n != 6 {
		t.Errorf("count = %d", n)
	}
	// reads inside Tx.Exec rejected
	tx2 := db.Begin()
	if err := tx2.Exec(`SELECT * FROM users`); err == nil {
		t.Error("read inside tx should fail")
	}
	tx2.Rollback()
	if err := tx2.Commit(); !errors.Is(err, storage.ErrTxDone) {
		t.Errorf("commit after rollback: %v", err)
	}
}

func TestTxConflictSurfaces(t *testing.T) {
	db := openTestDB(t)
	tx1, tx2 := db.Begin(), db.Begin()
	if err := tx1.Exec(`UPDATE users SET account = ? WHERE id = ?`, 1.0, 1); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Exec(`UPDATE users SET account = ? WHERE id = ?`, 2.0, 1); err != nil {
		t.Fatal(err)
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); !errors.Is(err, storage.ErrConflict) {
		t.Errorf("want conflict, got %v", err)
	}
}

func TestConcurrentClients(t *testing.T) {
	db := openTestDB(t)
	stmt, err := db.Prepare(`SELECT name FROM users WHERE country = ?`)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			country := []string{"CH", "DE", "US"}[i%3]
			want := map[string]int{"CH": 2, "DE": 2, "US": 1}[country]
			for j := 0; j < 10; j++ {
				rows, err := stmt.Query(country)
				if err != nil {
					t.Error(err)
					return
				}
				if rows.Len() != want {
					t.Errorf("%s: %d rows, want %d", country, rows.Len(), want)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	st := db.Stats()
	// Identical concurrent reads fold: the 320 client reads split between
	// executed activations and fan-out deliveries.
	gens, queries := st.Generations, st.QueriesRun+st.FoldedQueries
	if queries != 320 {
		t.Errorf("queries run %d + folded %d, want 320", st.QueriesRun, st.FoldedQueries)
	}
	if gens >= queries {
		t.Errorf("expected batching: %d generations for %d queries", gens, queries)
	}
}

func TestErrorPaths(t *testing.T) {
	db := openTestDB(t)
	if _, err := db.Prepare("SELECT * FROM missing"); err == nil {
		t.Error("unknown table should fail")
	}
	if _, err := db.Prepare("NOT SQL AT ALL"); err == nil {
		t.Error("parse failure expected")
	}
	if _, err := db.Exec("CREATE TABLE users (id INT)"); err == nil {
		t.Error("duplicate table should fail")
	}
	if _, err := db.Exec("CREATE INDEX ix ON missing (x)"); err == nil {
		t.Error("index on missing table should fail")
	}
	stmt, _ := db.Prepare("INSERT INTO users (id, name) VALUES (?, ?)")
	if _, err := stmt.Query(1, "x"); err == nil {
		t.Error("Query on write statement should fail")
	}
	if _, err := db.Query("SELECT id FROM users WHERE id = ?", struct{}{}); err == nil {
		t.Error("bad param type should fail")
	}
	rows, _ := db.Query("SELECT id, name FROM users WHERE id = ?", 1)
	var x chan int
	rows.Next()
	if err := rows.Scan(&x); err == nil {
		t.Error("bad scan dest should fail")
	}
	var a, b, c int64
	if err := rows.Scan(&a, &b, &c); err == nil {
		t.Error("too many scan dests should fail")
	}
}

func TestScanTypes(t *testing.T) {
	db := openTestDB(t)
	rows, err := db.Query(`SELECT id, name, account, active, created FROM users WHERE id = ?`, 1)
	if err != nil {
		t.Fatal(err)
	}
	rows.Next()
	var (
		id      int
		name    string
		account float64
		active  bool
		created time.Time
	)
	if err := rows.Scan(&id, &name, &account, &active, &created); err != nil {
		t.Fatal(err)
	}
	if id != 1 || name != "ada" || account != 1000 || !active || created.Year() != 2012 {
		t.Errorf("scanned %v %v %v %v %v", id, name, account, active, created)
	}
}

func TestDurabilityThroughPublicAPI(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Config{WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`CREATE TABLE kv (k INT, v VARCHAR, PRIMARY KEY (k))`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO kv VALUES (?, ?)`, 1, "one"); err != nil {
		t.Fatal(err)
	}
	if err := db.Storage().Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO kv VALUES (?, ?)`, 2, "two"); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db2, err := Open(Config{WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if _, err := db2.Exec(`CREATE TABLE kv (k INT, v VARCHAR, PRIMARY KEY (k))`); err != nil {
		t.Fatal(err)
	}
	if err := db2.Storage().Recover(); err != nil {
		t.Fatal(err)
	}
	rows, err := db2.Query(`SELECT v FROM kv WHERE k = ?`, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 1 {
		t.Fatalf("recovered rows = %d", rows.Len())
	}
}

func TestHeartbeatConfig(t *testing.T) {
	db, err := Open(Config{Heartbeat: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE t (a INT, PRIMARY KEY (a))`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO t VALUES (1)`); err != nil {
		t.Fatal(err)
	}
	rows, err := db.Query(`SELECT a FROM t`)
	if err != nil || rows.Len() != 1 {
		t.Fatalf("heartbeat query: %v, %d rows", err, rows.Len())
	}
}

// TestConfigValidation: negative knobs are rejected with clear errors
// instead of silently defaulting.
func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{MaxInFlightGenerations: -2},
		{Shards: -1},
		{MaxGenerationDelay: -time.Millisecond},
		{MaxGenerationDelay: 200 * time.Microsecond}, // non-zero but below timer resolution
		{QueueDepthLimit: -1},
		{StatementQuota: -3},
	}
	for _, cfg := range cases {
		if db, err := Open(cfg); err == nil {
			db.Close()
			t.Errorf("Open(%+v) succeeded, want validation error", cfg)
		}
	}
	// Zero still selects defaults; admission knobs at sane values open fine.
	for _, cfg := range []Config{
		{},
		{MaxGenerationDelay: 5 * time.Millisecond, QueueDepthLimit: 100, StatementQuota: 50},
	} {
		db, err := Open(cfg)
		if err != nil {
			t.Fatalf("Open(%+v): %v", cfg, err)
		}
		db.Close()
	}
}

// TestOverloadSurfacesThroughPublicAPI: with a queue cap and a frozen
// dispatch window, excess public-API queries fail fast with an error
// matching errors.Is(err, ErrOverloaded) and carrying a typed retry hint —
// on the single engine and on a sharded deployment alike.
func TestOverloadSurfacesThroughPublicAPI(t *testing.T) {
	for _, shards := range []int{0, 2} {
		db, err := Open(Config{QueueDepthLimit: 2, Heartbeat: time.Second, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.Exec("CREATE TABLE t (a INT, b VARCHAR, PRIMARY KEY (a))"); err != nil {
			t.Fatal(err)
		}
		stmt, err := db.Prepare("SELECT b FROM t WHERE a > ?") // scatters on sharded runs
		if err != nil {
			t.Fatal(err)
		}
		// First query dispatches immediately and starts the heartbeat
		// window; the next two fill the queue; the fourth must be refused.
		// Every query binds its own parameter: identical reads would fold
		// into one queue slot.
		if _, err := stmt.Query(0); err != nil {
			t.Fatal(err)
		}
		type outcome struct {
			rows *Rows
			err  error
		}
		results := make(chan outcome, 2)
		for i := 0; i < 2; i++ {
			go func(i int) {
				rows, err := stmt.Query(1 + i)
				results <- outcome{rows, err}
			}(i)
		}
		// Let the two queued queries enqueue before overflowing.
		// Stats().QueueDepth sums per-shard queues and each scatter read
		// enqueues on every shard, so the full-queue signature is
		// 2 queries × max(shards, 1) depth entries.
		wantDepth := 2
		if shards > 1 {
			wantDepth = 2 * shards
		}
		deadline := time.Now().Add(500 * time.Millisecond)
		for db.Stats().QueueDepth < wantDepth && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		_, err = stmt.Query(3)
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("shards=%d: over-cap query got %v, want ErrOverloaded", shards, err)
		}
		var oe *OverloadError
		if !errors.As(err, &oe) || oe.RetryAfter <= 0 {
			t.Fatalf("shards=%d: rejection must be typed with a retry hint, got %v", shards, err)
		}
		for i := 0; i < 2; i++ {
			o := <-results
			if o.err != nil {
				t.Fatalf("shards=%d: queued query failed: %v", shards, o.err)
			}
		}
		db.Close()
	}
}

// TestShardedDB drives the public API against a 3-shard deployment: DDL
// broadcasts, writes route by primary-key hash, reads merge across shards
// (including DISTINCT-aggregate HAVING), and transactions commit through
// the shard engines.
func TestShardedDB(t *testing.T) {
	db, err := Open(Config{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if len(db.Storages()) != 3 {
		t.Fatalf("Storages() = %d, want 3", len(db.Storages()))
	}
	mustExec := func(sqlText string, args ...interface{}) Result {
		res, err := db.Exec(sqlText, args...)
		if err != nil {
			t.Fatalf("Exec(%q): %v", sqlText, err)
		}
		return res
	}
	mustExec(`CREATE TABLE events (id INT, kind VARCHAR(10), actor INT, score FLOAT, PRIMARY KEY (id))`)
	for i := 0; i < 90; i++ {
		mustExec(`INSERT INTO events VALUES (?, ?, ?, ?)`,
			i, []string{"view", "click", "buy"}[i%3], i%11, float64(i)/3)
	}
	// rows actually spread across shards
	spread := 0
	for _, s := range db.Storages() {
		if s.Table("events").CountVisible(s.SnapshotTS()) > 0 {
			spread++
		}
	}
	if spread < 2 {
		t.Fatalf("rows on %d shards, want spread", spread)
	}
	// point read
	rows, err := db.Query(`SELECT kind FROM events WHERE id = ?`, 42)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 1 {
		t.Fatalf("point read: %d rows", rows.Len())
	}
	// grouped merge with DISTINCT aggregate + HAVING + ORDER BY
	rows, err = db.Query(`SELECT kind, COUNT(*), COUNT(DISTINCT actor), AVG(score) FROM events
		GROUP BY kind HAVING COUNT(DISTINCT actor) > ? ORDER BY kind`, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 3 {
		t.Fatalf("grouped merge: %d rows, want 3", rows.Len())
	}
	prev := ""
	for rows.Next() {
		var kind string
		var cnt, actors int
		var avg float64
		if err := rows.Scan(&kind, &cnt, &actors, &avg); err != nil {
			t.Fatal(err)
		}
		if kind <= prev {
			t.Fatalf("ORDER BY kind violated: %q after %q", kind, prev)
		}
		prev = kind
		if cnt != 30 || actors != 11 {
			t.Fatalf("kind %s: count=%d actors=%d, want 30/11", kind, cnt, actors)
		}
	}
	// broadcast write
	res := mustExec(`UPDATE events SET score = ? WHERE kind = ?`, 0.0, "buy")
	if res.RowsAffected != 30 {
		t.Fatalf("broadcast update affected %d, want 30", res.RowsAffected)
	}
	// transaction through the router: a point insert and a point update of
	// an existing row, each routed to its owning shard
	tx := db.Begin()
	if err := tx.Exec(`INSERT INTO events VALUES (?, ?, ?, ?)`, 1000, "tx", 99, 1.0); err != nil {
		t.Fatal(err)
	}
	if err := tx.Exec(`UPDATE events SET score = ? WHERE id = ?`, 9.0, 7); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for id, want := range map[int]float64{1000: 1.0, 7: 9.0} {
		rows, err = db.Query(`SELECT score FROM events WHERE id = ?`, id)
		if err != nil {
			t.Fatal(err)
		}
		if rows.Len() != 1 || !rows.Next() {
			t.Fatalf("tx row %d missing", id)
		}
		var score float64
		rows.Scan(&score)
		if score != want {
			t.Fatalf("tx effect lost on id %d: score = %v, want %v", id, score, want)
		}
	}
}

// TestShardedStatsAndDescribe: stats aggregate across shards and the plan
// description renders.
func TestShardedStatsAndDescribe(t *testing.T) {
	db, err := Open(Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE t (a INT, PRIMARY KEY (a))`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO t VALUES (1)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(`SELECT a FROM t`); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	queries, writes := st.QueriesRun, st.WritesApplied
	if writes == 0 || queries == 0 {
		t.Fatalf("stats empty: queries=%d writes=%d", queries, writes)
	}
	if db.DescribePlan() == "" {
		t.Fatal("DescribePlan empty")
	}
}

// TestPartitionKeyTypoSurfacesAtDDL: a misspelled Config.PartitionKeys
// column errors when the table is created, instead of silently falling
// back to partitioning on the primary key.
func TestPartitionKeyTypoSurfacesAtDDL(t *testing.T) {
	db, err := Open(Config{Shards: 2, PartitionKeys: map[string][]string{"t": {"no_such_col"}}})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE t (a INT, b INT, PRIMARY KEY (a))`); err == nil {
		t.Fatal("CREATE TABLE with a typo'd partition key succeeded, want error")
	}
	// a valid override is accepted
	db2, err := Open(Config{Shards: 2, PartitionKeys: map[string][]string{"t": {"b"}}})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if _, err := db2.Exec(`CREATE TABLE t (a INT, b INT, PRIMARY KEY (a))`); err != nil {
		t.Fatalf("valid partition-key override rejected: %v", err)
	}
}

// TestSubscribePublicAPI: the standing-query surface end to end — initial
// full result, a delta after a write, stats visibility, and context
// cancellation detaching the subscription.
func TestSubscribePublicAPI(t *testing.T) {
	db, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE ticks (id INT, v FLOAT, PRIMARY KEY (id))`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := db.Exec(`INSERT INTO ticks VALUES (?, ?)`, i, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	stmt, err := db.Prepare(`SELECT id, v FROM ticks WHERE v > ?`)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sub, err := db.Subscribe(ctx, stmt, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case u := <-sub.Updates():
		if !u.Full || len(u.Rows) != 3 {
			t.Fatalf("initial delivery = %+v, want full with 3 rows", u)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no initial full result")
	}
	if _, err := db.Exec(`INSERT INTO ticks VALUES (?, ?)`, 10, 7.5); err != nil {
		t.Fatal(err)
	}
	select {
	case u := <-sub.Updates():
		if u.Full || len(u.Added) != 1 || len(u.Removed) != 0 {
			t.Fatalf("post-insert delivery = %+v, want delta with 1 added row", u)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no delta after insert")
	}
	if st := db.Stats(); st.SubscriptionsActive != 1 || st.SubscriptionUpdates < 2 {
		t.Fatalf("stats = active %d updates %d, want 1 and >= 2",
			st.SubscriptionsActive, st.SubscriptionUpdates)
	}
	cancel()
	select {
	case <-sub.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("context cancellation did not close the subscription")
	}
	// writes keep flowing after detach
	if _, err := db.Exec(`DELETE FROM ticks WHERE id = ?`, 10); err != nil {
		t.Fatal(err)
	}
}
