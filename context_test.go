package shareddb

import (
	"context"
	"testing"
	"time"
)

func TestContextVariantsDelegate(t *testing.T) {
	db := openTestDB(t)
	ctx := context.Background()

	stmt, err := db.PrepareContext(ctx, `SELECT name FROM users WHERE country = ? ORDER BY name`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := stmt.QueryContext(ctx, "CH")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 2 {
		t.Fatalf("rows = %d", rows.Len())
	}

	if _, err := db.ExecContext(ctx, `INSERT INTO users VALUES (?, ?, ?, ?, ?, ?)`,
		100, "zed", "FR", 5.0, true, time.Now()); err != nil {
		t.Fatal(err)
	}
	rows, err = db.QueryContext(ctx, `SELECT name FROM users WHERE id = ?`, 100)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 1 {
		t.Fatalf("insert via ExecContext not visible: %d rows", rows.Len())
	}

	tx, err := db.BeginContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.ExecContext(ctx, `UPDATE users SET account = ? WHERE id = ?`, 9.5, 100); err != nil {
		t.Fatal(err)
	}
	if err := tx.CommitContext(ctx); err != nil {
		t.Fatal(err)
	}
	var account float64
	rows, err = db.Query(`SELECT account FROM users WHERE id = ?`, 100)
	if err != nil {
		t.Fatal(err)
	}
	rows.Next()
	if err := rows.Scan(&account); err != nil {
		t.Fatal(err)
	}
	if account != 9.5 {
		t.Fatalf("account = %v after CommitContext", account)
	}
}

func TestContextAlreadyExpired(t *testing.T) {
	db := openTestDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := db.QueryContext(ctx, `SELECT name FROM users`); err != context.Canceled {
		t.Fatalf("QueryContext err = %v", err)
	}
	if _, err := db.ExecContext(ctx, `INSERT INTO users VALUES (?, ?, ?, ?, ?, ?)`,
		101, "x", "FR", 0.0, true, time.Now()); err != context.Canceled {
		t.Fatalf("ExecContext err = %v", err)
	}
	if _, err := db.PrepareContext(ctx, `SELECT id FROM users`); err != context.Canceled {
		t.Fatalf("PrepareContext err = %v", err)
	}
	if _, err := db.BeginContext(ctx); err != context.Canceled {
		t.Fatalf("BeginContext err = %v", err)
	}
	tx := db.Begin()
	if err := tx.ExecContext(ctx, `UPDATE users SET account = ? WHERE id = ?`, 1.0, 1); err != context.Canceled {
		t.Fatalf("Tx.ExecContext err = %v", err)
	}
	tx.Rollback()

	// The expired insert never ran.
	rows, err := db.Query(`SELECT id FROM users WHERE id = ?`, 101)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 0 {
		t.Fatal("cancelled ExecContext still applied its write")
	}
}

// TestContextCancelAbandonsWait: a query cancelled mid-wait returns
// ctx.Err() promptly, and the generation it was queued into is unperturbed
// — concurrent queries sharing the batch still complete with full results.
func TestContextCancelAbandonsWait(t *testing.T) {
	db, err := Open(Config{
		// A wide heartbeat holds submissions in the pending queue long
		// enough to cancel one deterministically before dispatch.
		Heartbeat: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE kv (k INT, v VARCHAR(8), PRIMARY KEY (k))`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := db.Exec(`INSERT INTO kv VALUES (?, ?)`, i, "x"); err != nil {
			t.Fatal(err)
		}
	}
	stmt, err := db.Prepare(`SELECT k FROM kv WHERE k >= ?`)
	if err != nil {
		t.Fatal(err)
	}
	// Warm: start the heartbeat window.
	if _, err := stmt.Query(0); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	type out struct {
		rows *Rows
		err  error
	}
	cancelled := make(chan out, 1)
	go func() {
		r, err := stmt.QueryContext(ctx, int64(5))
		cancelled <- out{r, err}
	}()
	survivor := make(chan out, 1)
	go func() {
		r, err := stmt.QueryContext(context.Background(), int64(5))
		survivor <- out{r, err}
	}()
	time.Sleep(50 * time.Millisecond) // both queued in the same window
	cancel()

	got := <-cancelled
	if got.err != context.Canceled {
		t.Fatalf("cancelled query err = %v", got.err)
	}
	sv := <-survivor
	if sv.err != nil {
		t.Fatalf("survivor err = %v", sv.err)
	}
	if sv.rows.Len() != 5 {
		t.Fatalf("survivor rows = %d, want 5", sv.rows.Len())
	}
}
