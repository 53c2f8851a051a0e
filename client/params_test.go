package client

import (
	"math"
	"testing"
)

// TestUint64ParamAboveMaxInt64Rejected is the in-process rule over the
// wire: a uint64 above math.MaxInt64 fails in the client instead of
// reaching the server as the negative INT with the same bits.
func TestUint64ParamAboveMaxInt64Rejected(t *testing.T) {
	db, err := Open(startBackend(t))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer db.Close()
	if _, err := db.Exec(`INSERT INTO kv VALUES (?, ?)`, int64(math.MinInt64), "min"); err != nil {
		t.Fatalf("insert: %v", err)
	}
	wrapped := uint64(1) << 63
	if rows, err := db.Query(`SELECT v FROM kv WHERE k = ?`, wrapped); err == nil {
		t.Fatalf("Query with uint64 %d = %v, want an error", wrapped, rows.All())
	}
	if _, err := db.Exec(`DELETE FROM kv WHERE k = ?`, wrapped); err == nil {
		t.Fatalf("Exec with uint64 %d succeeded, want an error", wrapped)
	}
	rows, err := db.Query(`SELECT v FROM kv WHERE k = ?`, uint64(7))
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if all := rows.All(); len(all) != 1 || all[0][0].AsString() != "v7" {
		t.Fatalf("uint64 7 selected %v, want v7", all)
	}
}
