package shareddb

import (
	"math"
	"testing"
)

// TestUint64ParamAboveMaxInt64Rejected: INT is 64-bit signed, so a uint64
// parameter above math.MaxInt64 must fail instead of wrapping onto the row
// whose id is the negative number with the same bits.
func TestUint64ParamAboveMaxInt64Rejected(t *testing.T) {
	db, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if _, err := db.Exec(`CREATE TABLE t (id INT, PRIMARY KEY (id))`); err != nil {
		t.Fatal(err)
	}
	for _, id := range []int64{math.MinInt64, math.MaxInt64} {
		if _, err := db.Exec(`INSERT INTO t VALUES (?)`, id); err != nil {
			t.Fatalf("insert %d: %v", id, err)
		}
	}
	wrapped := uint64(1) << 63
	if rows, err := db.Query(`SELECT id FROM t WHERE id = ?`, wrapped); err == nil {
		t.Fatalf("Query with uint64 %d = %v, want an error", wrapped, rows.All())
	}
	if _, err := db.Exec(`DELETE FROM t WHERE id = ?`, wrapped); err == nil {
		t.Fatalf("Exec with uint64 %d succeeded, want an error", wrapped)
	}
	tx := db.Begin()
	if err := tx.Exec(`DELETE FROM t WHERE id = ?`, wrapped); err == nil {
		t.Fatalf("Tx.Exec with uint64 %d succeeded, want an error", wrapped)
	}
	tx.Rollback()
	rows, err := db.Query(`SELECT id FROM t WHERE id = ?`, uint64(math.MaxInt64))
	if err != nil {
		t.Fatal(err)
	}
	if all := rows.All(); len(all) != 1 || all[0][0].AsInt() != math.MaxInt64 {
		t.Fatalf("uint64 MaxInt64 selected %v, want the one max row", all)
	}
}
