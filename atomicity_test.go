package shareddb

import (
	"errors"
	"fmt"
	"testing"

	"shareddb/internal/storage"
)

// TestExecStatementAtomicity: a write statement through DB.Exec applies
// whole or not at all, on one shard and on two. The table has no primary
// key, so on two shards it replicates and every shard's UNIQUE indexes see
// every row.
func TestExecStatementAtomicity(t *testing.T) {
	cases := []struct{ name, stmt string }{
		{"two rows into one unique name", `UPDATE u SET name = 'z' WHERE grp = 0`},
		// Row 1 → 11 fits, row 2 → 12 collides with the third row.
		{"second row collides", `UPDATE u SET id = id + 10 WHERE grp = 0`},
	}
	for _, shards := range []int{1, 2} {
		for _, c := range cases {
			t.Run(fmt.Sprintf("shards=%d/%s", shards, c.name), func(t *testing.T) {
				db, err := Open(Config{Shards: shards})
				if err != nil {
					t.Fatal(err)
				}
				defer db.Close()
				for _, q := range []string{
					`CREATE TABLE u (id INT, name VARCHAR(10), grp INT)`,
					`CREATE UNIQUE INDEX u_id ON u (id)`,
					`CREATE UNIQUE INDEX u_name ON u (name)`,
					`INSERT INTO u VALUES (1, 'a', 0)`,
					`INSERT INTO u VALUES (2, 'b', 0)`,
					`INSERT INTO u VALUES (12, 'c', 1)`,
				} {
					if _, err := db.Exec(q); err != nil {
						t.Fatalf("%s: %v", q, err)
					}
				}
				if _, err := db.Exec(c.stmt); !errors.Is(err, storage.ErrUniqueViolate) {
					t.Fatalf("%s: %v, want a unique violation", c.stmt, err)
				}
				// A later commit publishes; the failed statement must not show.
				if _, err := db.Exec(`INSERT INTO u VALUES (3, 'd', 2)`); err != nil {
					t.Fatal(err)
				}
				rows, err := db.Query(`SELECT id, name FROM u ORDER BY id`)
				if err != nil {
					t.Fatal(err)
				}
				var got []string
				for rows.Next() {
					var id int64
					var name string
					if err := rows.Scan(&id, &name); err != nil {
						t.Fatal(err)
					}
					got = append(got, fmt.Sprintf("%d:%s", id, name))
				}
				if want := "[1:a 2:b 3:d 12:c]"; fmt.Sprint(got) != want {
					t.Fatalf("rows = %v, want %s", got, want)
				}
			})
		}
	}
}
