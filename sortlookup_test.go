package shareddb

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestTopNDefersUniqueIndexJoin pins the cut-before-join rule end to end
// against rows written out by hand: a Top-N over a join into author's
// primary key sorts the item rows and looks authors up only for the rows it
// keeps. Items whose author is NULL, never existed or was deleted join
// nothing and must not take a place under the LIMIT; a renamed author reads
// at the generation's snapshot.
func TestTopNDefersUniqueIndexJoin(t *testing.T) {
	db, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, q := range []string{
		`CREATE TABLE author (a_id INT, a_name VARCHAR, PRIMARY KEY (a_id))`,
		`CREATE TABLE item (i_id INT, i_title VARCHAR, i_subject VARCHAR, i_a_id INT, PRIMARY KEY (i_id))`,
		`CREATE INDEX ix_item_subject ON item (i_subject)`,
		`INSERT INTO author VALUES (1, 'Ann')`,
		`INSERT INTO author VALUES (2, 'Bob')`,
		`INSERT INTO author VALUES (3, 'Cy')`,
		`INSERT INTO author VALUES (4, 'Dee')`,
		`INSERT INTO item VALUES (10, 'm', 'S', 1)`,
		`INSERT INTO item VALUES (11, 'c', 'S', 9)`, // no author 9
		`INSERT INTO item VALUES (12, 'a', 'S', NULL)`,
		`INSERT INTO item VALUES (13, 'k', 'S', 3)`, // author 3 is deleted below
		`INSERT INTO item VALUES (14, 'b', 'S', 2)`,
		`INSERT INTO item VALUES (15, 'z', 'S', 4)`,
		`INSERT INTO item VALUES (16, 'd', 'S', 2)`,
		`INSERT INTO item VALUES (17, 'e', 'T', 1)`,
		`DELETE FROM author WHERE a_id = 3`,
		`UPDATE author SET a_name = 'Bobby' WHERE a_id = 2`,
	} {
		if _, err := db.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	const search = `SELECT i_id, i_title, a_name FROM item, author
		WHERE item.i_a_id = author.a_id AND item.i_subject = ? ORDER BY item.i_title%s LIMIT %d`
	cases := []struct {
		subject string
		desc    bool
		limit   int
		want    string
	}{
		{"S", false, 3, "14 b Bobby|16 d Bobby|10 m Ann"},
		{"S", false, 10, "14 b Bobby|16 d Bobby|10 m Ann|15 z Dee"}, // fewer rows join than the LIMIT
		{"S", true, 2, "15 z Dee|10 m Ann"},
		{"T", false, 5, "17 e Ann"},
		{"U", false, 5, ""},
	}
	run := func(i int) string {
		c := cases[i]
		dir := ""
		if c.desc {
			dir = " DESC"
		}
		rows, err := db.Query(fmt.Sprintf(search, dir, c.limit), c.subject)
		if err != nil {
			t.Error(err)
			return ""
		}
		var got []string
		for _, r := range rows.All() {
			got = append(got, fmt.Sprintf("%d %s %s", r[0].AsInt(), r[1].AsString(), r[2].AsString()))
		}
		return strings.Join(got, "|")
	}
	// Each case alone, then all of them in flight together so several
	// queries share the sort node's cycles.
	for round := 0; round < 2; round++ {
		got := make([]string, len(cases))
		var wg sync.WaitGroup
		for i := range cases {
			if round == 0 {
				got[i] = run(i)
				continue
			}
			wg.Add(1)
			go func() { defer wg.Done(); got[i] = run(i) }()
		}
		wg.Wait()
		for i, c := range cases {
			if got[i] != c.want {
				t.Errorf("round %d, subject %s desc=%v LIMIT %d: got %q, want %q", round, c.subject, c.desc, c.limit, got[i], c.want)
			}
		}
	}

	d := db.DescribePlan()
	if !strings.Contains(d, "⋈ix(author/pk_author)") || strings.Contains(d, ": ⋈ix(author)") {
		t.Errorf("want the sort to look authors up and no ⋈ix(author) node, plan:\n%s", d)
	}
	if pc := db.plan.PathCycles(); pc.SortLookup == 0 || pc.SortLookupMiss == 0 {
		t.Errorf("path counts %+v: want deferred-join sort cycles, some of them falling back on a miss", pc)
	}
}
