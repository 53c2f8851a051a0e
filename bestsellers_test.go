package shareddb

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"shareddb/internal/baseline"
	"shareddb/internal/core"
	"shareddb/internal/types"
)

// bestSellers is TPC-W's best-sellers statement over a small hand-written
// catalog: the group-by over order_line ⋈ item ⋈ author that the FD rules
// compile into a Γ keyed on i_id alone and a Top-N that looks authors up
// only for the rows it keeps.
const bestSellers = `SELECT i_id, i_title, a_fname, a_lname, SUM(ol_qty) AS val
	FROM order_line, item, author
	WHERE order_line.ol_i_id = item.i_id AND item.i_a_id = author.a_id
	AND order_line.ol_o_id > ? AND item.i_subject = ?
	GROUP BY i_id, i_title, a_fname, a_lname
	ORDER BY val DESC LIMIT 50`

// TestBestSellersFDRulesAgainstBaseline runs best sellers through the FD
// lift, the FD key and the build-key filter against the query-at-a-time
// baseline at each result's own snapshot, over rows written out by hand:
//   - item 5 has a NULL author and item 6 an author that never existed;
//     items 7, 37 and 67 lose their author to a DELETE. None of them may
//     take a place under the LIMIT.
//   - items 10 and 11 share a title and an author: two groups.
//   - subject A has 80 items whose sums take four values, so more than 50
//     groups compete and the cut falls inside a run of equal sums.
//   - each generation carries several bounds and two subjects.
//   - between rounds a title, an author's last name and some order lines
//     change.
//
// The engine runs four generations in flight.
func TestBestSellersFDRulesAgainstBaseline(t *testing.T) {
	db, err := Open(Config{MaxInFlightGenerations: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	exec := func(q string, args ...interface{}) {
		t.Helper()
		if _, err := db.Exec(q, args...); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	for _, q := range []string{
		`CREATE TABLE author (a_id INT, a_fname VARCHAR, a_lname VARCHAR, PRIMARY KEY (a_id))`,
		`CREATE TABLE item (i_id INT, i_title VARCHAR, i_a_id INT, i_subject VARCHAR, PRIMARY KEY (i_id))`,
		`CREATE INDEX ix_item_i_subject ON item (i_subject)`,
		`CREATE TABLE order_line (ol_id INT, ol_o_id INT, ol_i_id INT, ol_qty INT, PRIMARY KEY (ol_id))`,
		`CREATE INDEX ix_order_line_ol_o_id ON order_line (ol_o_id)`,
	} {
		exec(q)
	}
	for a := 1; a <= 30; a++ {
		exec(`INSERT INTO author VALUES (?, ?, ?)`, a, fmt.Sprintf("F%02d", a), fmt.Sprintf("L%02d", a))
	}
	item := func(id int, subject string) {
		title, author := interface{}(fmt.Sprintf("T%03d", id)), interface{}(id%30+1)
		switch id {
		case 5:
			author = nil
		case 6:
			author = 99
		case 10, 11:
			title, author = "Twin", 3
		}
		exec(`INSERT INTO item VALUES (?, ?, ?, ?)`, id, title, author, subject)
	}
	for id := 1; id <= 80; id++ {
		item(id, "A")
	}
	for id := 101; id <= 120; id++ {
		item(id, "B")
	}
	// Item i gets i%4+1 lines of quantity 1, at orders spread over 1..100,
	// inserted in order-id order so first arrival is not item order.
	type line struct{ o, i int }
	var lines []line
	for _, i := range append(seq(1, 80), seq(101, 120)...) {
		for j := 0; j <= i%4; j++ {
			lines = append(lines, line{(i*3+j*17)%100 + 1, i})
		}
	}
	slices.SortStableFunc(lines, func(a, b line) int { return a.o - b.o })
	for n, l := range lines {
		exec(`INSERT INTO order_line VALUES (?, ?, ?, 1)`, n, l.o, l.i)
	}
	// A NULL quantity: SUM skips it, the group stays.
	exec(`INSERT INTO order_line VALUES (?, 50, 3, NULL)`, len(lines))
	exec(`DELETE FROM author WHERE a_id = 8`) // items 7, 37, 67

	eng := db.exec.(*core.Engine)
	stmt, err := eng.Prepare(bestSellers)
	if err != nil {
		t.Fatal(err)
	}
	ref := baseline.New(db.Storage(), baseline.SystemXLike)
	all, err := ref.Prepare(strings.Replace(bestSellers, "LIMIT 50", "", 1))
	if err != nil {
		t.Fatal(err)
	}
	params := [][]types.Value{
		{types.NewInt(0), types.NewString("A")},
		{types.NewInt(30), types.NewString("A")},
		{types.NewInt(60), types.NewString("A")},
		{types.NewInt(0), types.NewString("B")},
		{types.NewInt(95), types.NewString("A")},
		{types.NewInt(100), types.NewString("A")},
	}
	tieAtCut := false
	round := func(r int) {
		t.Helper()
		// Two bursts back to back: two generations, often in flight together.
		var calls []core.Call
		for range 2 {
			burst := make([]core.Call, len(params))
			for i, ps := range params {
				burst[i] = core.Call{Stmt: stmt, Params: ps}
			}
			eng.SubmitBatch(burst)
			calls = append(calls, burst...)
		}
		for i, c := range calls {
			if err := c.Result.Wait(); err != nil {
				t.Fatal(err)
			}
			ps := params[i%len(params)]
			want, err := all.ExecAt(ps, c.Result.SnapshotTS)
			if err != nil {
				t.Fatal(err)
			}
			if msg := checkTopN(c.Result.Rows, want.Rows, 4, 50); msg != "" {
				t.Errorf("round %d, params %v: %s", r, ps, msg)
			}
			if len(want.Rows) > 50 && want.Rows[49][4].Equal(want.Rows[50][4]) {
				tieAtCut = true
			}
			twins := 0
			for _, row := range c.Result.Rows {
				if id := row[0].AsInt(); id == 5 || id == 6 || id%30 == 7 {
					t.Errorf("round %d, params %v: item %d has no author but was kept", r, ps, id)
				}
				if row[1].AsString() == "Twin" {
					twins++
				}
			}
			if r == 0 && i%len(params) == 0 && twins != 2 {
				t.Errorf("round 0, params %v: %d rows titled Twin, want items 10 and 11 as two groups", ps, twins)
			}
		}
	}
	round(0)
	exec(`UPDATE item SET i_title = 'Renamed' WHERE i_id = 12`)
	exec(`UPDATE author SET a_lname = 'Changed' WHERE a_id = 4`)
	exec(`DELETE FROM order_line WHERE ol_o_id = 40`)
	exec(`INSERT INTO order_line VALUES (9000, 99, 11, 5)`)
	round(1)
	exec(`UPDATE item SET i_title = 'Twin' WHERE i_id = 12`)
	exec(`UPDATE order_line SET ol_qty = 3 WHERE ol_o_id = 70`)
	round(2)
	if !tieAtCut {
		t.Error("fixture never put equal sums on both sides of the LIMIT 50 cut")
	}
	d := db.DescribePlan()
	if !strings.Contains(d, "⋈Γ(probe(item/ix_item_i_subject); item.0,+item.1,+item.2,SUM|false|order_line.3)") ||
		!strings.Contains(d, "⋈ix(author/pk_author)") || strings.Contains(d, "⋈ix(author)") {
		t.Errorf("want a Γ keyed on i_id carrying the title and author id folded into the join, and the authors looked up by the sort; plan:\n%s", d)
	}
	if pc := db.plan.PathCycles(); pc.JoinKeyFilter == 0 || pc.GroupJoin == 0 || pc.SortLookup == 0 {
		t.Errorf("path counts %+v: want build-key filter, group-join and deferred-lookup cycles", pc)
	}
}

func seq(lo, hi int) []int {
	var out []int
	for i := lo; i <= hi; i++ {
		out = append(out, i)
	}
	return out
}

// checkTopN holds a Top-N result to the full ordered result all (sorted by
// column key descending, ties in any order): got must carry all's keys in
// order up to the limit, hold every row all ranks strictly above the cut,
// and take its rows at the cut from all's rows with that key, each once.
// It returns "" when got passes.
func checkTopN(got, all []types.Row, key, limit int) string {
	n := min(limit, len(all))
	if len(got) != n {
		return fmt.Sprintf("%d rows, want %d", len(got), n)
	}
	canon := func(r types.Row) string { return fmt.Sprint(r) }
	pool := map[string]int{}
	for _, r := range all {
		pool[canon(r)]++
	}
	for i, r := range got {
		if !r[key].Equal(all[i][key]) {
			return fmt.Sprintf("row %d has key %v, want %v", i, r[key], all[i][key])
		}
		if pool[canon(r)] == 0 {
			return fmt.Sprintf("row %d %v is not in the full result (or repeats)", i, r)
		}
		pool[canon(r)]--
	}
	if n == 0 {
		return ""
	}
	cut := all[n-1][key]
	for _, r := range all[:n] {
		if r[key].Compare(cut) > 0 && !slices.ContainsFunc(got, func(g types.Row) bool { return canon(g) == canon(r) }) {
			return fmt.Sprintf("row %v ranks above the cut but is missing", r)
		}
	}
	return ""
}
