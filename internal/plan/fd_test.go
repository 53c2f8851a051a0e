package plan_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"shareddb/internal/core"
	"shareddb/internal/expr"
	"shareddb/internal/plan"
	"shareddb/internal/storage"
	"shareddb/internal/types"
)

// fdCatalog creates author, item and order_line in best sellers' shape and
// loads them: 30 authors (author 8 deleted), items 1..60 of subject A and
// 101..110 of subject B with authors id%30+1, except item 5 (NULL author),
// item 6 (author 99, never created) and items 10 and 11 (one title, one
// author). Item i gets i%4+1 lines of quantity 1 at orders spread over
// 1..100, so many groups tie on SUM.
func fdCatalog(t *testing.T) *storage.Database {
	t.Helper()
	db, err := storage.Open(storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	col := func(table, name string, k types.Kind) types.Column {
		return types.Column{Qualifier: table, Name: name, Kind: k}
	}
	author, _ := db.CreateTable("author", types.NewSchema(col("author", "a_id", types.KindInt),
		col("author", "a_fname", types.KindString), col("author", "a_lname", types.KindString)))
	item, _ := db.CreateTable("item", types.NewSchema(col("item", "i_id", types.KindInt),
		col("item", "i_title", types.KindString), col("item", "i_a_id", types.KindInt), col("item", "i_subject", types.KindString)))
	ol, _ := db.CreateTable("order_line", types.NewSchema(col("order_line", "ol_id", types.KindInt),
		col("order_line", "ol_o_id", types.KindInt), col("order_line", "ol_i_id", types.KindInt), col("order_line", "ol_qty", types.KindInt)))
	for _, err := range []error{
		pk(author, "a_id"), pk(item, "i_id"), pk(ol, "ol_id"),
		ix(item, "ix_item_i_subject", "i_subject"), ix(ol, "ix_order_line_ol_o_id", "ol_o_id"),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	var ops []storage.WriteOp
	insert := func(table string, vals ...types.Value) {
		ops = append(ops, storage.WriteOp{Table: table, Kind: storage.WInsert, Row: vals})
	}
	for a := 1; a <= 30; a++ {
		insert("author", types.NewInt(int64(a)), types.NewString(fmt.Sprintf("F%02d", a)), types.NewString(fmt.Sprintf("L%02d", a)))
	}
	var items []int
	for id := 1; id <= 110; id++ {
		if id > 60 && id <= 100 {
			continue
		}
		items = append(items, id)
		subject, title, a := "A", types.NewString(fmt.Sprintf("T%03d", id)), types.NewInt(int64(id%30+1))
		if id > 100 {
			subject = "B"
		}
		switch id {
		case 5:
			a = types.Null
		case 6:
			a = types.NewInt(99)
		case 10, 11:
			title, a = types.NewString("Twin"), types.NewInt(3)
		}
		insert("item", types.NewInt(int64(id)), title, a, types.NewString(subject))
	}
	type line struct{ o, i int }
	var lines []line
	for _, i := range items {
		for j := 0; j <= i%4; j++ {
			lines = append(lines, line{(i*3+j*17)%100 + 1, i})
		}
	}
	slices.SortStableFunc(lines, func(a, b line) int { return a.o - b.o })
	for n, l := range lines {
		insert("order_line", types.NewInt(int64(n)), types.NewInt(int64(l.o)), types.NewInt(int64(l.i)), types.NewInt(1))
	}
	ops = append(ops, storage.WriteOp{Table: "author", Kind: storage.WDelete,
		Pred: &expr.Cmp{Op: expr.EQ, L: &expr.ColRef{Idx: 0}, R: &expr.Const{Val: types.NewInt(8)}}})
	apply(t, db, ops...)
	return db
}

func pk(t *storage.Table, col string) error { _, err := t.SetPrimaryKey(col); return err }

func ix(t *storage.Table, name, col string) error { _, err := t.AddIndex(name, false, col); return err }

func apply(t *testing.T, db *storage.Database, ops ...storage.WriteOp) {
	t.Helper()
	results, _ := db.ApplyOps(ops)
	for _, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
}

// TestFDRulesKeepRowOrder is the FD rules' differential: every statement
// runs on two engines over one database, one prepared with the FD lift and
// FD key and one without (plan.Disable), and each query's rows must be equal in
// value and in order — ties at a LIMIT cut included. The statements are best
// sellers (a Top-N: the lookup moves past the cut), its grouping without the
// Top-N (the lifted ⋈ix streams one lookup per group), with a HAVING, and
// with the title as a second sort key. Each generation carries several
// bounds and both subjects; between rounds a title, an author and order
// lines change.
func TestFDRulesKeepRowOrder(t *testing.T) {
	db := fdCatalog(t)
	const from = ` FROM order_line, item, author
		WHERE order_line.ol_i_id = item.i_id AND item.i_a_id = author.a_id
		AND order_line.ol_o_id > ? AND item.i_subject = ?
		GROUP BY i_id, i_title, a_fname, a_lname`
	stmts := []string{
		`SELECT i_id, i_title, a_fname, a_lname, SUM(ol_qty) AS val` + from + ` ORDER BY val DESC LIMIT 20`,
		`SELECT i_id, i_title, a_fname, a_lname, SUM(ol_qty) AS val` + from,
		`SELECT a_lname, i_id, COUNT(*), SUM(ol_qty) AS val` + from + ` HAVING SUM(ol_qty) > 1`,
		`SELECT i_title, a_fname, SUM(ol_qty) AS val` + from + ` ORDER BY val DESC, i_title LIMIT 7`,
	}
	engines := make([]*core.Engine, 2)
	prepared := make([][]*plan.Statement, 2)
	for i := range engines {
		p := plan.New(db)
		if i == 1 {
			plan.Disable(p, "fd-lift", "fd-key")
		}
		engines[i] = core.New(db, p, core.Config{MaxInFlightGenerations: 4})
		for _, q := range stmts {
			s, err := engines[i].Prepare(q)
			if err != nil {
				t.Fatal(err)
			}
			prepared[i] = append(prepared[i], s)
		}
	}
	defer engines[0].Close()
	defer engines[1].Close()
	on, off := engines[0].Plan().Describe(), engines[1].Plan().Describe()
	if !strings.Contains(on, "Γ(item.0,+item.1,+item.2,") || !strings.Contains(on, ": ⋈ix(author)") {
		t.Errorf("with the FD rules: want a Γ keyed on i_id and the lifted ⋈ix(author) for the unsorted statements; plan:\n%s", on)
	}
	if strings.Contains(off, "+item.") || strings.Contains(off, "⋈ix(author/pk_author)") {
		t.Errorf("without the FD rules: want no carried column and no deferred lookup; plan:\n%s", off)
	}

	params := [][]types.Value{
		{types.NewInt(0), types.NewString("A")},
		{types.NewInt(30), types.NewString("A")},
		{types.NewInt(0), types.NewString("B")},
		{types.NewInt(90), types.NewString("A")},
	}
	run := func(e int) []string {
		var calls []core.Call
		for si := range stmts {
			for _, ps := range params {
				calls = append(calls, core.Call{Stmt: prepared[e][si], Params: ps})
			}
		}
		engines[e].SubmitBatch(calls)
		out := make([]string, len(calls))
		for i, c := range calls {
			if err := c.Result.Wait(); err != nil {
				t.Fatal(err)
			}
			out[i] = fmt.Sprint(c.Result.Rows)
		}
		return out
	}
	where := func(col int, v types.Value) expr.Expr {
		return &expr.Cmp{Op: expr.EQ, L: &expr.ColRef{Idx: col}, R: &expr.Const{Val: v}}
	}
	for round := 0; round < 3; round++ {
		got, want := run(0), run(1)
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("round %d, %s %v:\nFD rules on:  %s\nFD rules off: %s", round, stmts[i/len(params)], params[i%len(params)], got[i], want[i])
			}
		}
		switch round {
		case 0:
			apply(t, db,
				storage.WriteOp{Table: "item", Kind: storage.WUpdate, Pred: where(0, types.NewInt(12)),
					Set: []storage.ColSet{{Col: 1, Val: &expr.Const{Val: types.NewString("Renamed")}}}},
				storage.WriteOp{Table: "author", Kind: storage.WUpdate, Pred: where(0, types.NewInt(4)),
					Set: []storage.ColSet{{Col: 2, Val: &expr.Const{Val: types.NewString("Changed")}}}},
				storage.WriteOp{Table: "order_line", Kind: storage.WDelete, Pred: where(1, types.NewInt(40))})
		case 1:
			apply(t, db, storage.WriteOp{Table: "order_line", Kind: storage.WUpdate, Pred: where(1, types.NewInt(70)),
				Set: []storage.ColSet{{Col: 3, Val: &expr.Const{Val: types.NewInt(3)}}}})
		}
	}
}
