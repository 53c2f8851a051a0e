package plan_test

import (
	"fmt"
	"strings"
	"testing"

	"shareddb/internal/core"
	"shareddb/internal/plan"
	"shareddb/internal/storage"
	"shareddb/internal/tpcw"
	"shareddb/internal/types"
)

// ruleQuery is one read statement of the rule-toggle differential and the
// parameter sets each generation runs it with.
type ruleQuery struct {
	sql    string
	params [][]types.Value
}

// ruleQueries is every TPC-W read statement plus shapes TPC-W lacks: a MIN
// and a MAX over an index edge (a pinned prefix of shopping_cart_line's
// primary key), a GROUP BY over two columns with non-unique indexes, a join
// into a two-column unique index whose conjuncts name the key columns out of
// index order, unsorted and under a Top-N, and author search's join into a
// non-unique index under a Top-N on outer columns only, which no lookup may
// defer. Then groupJoinShapes.
func ruleQueries() []ruleQuery {
	iv := func(v int64) types.Value { return types.NewInt(v) }
	sv := types.NewString
	params := map[tpcw.StmtID][][]types.Value{
		tpcw.StGetName:                 {{iv(5)}, {iv(0)}},
		tpcw.StGetBook:                 {{iv(17)}, {iv(40)}},
		tpcw.StGetCustomer:             {{sv("user000003")}},
		tpcw.StDoSubjectSearch:         {{sv("ARTS")}, {sv("HISTORY")}, {sv("COOKING")}},
		tpcw.StDoTitleSearch:           {{sv("%e%")}, {sv("Title 0001%")}, {sv("%")}},
		tpcw.StDoAuthorSearch:          {{sv("Lastname000%")}, {sv("%")}},
		tpcw.StGetNewProducts:          {{sv("HISTORY")}, {sv("ARTS")}},
		tpcw.StGetMaxOrderID:           {nil},
		tpcw.StGetBestSellers:          {{iv(0), sv("COOKING")}, {iv(20), sv("ARTS")}, {iv(0), sv("HISTORY")}},
		tpcw.StGetRelated:              {{iv(9)}, {iv(31)}},
		tpcw.StGetUserName:             {{iv(5)}},
		tpcw.StGetPassword:             {{sv("user000003")}},
		tpcw.StGetMostRecentOrderID:    {{iv(3)}, {iv(12)}},
		tpcw.StGetMostRecentOrder:      {{iv(3)}},
		tpcw.StGetMostRecentOrderLines: {{iv(3)}, {iv(10)}},
		tpcw.StGetCartLine:             {{iv(7), iv(11)}},
		tpcw.StGetCart:                 {{iv(7)}, {iv(8)}},
		tpcw.StGetCDiscount:            {{iv(5)}},
		tpcw.StGetCAddr:                {{iv(5)}},
		tpcw.StGetCountryID:            {{sv("Canada")}},
		tpcw.StGetStock:                {{iv(17)}},
		tpcw.StGetLatestOrderID:        {{iv(3)}},
	}
	var qs []ruleQuery
	for id, q := range tpcw.StatementSQL() {
		if strings.HasPrefix(q, "SELECT") {
			qs = append(qs, ruleQuery{q, params[tpcw.StmtID(id)]})
		}
	}
	cart := [][]types.Value{{iv(7)}, {iv(8)}, {iv(99)}}
	const cartJoin = `SELECT ol_id, ol_i_id, scl_qty FROM order_line, shopping_cart_line
		WHERE shopping_cart_line.scl_i_id = order_line.ol_i_id
		AND shopping_cart_line.scl_sc_id = order_line.ol_o_id AND order_line.ol_qty < ?`
	const authorItems = `SELECT a_id, a_lname, i_id FROM author, item
		WHERE author.a_lname LIKE ? AND item.i_a_id = author.a_id`
	for _, s := range groupJoinShapes() {
		qs = append(qs, s.ruleQuery)
	}
	return append(qs,
		ruleQuery{`SELECT MIN(scl_i_id) FROM shopping_cart_line WHERE scl_sc_id = ?`, cart},
		ruleQuery{`SELECT MAX(scl_i_id) FROM shopping_cart_line WHERE scl_sc_id = ?`, cart},
		ruleQuery{`SELECT MIN(o_id) FROM orders`, [][]types.Value{nil}},
		ruleQuery{`SELECT i_subject, i_title, COUNT(*) FROM item WHERE i_cost > ? GROUP BY i_subject, i_title`,
			[][]types.Value{{types.NewFloat(0)}, {types.NewFloat(50)}}},
		ruleQuery{cartJoin, [][]types.Value{{iv(3)}, {iv(100)}}},
		ruleQuery{cartJoin + ` ORDER BY ol_id DESC LIMIT 4`, [][]types.Value{{iv(3)}, {iv(100)}}},
		ruleQuery{authorItems + ` ORDER BY a_lname DESC LIMIT 7`, [][]types.Value{{sv("Lastname001%")}, {sv("%")}}},
		ruleQuery{authorItems, [][]types.Value{{sv("Lastname001%")}, {sv("%")}}},
	)
}

// groupJoinShape is a grouped join and whether group-join folds its
// group-by into the join.
type groupJoinShape struct {
	ruleQuery
	fused bool
}

// groupJoinShapes is best sellers' grouping in the shapes group-join takes
// — a FLOAT SUM, AVG and COUNT(*) under a HAVING on a SUM it does not
// select, a COUNT(DISTINCT) — and in the shapes it declines: grouped on the
// outer key, an aggregate reading an inner column, a join into a non-unique
// inner key.
func groupJoinShapes() []groupJoinShape {
	iv, sv := types.NewInt, types.NewString
	const sellers = ` FROM order_line, item WHERE order_line.ol_i_id = item.i_id
		AND order_line.ol_o_id > ? AND item.i_subject = ?`
	params := [][]types.Value{{iv(0), sv("COOKING")}, {iv(20), sv("ARTS")}, {iv(0), sv("HISTORY")}}
	return []groupJoinShape{
		{ruleQuery{`SELECT i_id, i_title, a_fname, a_lname, SUM(ol_discount) AS val FROM order_line, item, author
			WHERE order_line.ol_i_id = item.i_id AND item.i_a_id = author.a_id
			AND order_line.ol_o_id > ? AND item.i_subject = ?
			GROUP BY i_id, i_title, a_fname, a_lname ORDER BY val DESC LIMIT 50`, params}, true},
		{ruleQuery{`SELECT i_id, i_title, AVG(ol_qty), COUNT(*)` + sellers + ` GROUP BY i_id, i_title HAVING SUM(ol_qty) > ?`,
			[][]types.Value{{iv(0), sv("COOKING"), iv(1)}, {iv(20), sv("ARTS"), iv(4)}}}, true},
		{ruleQuery{`SELECT i_id, COUNT(DISTINCT ol_qty)` + sellers + ` GROUP BY i_id`, params}, true},
		{ruleQuery{`SELECT ol_i_id, SUM(ol_qty)` + sellers + ` GROUP BY ol_i_id`, params}, false},
		{ruleQuery{`SELECT i_id, SUM(ol_qty * i_cost)` + sellers + ` GROUP BY i_id`, params}, false},
		{ruleQuery{`SELECT scl_i_id, SUM(ol_qty) FROM order_line, shopping_cart_line
			WHERE shopping_cart_line.scl_i_id = order_line.ol_i_id AND shopping_cart_line.scl_qty < ?
			GROUP BY scl_i_id`, [][]types.Value{{iv(7)}, {iv(3)}}}, false},
	}
}

// TestGroupJoinShapes pins which of groupJoinShapes group-join folds into
// its hash join: the fused node replaces both the ⋈hash and the Γ.
func TestGroupJoinShapes(t *testing.T) {
	db, err := storage.Open(storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := tpcw.CreateSchema(db); err != nil {
		t.Fatal(err)
	}
	for _, s := range groupJoinShapes() {
		p := plan.New(db)
		if _, err := p.Prepare(s.sql); err != nil {
			t.Fatal(err)
		}
		d := p.Describe()
		if fused := strings.Contains(d, "⋈Γ("); fused != s.fused || fused == strings.Contains(d, "⋈hash(") {
			t.Errorf("%s: fused %v, want %v; plan:\n%s", s.sql, fused, s.fused, d)
		}
	}
}

// ruleWrites are the differential's write rounds: the first, before any
// read, fills carts 7 and 8 with items their orders hold; the second, between
// the two generations, renames, moves and re-prices items (ties in title
// and subject), deletes an author and adds and removes order and cart
// lines.
var ruleWrites = [][]string{{
	`INSERT INTO order_line (ol_id, ol_o_id, ol_i_id, ol_qty, ol_discount, ol_comments) VALUES (900000, 7, 12, 1, 0.0, 'a')`,
	`INSERT INTO order_line (ol_id, ol_o_id, ol_i_id, ol_qty, ol_discount, ol_comments) VALUES (900001, 7, 11, 5, 0.0, 'b')`,
	`INSERT INTO order_line (ol_id, ol_o_id, ol_i_id, ol_qty, ol_discount, ol_comments) VALUES (900002, 8, 11, 2, 0.0, 'c')`,
	`INSERT INTO order_line (ol_id, ol_o_id, ol_i_id, ol_qty, ol_discount, ol_comments) VALUES (900003, 8, 12, 2, 0.0, 'd')`,
	`INSERT INTO shopping_cart_line (scl_sc_id, scl_qty, scl_i_id) VALUES (7, 2, 11)`,
	`INSERT INTO shopping_cart_line (scl_sc_id, scl_qty, scl_i_id) VALUES (7, 1, 12)`,
	`INSERT INTO shopping_cart_line (scl_sc_id, scl_qty, scl_i_id) VALUES (8, 5, 11)`,
	`INSERT INTO shopping_cart_line (scl_sc_id, scl_qty, scl_i_id) VALUES (8, 3, 12)`,
}, {
	`UPDATE item SET i_title = 'Title 00001 same' WHERE i_id = 2`,
	`UPDATE item SET i_title = 'Title 00001 same' WHERE i_id = 3`,
	`UPDATE item SET i_subject = 'ARTS' WHERE i_id = 4`,
	`UPDATE item SET i_cost = 75.5 WHERE i_id = 6`,
	`DELETE FROM author WHERE a_id = 2`,
	`INSERT INTO order_line (ol_id, ol_o_id, ol_i_id, ol_qty, ol_discount, ol_comments) VALUES (900004, 8, 13, 2, 0.0, 'e')`,
	`INSERT INTO order_line (ol_id, ol_o_id, ol_i_id, ol_qty, ol_discount, ol_comments) VALUES (900005, 7, 13, 50, 0.0, 'f')`,
	`DELETE FROM order_line WHERE ol_o_id = 10`,
	`DELETE FROM shopping_cart_line WHERE scl_sc_id = 8 AND scl_i_id = 12`,
	`INSERT INTO shopping_cart_line (scl_sc_id, scl_qty, scl_i_id) VALUES (7, 4, 13)`,
}}

// ruleToggleSets is all rules on, each rule off, and each pair of rules off.
// A triple could make a statement visit one scan node twice (TPC-W's
// related-items self-join without index-join, index-probe and
// mirror-input), which the shared plan rejects.
func ruleToggleSets() [][]string {
	names := plan.RuleNames()
	sets := [][]string{nil}
	for _, a := range names {
		sets = append(sets, []string{a})
	}
	for i, a := range names {
		for _, b := range names[i+1:] {
			sets = append(sets, []string{a, b})
		}
	}
	return sets
}

// TestRuleToggleDifferential is the rewrite layer's differential query plan
// check (Ba & Rigger, "Keep It Simple: Testing Databases via Differential
// Query Plans", SIGMOD 2024): one engine per toggle set over one loaded
// TPC-W database runs every read statement in one generation after each
// write round, and each query must return the rows of the engine with every
// rule on — the same values in the same order. No second engine
// implementation is involved.
func TestRuleToggleDifferential(t *testing.T) {
	db, err := storage.Open(storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := tpcw.Setup(db, tpcw.Scale{Items: 200, Customers: 100}, 7); err != nil {
		t.Fatal(err)
	}
	queries := ruleQueries()
	type engine struct {
		name  string
		e     *core.Engine
		stmts []*plan.Statement
	}
	var engines []engine
	for _, set := range ruleToggleSets() {
		p := plan.New(db)
		plan.Disable(p, set...)
		en := engine{name: "all rules on", e: core.New(db, p, core.Config{MaxInFlightGenerations: 4})}
		if set != nil {
			en.name = strings.Join(set, ", ") + " off"
		}
		defer en.e.Close()
		for _, q := range queries {
			s, err := en.e.Prepare(q.sql)
			if err != nil {
				t.Fatalf("%s: %s: %v", en.name, q.sql, err)
			}
			en.stmts = append(en.stmts, s)
		}
		engines = append(engines, en)
	}
	if n := len(engines); n != 1+8+28 {
		t.Fatalf("%d toggle sets, want 37 (8 rules, each alone and in pairs)", n)
	}

	run := func(en engine) ([]string, uint64) {
		var calls []core.Call
		for i, q := range queries {
			for _, ps := range q.params {
				calls = append(calls, core.Call{Stmt: en.stmts[i], Params: ps})
			}
		}
		en.e.SubmitBatch(calls)
		out := make([]string, len(calls))
		for i, c := range calls {
			if err := c.Result.Wait(); err != nil {
				t.Fatalf("%s: %s %v: %v", en.name, c.Stmt.SQL, c.Params, err)
			}
			if c.Result.SnapshotTS != calls[0].Result.SnapshotTS {
				t.Fatalf("%s: the batch ran at two snapshots", en.name)
			}
			out[i] = fmt.Sprint(c.Result.Rows)
		}
		return out, calls[0].Result.SnapshotTS
	}
	for round, writes := range ruleWrites {
		for _, w := range writes {
			s, err := engines[0].e.Prepare(w)
			if err != nil {
				t.Fatal(err)
			}
			if r := engines[0].e.Submit(s, nil); r.Wait() != nil {
				t.Fatalf("%s: %v", w, r.Err)
			}
		}
		want, ts := run(engines[0])
		for _, en := range engines[1:] {
			got, gts := run(en)
			if gts != ts {
				t.Fatalf("round %d, %s: snapshot %d, want %d", round, en.name, gts, ts)
			}
			i := 0
			for _, q := range queries {
				for _, ps := range q.params {
					if got[i] != want[i] {
						t.Errorf("round %d, %s: %s %v:\ngot  %s\nwant %s", round, en.name, q.sql, ps, got[i], want[i])
					}
					i++
				}
			}
		}
	}
}
