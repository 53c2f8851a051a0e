package sql

import (
	"math"
	"strings"
	"testing"

	"shareddb/internal/types"
)

func mustParse(t *testing.T, src string) Statement {
	t.Helper()
	stmt, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return stmt
}

func TestParseSimpleSelect(t *testing.T) {
	s := mustParse(t, "SELECT id, name FROM users WHERE id = 5").(*SelectStmt)
	if len(s.Items) != 2 || s.Items[0].Expr.(*Ident).Name != "id" {
		t.Errorf("items = %+v", s.Items)
	}
	if len(s.From) != 1 || s.From[0].Table != "users" {
		t.Errorf("from = %+v", s.From)
	}
	w := s.Where.(*BinOp)
	if w.Op != "=" || w.L.(*Ident).Name != "id" || w.R.(*Lit).Val.AsInt() != 5 {
		t.Errorf("where = %+v", w)
	}
}

func TestParseStar(t *testing.T) {
	s := mustParse(t, "SELECT * FROM users").(*SelectStmt)
	if !s.Items[0].Star {
		t.Error("star not recognized")
	}
	s = mustParse(t, "SELECT u.* FROM users u").(*SelectStmt)
	if !s.Items[0].Star || s.Items[0].StarTable != "u" {
		t.Errorf("qualified star = %+v", s.Items[0])
	}
}

func TestParseAliases(t *testing.T) {
	s := mustParse(t, "SELECT name AS n, account acct FROM users AS u, orders o").(*SelectStmt)
	if s.Items[0].Alias != "n" || s.Items[1].Alias != "acct" {
		t.Errorf("aliases = %+v", s.Items)
	}
	if s.From[0].Alias != "u" || s.From[1].Alias != "o" {
		t.Errorf("from aliases = %+v", s.From)
	}
}

func TestParseJoinOn(t *testing.T) {
	s := mustParse(t, "SELECT * FROM a JOIN b ON a.x = b.y WHERE a.z > 1").(*SelectStmt)
	if len(s.From) != 2 || s.From[1].JoinOn == nil {
		t.Fatalf("from = %+v", s.From)
	}
	s = mustParse(t, "SELECT * FROM a INNER JOIN b ON a.x = b.y").(*SelectStmt)
	if s.From[1].JoinOn == nil {
		t.Error("INNER JOIN not parsed")
	}
}

func TestParseGroupHavingOrderLimit(t *testing.T) {
	src := `SELECT country, COUNT(*), SUM(account) AS total
	        FROM users GROUP BY country HAVING COUNT(*) > 2
	        ORDER BY total DESC, country LIMIT 10`
	s := mustParse(t, src).(*SelectStmt)
	if len(s.GroupBy) != 1 || s.Having == nil {
		t.Fatalf("group/having = %v %v", s.GroupBy, s.Having)
	}
	if len(s.OrderBy) != 2 || !s.OrderBy[0].Desc || s.OrderBy[1].Desc {
		t.Errorf("order = %+v", s.OrderBy)
	}
	if s.Limit != 10 {
		t.Errorf("limit = %d", s.Limit)
	}
	fc := s.Items[1].Expr.(*FuncCall)
	if fc.Name != "COUNT" || !fc.Star {
		t.Errorf("count = %+v", fc)
	}
}

func TestParseDistinctAndTop(t *testing.T) {
	s := mustParse(t, "SELECT DISTINCT name FROM users").(*SelectStmt)
	if !s.Distinct {
		t.Error("DISTINCT missed")
	}
	s = mustParse(t, "SELECT TOP 5 name FROM users").(*SelectStmt)
	if s.Limit != 5 {
		t.Error("TOP missed")
	}
}

func TestParsePredicates(t *testing.T) {
	s := mustParse(t, `SELECT * FROM t WHERE a LIKE '%x%' AND b NOT LIKE 'y'
		AND c IN (1, 2, 3) AND d NOT IN (4) AND e IS NULL AND f IS NOT NULL
		AND g BETWEEN 1 AND 10 AND NOT h = 3`).(*SelectStmt)
	// count conjuncts by walking the AND spine
	n := 0
	var walk func(Node)
	walk = func(nd Node) {
		if b, ok := nd.(*BinOp); ok && b.Op == "AND" {
			walk(b.L)
			walk(b.R)
			return
		}
		n++
	}
	walk(s.Where)
	if n != 8 {
		t.Errorf("conjuncts = %d, want 8", n)
	}
}

func TestParseParams(t *testing.T) {
	s := mustParse(t, "SELECT * FROM t WHERE a = ? AND b > ? AND c LIKE ?")
	if got := NumParams(s); got != 3 {
		t.Errorf("NumParams = %d, want 3", got)
	}
	ins := mustParse(t, "INSERT INTO t (a, b) VALUES (?, ?)")
	if got := NumParams(ins); got != 2 {
		t.Errorf("insert NumParams = %d", got)
	}
	upd := mustParse(t, "UPDATE t SET a = ? WHERE b = ?")
	if got := NumParams(upd); got != 2 {
		t.Errorf("update NumParams = %d", got)
	}
}

func TestParseInsert(t *testing.T) {
	s := mustParse(t, "INSERT INTO users (id, name) VALUES (1, 'bob')").(*InsertStmt)
	if s.Table != "users" || len(s.Columns) != 2 || len(s.Values) != 2 {
		t.Errorf("insert = %+v", s)
	}
	if s.Values[1].(*Lit).Val.AsString() != "bob" {
		t.Error("string literal wrong")
	}
	s = mustParse(t, "INSERT INTO users VALUES (1, 'bob', 'CH', 5)").(*InsertStmt)
	if len(s.Columns) != 0 || len(s.Values) != 4 {
		t.Errorf("columnless insert = %+v", s)
	}
}

func TestParseUpdateDelete(t *testing.T) {
	u := mustParse(t, "UPDATE users SET account = account + 1, name = 'x' WHERE id = 3").(*UpdateStmt)
	if len(u.Set) != 2 || u.Set[0].Column != "account" {
		t.Errorf("update = %+v", u)
	}
	d := mustParse(t, "DELETE FROM users WHERE id = 3").(*DeleteStmt)
	if d.Table != "users" || d.Where == nil {
		t.Errorf("delete = %+v", d)
	}
}

func TestParseCreate(t *testing.T) {
	ct := mustParse(t, `CREATE TABLE users (
		id INT, name VARCHAR(40), account DOUBLE, ok BOOL, born TIMESTAMP,
		PRIMARY KEY (id))`).(*CreateTableStmt)
	if len(ct.Columns) != 5 {
		t.Fatalf("columns = %+v", ct.Columns)
	}
	wantKinds := []types.Kind{types.KindInt, types.KindString, types.KindFloat, types.KindBool, types.KindTime}
	for i, k := range wantKinds {
		if ct.Columns[i].Kind != k {
			t.Errorf("col %d kind = %v, want %v", i, ct.Columns[i].Kind, k)
		}
	}
	if len(ct.Primary) != 1 || ct.Primary[0] != "id" {
		t.Errorf("primary = %v", ct.Primary)
	}
	ci := mustParse(t, "CREATE UNIQUE INDEX idx_name ON users (name, id)").(*CreateIndexStmt)
	if !ci.Unique || ci.Table != "users" || len(ci.Columns) != 2 {
		t.Errorf("create index = %+v", ci)
	}
}

func TestParseStringEscapes(t *testing.T) {
	s := mustParse(t, "SELECT * FROM t WHERE a = 'it''s'").(*SelectStmt)
	if s.Where.(*BinOp).R.(*Lit).Val.AsString() != "it's" {
		t.Error("quote escape failed")
	}
}

func TestParseComments(t *testing.T) {
	s := mustParse(t, "SELECT * -- trailing comment\nFROM t")
	if s.(*SelectStmt).From[0].Table != "t" {
		t.Error("comment handling broken")
	}
}

func TestParseNegativeNumbers(t *testing.T) {
	s := mustParse(t, "SELECT * FROM t WHERE a = -5 AND b = -2.5").(*SelectStmt)
	and := s.Where.(*BinOp)
	if and.L.(*BinOp).R.(*Lit).Val.AsInt() != -5 {
		t.Error("negative int")
	}
	if and.R.(*BinOp).R.(*Lit).Val.AsFloat() != -2.5 {
		t.Error("negative float")
	}
}

func TestParsePrecedence(t *testing.T) {
	s := mustParse(t, "SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3").(*SelectStmt)
	or := s.Where.(*BinOp)
	if or.Op != "OR" {
		t.Fatalf("top = %s, want OR", or.Op)
	}
	if or.R.(*BinOp).Op != "AND" {
		t.Error("AND should bind tighter than OR")
	}
	s = mustParse(t, "SELECT * FROM t WHERE a + 1 * 2 = 3").(*SelectStmt)
	eq := s.Where.(*BinOp)
	add := eq.L.(*BinOp)
	if add.Op != "+" || add.R.(*BinOp).Op != "*" {
		t.Error("* should bind tighter than +")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELEC * FROM t",
		"SELECT FROM t",
		"SELECT * FROM",
		"SELECT * FROM t WHERE",
		"SELECT * FROM t LIMIT x",
		"INSERT INTO t",
		"UPDATE t",
		"DELETE t",
		"CREATE VIEW v",
		"SELECT * FROM t WHERE a = 'unterminated",
		"SELECT * FROM t WHERE a @ 3",
		"SELECT * FROM t; SELECT * FROM u",
		"SELECT * FROM t WHERE a = 1.2.3",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestParseTPCWStatements(t *testing.T) {
	// Representative statements from the TPC-W reference implementation.
	stmts := []string{
		`SELECT c_fname, c_lname FROM customer WHERE c_id = ?`,
		`SELECT * FROM item, author WHERE item.i_a_id = author.a_id AND i_id = ?`,
		`SELECT i_id, i_title, a_fname, a_lname FROM item, author
		 WHERE i_a_id = a_id AND i_subject = ? ORDER BY i_pub_date DESC, i_title LIMIT 50`,
		`SELECT i_id, i_title, a_fname, a_lname, SUM(ol_qty) AS val
		 FROM order_line, item, author
		 WHERE ol_i_id = i_id AND i_a_id = a_id AND ol_o_id > ? AND i_subject = ?
		 GROUP BY i_id, i_title, a_fname, a_lname
		 ORDER BY val DESC LIMIT 50`,
		`SELECT DISTINCT i_title FROM item WHERE i_title LIKE ? ORDER BY i_title LIMIT 50`,
		`UPDATE item SET i_cost = ?, i_image = ?, i_thumbnail = ?, i_pub_date = ? WHERE i_id = ?`,
		`INSERT INTO order_line (ol_id, ol_o_id, ol_i_id, ol_qty, ol_discount, ol_comments)
		 VALUES (?, ?, ?, ?, ?, ?)`,
		`SELECT COUNT(*) FROM shopping_cart_line WHERE scl_sc_id = ?`,
		`DELETE FROM shopping_cart_line WHERE scl_sc_id = ? AND scl_i_id = ?`,
	}
	for _, src := range stmts {
		if _, err := Parse(src); err != nil {
			t.Errorf("Parse failed for %q: %v", strings.Join(strings.Fields(src), " "), err)
		}
	}
}

// TestParseMostNegativeInt pins the INT literal extremes: a minus right
// before 9223372036854775808 is the most negative INT, the bare literal is
// out of range, and negating the most negative INT again is an overflow,
// not a wrap.
func TestParseMostNegativeInt(t *testing.T) {
	for src, want := range map[string]int64{
		"INSERT INTO t VALUES (-9223372036854775808)": math.MinInt64,
		"INSERT INTO t VALUES (-9223372036854775807)": -math.MaxInt64,
		"INSERT INTO t VALUES (9223372036854775807)":  math.MaxInt64,
		"INSERT INTO t VALUES (- -5)":                 5,
	} {
		v := mustParse(t, src).(*InsertStmt).Values[0]
		if lit, ok := v.(*Lit); !ok || lit.Val.Kind() != types.KindInt || lit.Val.Int != want {
			t.Errorf("%s: value %#v, want INT %d", src, v, want)
		}
	}
	for _, src := range []string{
		"INSERT INTO t VALUES (9223372036854775808)",
		"INSERT INTO t VALUES (- -9223372036854775808)",
		"SELECT a FROM t WHERE a = -(-9223372036854775808)",
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("%s parsed, want an error", src)
		}
	}
}
