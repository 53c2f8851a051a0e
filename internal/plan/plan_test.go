package plan

import (
	"strings"
	"testing"

	"shareddb/internal/operators"
	"shareddb/internal/storage"
	"shareddb/internal/types"
)

func testDB(t *testing.T) *storage.Database {
	t.Helper()
	db, err := storage.Open(storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	users, _ := db.CreateTable("users", types.NewSchema(
		types.Column{Qualifier: "users", Name: "user_id", Kind: types.KindInt},
		types.Column{Qualifier: "users", Name: "name", Kind: types.KindString},
		types.Column{Qualifier: "users", Name: "country", Kind: types.KindString},
	))
	users.SetPrimaryKey("user_id")
	orders, _ := db.CreateTable("orders", types.NewSchema(
		types.Column{Qualifier: "orders", Name: "o_id", Kind: types.KindInt},
		types.Column{Qualifier: "orders", Name: "o_user_id", Kind: types.KindInt},
		types.Column{Qualifier: "orders", Name: "o_total", Kind: types.KindFloat},
	))
	orders.SetPrimaryKey("o_id")
	orders.AddIndex("orders_user", false, "o_user_id")
	return db
}

func TestPrepareReadStatement(t *testing.T) {
	p := New(testDB(t))
	s, err := p.Prepare("SELECT name FROM users WHERE user_id = ?")
	if err != nil {
		t.Fatal(err)
	}
	if s.IsWrite() || s.NumParams != 1 || len(s.Project) != 1 {
		t.Errorf("statement = %+v", s)
	}
	if s.OutSchema.Cols[0].Name != "name" {
		t.Errorf("out schema = %v", s.OutSchema)
	}
	if len(p.Statements()) != 1 {
		t.Error("statement not registered")
	}
	// Prepare is idempotent by text.
	again, err := p.Prepare("SELECT name FROM users WHERE user_id = ?")
	if err != nil || again != s || len(p.Statements()) != 1 || p.Registered(s.SQL) != s {
		t.Fatalf("re-prepare = %p (%v), want %p; plan holds %d statements", again, err, s, len(p.Statements()))
	}
}

func TestPrepareWriteStatement(t *testing.T) {
	p := New(testDB(t))
	s, err := p.Prepare("UPDATE users SET name = ? WHERE user_id = ?")
	if err != nil {
		t.Fatal(err)
	}
	if !s.IsWrite() || s.Write == nil {
		t.Error("write plan missing")
	}
}

func TestIdenticalStatementsShareEverything(t *testing.T) {
	p := New(testDB(t))
	if _, err := p.Prepare("SELECT name FROM users, orders WHERE user_id = o_user_id AND country = ?"); err != nil {
		t.Fatal(err)
	}
	n1 := p.NumNodes()
	// The same statement in another spelling is a new text: it compiles a
	// second statement, which must share every operator of the first.
	if _, err := p.Prepare("SELECT name  FROM users, orders WHERE user_id = o_user_id AND country = ?"); err != nil {
		t.Fatal(err)
	}
	if n := len(p.Statements()); n != 2 {
		t.Fatalf("a whitespace variant must compile its own statement, plan holds %d", n)
	}
	if p.NumNodes() != n1 {
		t.Errorf("identical statement added nodes: %d → %d\n%s", n1, p.NumNodes(), p.Describe())
	}
}

func TestAccessPathSelection(t *testing.T) {
	p := New(testDB(t))
	// pk equality → probe node
	if _, err := p.Prepare("SELECT name FROM users WHERE user_id = ?"); err != nil {
		t.Fatal(err)
	}
	d := p.Describe()
	if !strings.Contains(d, "probe(users/pk_users)") {
		t.Errorf("expected pk probe, plan:\n%s", d)
	}
	// range predicate → shared scan (ranges share via the predicate index)
	if _, err := p.Prepare("SELECT o_id FROM orders WHERE o_total > ?"); err != nil {
		t.Fatal(err)
	}
	d = p.Describe()
	if !strings.Contains(d, "scan(orders)") {
		t.Errorf("expected shared scan for range, plan:\n%s", d)
	}
}

func TestJoinMethodSelection(t *testing.T) {
	p := New(testDB(t))
	// inner side (orders) reached purely by key with an index → index join
	if _, err := p.Prepare(`SELECT name, o_total FROM users, orders
		WHERE user_id = o_user_id AND user_id = ?`); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p.Describe(), "⋈ix(orders)") {
		t.Errorf("expected index join, plan:\n%s", p.Describe())
	}
	// inner side with a per-query predicate → shared hash join
	if _, err := p.Prepare(`SELECT o_id FROM orders, users
		WHERE o_user_id = user_id AND country = ?`); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p.Describe(), "⋈hash") {
		t.Errorf("expected hash join, plan:\n%s", p.Describe())
	}
	// two key columns, conjuncts not in index order → still an index join
	db := testDB(t)
	col := func(table, name string) types.Column {
		return types.Column{Qualifier: table, Name: name, Kind: types.KindInt}
	}
	db.CreateTable("a", types.NewSchema(col("a", "x"), col("a", "y")))
	b, _ := db.CreateTable("b", types.NewSchema(col("b", "p"), col("b", "q"), col("b", "v")))
	if _, err := b.AddIndex("b_qp", false, "q", "p"); err != nil {
		t.Fatal(err)
	}
	p = New(db)
	if _, err := p.Prepare(`SELECT v FROM a, b WHERE b.p = a.x AND b.q = a.y`); err != nil {
		t.Fatal(err)
	}
	if d := p.Describe(); !strings.Contains(d, "⋈ix(b) [b.2]") {
		t.Errorf("expected an index join into b_qp for keys in either order, plan:\n%s", d)
	}
}

// TestScanFedHashJoinFusesItsOuter pins the compile-time rule: a hash
// join whose outer is one direct shared scan reads that outer from the
// column mirror, so no scan node is created for it, and EXPLAIN names the
// table on the join.
func TestScanFedHashJoinFusesItsOuter(t *testing.T) {
	p := New(testDB(t))
	s, err := p.Prepare(`SELECT o_id, name FROM orders, users
		WHERE o_user_id = user_id AND country = ? AND o_total > ?`)
	if err != nil {
		t.Fatal(err)
	}
	d := p.Describe()
	if !strings.Contains(d, "⇐ mirror(orders)") || strings.Contains(d, "scan(orders)") {
		t.Fatalf("want the join to read orders from the mirror and no scan(orders) node, plan:\n%s", d)
	}
	for _, st := range s.steps {
		if st.node.Name == "scan(orders)" {
			t.Fatal("the fused statement still has a scan(orders) step")
		}
	}
	// A plain scan of the same table creates the node; the join keeps
	// reading the mirror.
	n := p.NumNodes()
	if _, err := p.Prepare("SELECT o_id FROM orders WHERE o_total > ?"); err != nil {
		t.Fatal(err)
	}
	if d := p.Describe(); p.NumNodes() != n+1 || !strings.Contains(d, "scan(orders) → output") || !strings.Contains(d, "⇐ mirror(orders)") {
		t.Fatalf("plan after a plain orders scan:\n%s", d)
	}
}

// TestDirectScanGroupReadsMirror pins the aggregation pushdown as a
// compile-time rule: a GROUP BY over a direct base-table scan compiles to
// its Γ node alone, which reads the table from the column mirror (no scan
// node, step or edge), and its task carries the table and the bound scan
// predicate, exactly like a hash join's fused outer.
func TestDirectScanGroupReadsMirror(t *testing.T) {
	db := testDB(t)
	m, err := db.CreateTable("m", types.NewSchema(
		types.Column{Qualifier: "m", Name: "m_id", Kind: types.KindInt},
		types.Column{Qualifier: "m", Name: "m_g", Kind: types.KindInt},
		types.Column{Qualifier: "m", Name: "m_v", Kind: types.KindInt},
	))
	if err != nil {
		t.Fatal(err)
	}
	m.SetPrimaryKey("m_id")
	p := New(db)
	s, err := p.Prepare("SELECT m_g, COUNT(*), SUM(m_v) FROM m WHERE m_v > ? GROUP BY m_g")
	if err != nil {
		t.Fatal(err)
	}
	d := p.Describe()
	if p.NumNodes() != 1 || strings.Contains(d, "scan(m)") || !strings.Contains(d, "Γ(m.1,COUNT|false|,SUM|false|m.2) ⇐ mirror(m) → output") {
		t.Fatalf("want one Γ node reading m from the mirror, plan:\n%s", d)
	}
	if len(s.steps) != 1 || len(s.pathEdges) != 1 {
		t.Fatalf("want one step and only the edge to the sink, got %d steps, %d edges", len(s.steps), len(s.pathEdges))
	}
	task := operators.Task{Spec: s.steps[0].makeSpec([]types.Value{types.NewInt(7)})}
	if spec := task.Spec.(operators.GroupSpec); spec.Table != m || spec.Pred == nil || !readsMirror(task) {
		t.Fatalf("group task = %+v, want it to read m from the mirror under the bound predicate", spec)
	}
}

func TestPrepareErrors(t *testing.T) {
	p := New(testDB(t))
	for _, bad := range []string{
		"SELECT * FROM missing",
		"SELECT * FROM users, orders", // cross join unsupported in shared plan
		"CREATE TABLE x (a INT)",      // DDL is not preparable
		"garbage",
	} {
		if _, err := p.Prepare(bad); err == nil {
			t.Errorf("Prepare(%q) should fail", bad)
		}
	}
}

func TestStartStopIdempotent(t *testing.T) {
	p := New(testDB(t))
	if _, err := p.Prepare("SELECT name FROM users WHERE user_id = ?"); err != nil {
		t.Fatal(err)
	}
	p.Start()
	p.Start() // idempotent
	p.Stop()
}

func TestLateNodeStartsWhenPlanRunning(t *testing.T) {
	p := New(testDB(t))
	p.Start()
	defer p.Stop()
	// preparing after Start must start the new nodes' goroutines
	if _, err := p.Prepare("SELECT o_id FROM orders WHERE o_id = ?"); err != nil {
		t.Fatal(err)
	}
}

func TestOriginString(t *testing.T) {
	o := origin{Table: "users", Col: 2}
	if o.String() != "users.2" {
		t.Errorf("origin = %s", o)
	}
	syn := origin{Synth: "SUM(x)"}
	if syn.String() != "<SUM(x)>" {
		t.Errorf("synth origin = %s", syn)
	}
}

// TestSortNodeSharingWithDeferredLookup pins how deferred lookups share sort
// nodes: statements that defer the same join on one input stream share the
// node and its out-stream (a later one appends the columns it reads), and a
// statement sorting that stream without the join opens a second node of the
// same signature, since a node configures each input stream once.
func TestSortNodeSharingWithDeferredLookup(t *testing.T) {
	p := New(testDB(t))
	prep := func(q string) {
		t.Helper()
		if _, err := p.Prepare(q); err != nil {
			t.Fatal(err)
		}
	}
	prep(`SELECT o_id, name FROM orders, users WHERE o_user_id = user_id AND o_total > ? ORDER BY o_total LIMIT 5`)
	n := p.NumNodes()
	prep(`SELECT o_id, country FROM orders, users WHERE o_user_id = user_id AND o_total < ? ORDER BY o_total LIMIT 3`)
	d := p.Describe()
	if p.NumNodes() != n || strings.Count(d, "⋈ix(users/pk_users)") != 1 || strings.Contains(d, ": ⋈ix(") ||
		!strings.Contains(d, "[orders.0 users.1 users.2] ⋈ix(users/pk_users)") {
		t.Fatalf("second deferred statement: %d nodes (want %d), plan:\n%s", p.NumNodes(), n, d)
	}
	prep(`SELECT o_id FROM orders WHERE o_total > ? ORDER BY o_total LIMIT 5`)
	if d := p.Describe(); p.NumNodes() != n+1 || strings.Count(d, ": sort(orders.2|false)") != 2 {
		t.Fatalf("a plain Top-N of the same stream: %d nodes (want %d), plan:\n%s", p.NumNodes(), n+1, d)
	}
	// An ORDER BY on an inner column keeps the index join.
	prep(`SELECT o_id FROM orders, users WHERE o_user_id = user_id ORDER BY name LIMIT 5`)
	if d := p.Describe(); !strings.Contains(d, ": ⋈ix(users)") {
		t.Fatalf("a sort on an inner column deferred the join, plan:\n%s", d)
	}
}
