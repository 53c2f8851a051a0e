package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"shareddb/internal/plan"
	"shareddb/internal/storage"
	"shareddb/internal/types"
)

// bookstore is a miniature of the TPC-W schema used across the engine tests.
func bookstore(t testing.TB) (*storage.Database, func()) {
	t.Helper()
	db, err := storage.Open(storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(name string, cols ...types.Column) *storage.Table {
		tab, err := db.CreateTable(name, types.NewSchema(cols...))
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}
	item := mk("item",
		types.Column{Qualifier: "item", Name: "i_id", Kind: types.KindInt},
		types.Column{Qualifier: "item", Name: "i_title", Kind: types.KindString},
		types.Column{Qualifier: "item", Name: "i_a_id", Kind: types.KindInt},
		types.Column{Qualifier: "item", Name: "i_subject", Kind: types.KindString},
		types.Column{Qualifier: "item", Name: "i_price", Kind: types.KindFloat},
	)
	item.SetPrimaryKey("i_id")
	item.AddIndex("item_subject", false, "i_subject")
	author := mk("author",
		types.Column{Qualifier: "author", Name: "a_id", Kind: types.KindInt},
		types.Column{Qualifier: "author", Name: "a_lname", Kind: types.KindString},
	)
	author.SetPrimaryKey("a_id")
	orders := mk("orders",
		types.Column{Qualifier: "orders", Name: "o_id", Kind: types.KindInt},
		types.Column{Qualifier: "orders", Name: "o_c_id", Kind: types.KindInt},
		types.Column{Qualifier: "orders", Name: "o_total", Kind: types.KindFloat},
	)
	orders.SetPrimaryKey("o_id")
	ol := mk("order_line",
		types.Column{Qualifier: "order_line", Name: "ol_id", Kind: types.KindInt},
		types.Column{Qualifier: "order_line", Name: "ol_o_id", Kind: types.KindInt},
		types.Column{Qualifier: "order_line", Name: "ol_i_id", Kind: types.KindInt},
		types.Column{Qualifier: "order_line", Name: "ol_qty", Kind: types.KindInt},
	)
	ol.SetPrimaryKey("ol_id")
	ol.AddIndex("ol_o", false, "ol_o_id")

	subjects := []string{"ARTS", "SCIENCE", "HISTORY", "COOKING"}
	var ops []storage.WriteOp
	for i := int64(0); i < 20; i++ {
		ops = append(ops, storage.WriteOp{Table: "author", Kind: storage.WInsert,
			Row: types.Row{types.NewInt(i), types.NewString(fmt.Sprintf("Author%02d", i))}})
	}
	for i := int64(0); i < 100; i++ {
		ops = append(ops, storage.WriteOp{Table: "item", Kind: storage.WInsert,
			Row: types.Row{
				types.NewInt(i),
				types.NewString(fmt.Sprintf("Title %03d", i)),
				types.NewInt(i % 20),
				types.NewString(subjects[i%4]),
				types.NewFloat(float64(100-i) + 0.5),
			}})
	}
	for o := int64(0); o < 50; o++ {
		ops = append(ops, storage.WriteOp{Table: "orders", Kind: storage.WInsert,
			Row: types.Row{types.NewInt(o), types.NewInt(o % 10), types.NewFloat(float64(o) * 2)}})
		for l := int64(0); l < 3; l++ {
			ops = append(ops, storage.WriteOp{Table: "order_line", Kind: storage.WInsert,
				Row: types.Row{types.NewInt(o*3 + l), types.NewInt(o), types.NewInt((o*7 + l*13) % 100), types.NewInt(l + 1)}})
		}
	}
	results, _ := db.ApplyOps(ops)
	for _, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	return db, func() { db.Close() }
}

// referenceConfig is the unfolded reference engine — every read its own
// activation — that production (the zero Config) must agree with.
func referenceConfig(workers int) Config {
	return Config{Workers: workers, NoFold: true}
}

func newEngine(t testing.TB, db *storage.Database) *Engine {
	t.Helper()
	gp := plan.New(db)
	return New(db, gp, Config{})
}

func mustPrepare(t testing.TB, e *Engine, sqlText string) *plan.Statement {
	t.Helper()
	s, err := e.Prepare(sqlText)
	if err != nil {
		t.Fatalf("Prepare(%q): %v", sqlText, err)
	}
	return s
}

func run(t testing.TB, e *Engine, s *plan.Statement, params ...types.Value) *Result {
	t.Helper()
	res := e.Submit(s, params)
	if err := res.Wait(); err != nil {
		t.Fatalf("run %q: %v", s.SQL, err)
	}
	return res
}

func TestPointQueryViaPK(t *testing.T) {
	db, closeDB := bookstore(t)
	defer closeDB()
	e := newEngine(t, db)
	defer e.Close()

	s := mustPrepare(t, e, "SELECT i_title, i_price FROM item WHERE i_id = ?")
	res := run(t, e, s, types.NewInt(42))
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0][0].AsString() != "Title 042" {
		t.Errorf("row = %v", res.Rows[0])
	}
	if res.Schema.Cols[1].Name != "i_price" {
		t.Errorf("schema = %v", res.Schema)
	}
}

func TestSecondaryIndexAndLike(t *testing.T) {
	db, closeDB := bookstore(t)
	defer closeDB()
	e := newEngine(t, db)
	defer e.Close()

	bySubject := mustPrepare(t, e, "SELECT i_id FROM item WHERE i_subject = ?")
	res := run(t, e, bySubject, types.NewString("ARTS"))
	if len(res.Rows) != 25 {
		t.Errorf("ARTS items = %d, want 25", len(res.Rows))
	}

	byTitle := mustPrepare(t, e, "SELECT i_id, i_title FROM item WHERE i_title LIKE ?")
	res = run(t, e, byTitle, types.NewString("Title 09%"))
	if len(res.Rows) != 10 {
		t.Errorf("LIKE matched %d, want 10", len(res.Rows))
	}
}

func TestJoinQuery(t *testing.T) {
	db, closeDB := bookstore(t)
	defer closeDB()
	e := newEngine(t, db)
	defer e.Close()

	s := mustPrepare(t, e, `SELECT i_title, a_lname FROM item, author
		WHERE i_a_id = a_id AND i_id = ?`)
	res := run(t, e, s, types.NewInt(21))
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][1].AsString() != "Author01" {
		t.Errorf("author = %v", res.Rows[0])
	}
}

func TestOrderByLimitDesc(t *testing.T) {
	db, closeDB := bookstore(t)
	defer closeDB()
	e := newEngine(t, db)
	defer e.Close()

	s := mustPrepare(t, e, `SELECT i_id, i_price FROM item WHERE i_subject = ?
		ORDER BY i_price DESC LIMIT 5`)
	res := run(t, e, s, types.NewString("SCIENCE"))
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(res.Rows))
	}
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i][1].AsFloat() > res.Rows[i-1][1].AsFloat() {
			t.Errorf("not descending: %v", res.Rows)
		}
	}
	// SCIENCE items are ids 1,5,9,... prices 99.5, 95.5, ... top price is id 1
	if res.Rows[0][0].AsInt() != 1 {
		t.Errorf("top row = %v", res.Rows[0])
	}
}

func TestBestSellersShape(t *testing.T) {
	// The paper's heavy query: 3-way join, group-by, order by aggregate.
	db, closeDB := bookstore(t)
	defer closeDB()
	e := newEngine(t, db)
	defer e.Close()

	s := mustPrepare(t, e, `SELECT i_id, i_title, SUM(ol_qty) AS val
		FROM order_line, item, author
		WHERE ol_i_id = i_id AND i_a_id = a_id AND ol_o_id > ?
		GROUP BY i_id, i_title
		ORDER BY val DESC LIMIT 10`)
	res := run(t, e, s, types.NewInt(20))
	if len(res.Rows) == 0 || len(res.Rows) > 10 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// verify against a direct computation
	want := map[int64]int64{}
	for o := int64(21); o < 50; o++ {
		for l := int64(0); l < 3; l++ {
			want[(o*7+l*13)%100] += l + 1
		}
	}
	var bestVal int64
	for _, v := range want {
		if v > bestVal {
			bestVal = v
		}
	}
	if got := res.Rows[0][2].AsInt(); got != bestVal {
		t.Errorf("top val = %d, want %d", got, bestVal)
	}
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i][2].AsInt() > res.Rows[i-1][2].AsInt() {
			t.Error("not sorted by val desc")
		}
	}
	for _, row := range res.Rows {
		if row[2].AsInt() != want[row[0].AsInt()] {
			t.Errorf("item %d: val %d, want %d", row[0].AsInt(), row[2].AsInt(), want[row[0].AsInt()])
		}
	}
}

func TestDistinctAndSinkLimit(t *testing.T) {
	db, closeDB := bookstore(t)
	defer closeDB()
	e := newEngine(t, db)
	defer e.Close()

	s := mustPrepare(t, e, "SELECT DISTINCT i_subject FROM item")
	res := run(t, e, s)
	if len(res.Rows) != 4 {
		t.Errorf("distinct subjects = %d, want 4", len(res.Rows))
	}
	s2 := mustPrepare(t, e, "SELECT i_id FROM item LIMIT 7")
	res = run(t, e, s2)
	if len(res.Rows) != 7 {
		t.Errorf("limit rows = %d, want 7", len(res.Rows))
	}
}

func TestSharingAcrossStatements(t *testing.T) {
	db, closeDB := bookstore(t)
	defer closeDB()
	e := newEngine(t, db)
	defer e.Close()

	// Two different statements with the same join and sort shape must share
	// the join and sort nodes (paper Figure 2). Their access paths differ
	// (index probe on subject vs full scan for the price range), so exactly
	// one new source node is expected for the second statement.
	before := e.Plan().NumNodes()
	s1 := mustPrepare(t, e, `SELECT i_title FROM item, author
		WHERE i_a_id = a_id AND i_subject = ? ORDER BY i_price`)
	mid := e.Plan().NumNodes()
	s2 := mustPrepare(t, e, `SELECT i_title, a_lname FROM item, author
		WHERE i_a_id = a_id AND i_price > ? ORDER BY i_price`)
	after := e.Plan().NumNodes()
	if mid == before {
		t.Fatal("first statement created no nodes")
	}
	if after-mid != 1 {
		t.Errorf("second statement created %d new nodes; expected 1 (its scan source)\n%s",
			after-mid, e.Plan().Describe())
	}

	// both run concurrently in one generation with different params
	r1 := e.Submit(s1, []types.Value{types.NewString("ARTS")})
	r2 := e.Submit(s2, []types.Value{types.NewFloat(90)})
	if err := r1.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := r2.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(r1.Rows) != 25 {
		t.Errorf("s1 rows = %d, want 25", len(r1.Rows))
	}
	if len(r2.Rows) != 11 { // prices 90.5 .. 100.5 → items 0..10
		t.Errorf("s2 rows = %d, want 11", len(r2.Rows))
	}
}

// TestPrepareRegisteredTextSkipsQuiesce: Prepare of a registered text is a
// registry lookup that never takes the engine lock, so it cannot wait for
// the pipeline quiesce a new text needs; an unregistered text still waits.
func TestPrepareRegisteredTextSkipsQuiesce(t *testing.T) {
	db, closeDB := bookstore(t)
	defer closeDB()
	e := newEngine(t, db)
	defer e.Close()
	const text = "SELECT i_title FROM item WHERE i_id = ?"
	want := mustPrepare(t, e, text)
	prepare := func(sqlText string) <-chan *plan.Statement {
		ch := make(chan *plan.Statement, 1)
		go func() {
			s, err := e.Prepare(sqlText)
			if err != nil {
				t.Error(err)
			}
			ch <- s
		}()
		return ch
	}

	e.mu.Lock()
	select {
	case s := <-prepare(text):
		if s != want {
			e.mu.Unlock()
			t.Fatal("Prepare of a registered text returned another statement")
		}
	case <-time.After(5 * time.Second):
		e.mu.Unlock()
		t.Fatal("Prepare of a registered text waited for the engine lock")
	}
	miss := prepare("SELECT i_price FROM item WHERE i_id = ?")
	select {
	case <-miss:
		e.mu.Unlock()
		t.Fatal("Prepare of a new text returned without the engine lock")
	case <-time.After(50 * time.Millisecond):
	}
	e.mu.Unlock()
	if s := <-miss; s == nil || s == want {
		t.Fatalf("Prepare of a new text = %v, want a new statement", s)
	}
}

func TestWritesThroughEngine(t *testing.T) {
	db, closeDB := bookstore(t)
	defer closeDB()
	e := newEngine(t, db)
	defer e.Close()

	ins := mustPrepare(t, e, "INSERT INTO author (a_id, a_lname) VALUES (?, ?)")
	res := run(t, e, ins, types.NewInt(999), types.NewString("New"))
	if res.RowsAffected != 1 {
		t.Errorf("insert affected %d", res.RowsAffected)
	}
	sel := mustPrepare(t, e, "SELECT a_lname FROM author WHERE a_id = ?")
	q := run(t, e, sel, types.NewInt(999))
	if len(q.Rows) != 1 || q.Rows[0][0].AsString() != "New" {
		t.Errorf("read back = %v", q.Rows)
	}

	upd := mustPrepare(t, e, "UPDATE author SET a_lname = ? WHERE a_id = ?")
	res = run(t, e, upd, types.NewString("Renamed"), types.NewInt(999))
	if res.RowsAffected != 1 {
		t.Errorf("update affected %d", res.RowsAffected)
	}
	q = run(t, e, sel, types.NewInt(999))
	if q.Rows[0][0].AsString() != "Renamed" {
		t.Errorf("after update = %v", q.Rows)
	}

	del := mustPrepare(t, e, "DELETE FROM author WHERE a_id = ?")
	res = run(t, e, del, types.NewInt(999))
	if res.RowsAffected != 1 {
		t.Errorf("delete affected %d", res.RowsAffected)
	}
	q = run(t, e, sel, types.NewInt(999))
	if len(q.Rows) != 0 {
		t.Errorf("after delete = %v", q.Rows)
	}
}

func TestUniqueViolationSurfaces(t *testing.T) {
	db, closeDB := bookstore(t)
	defer closeDB()
	e := newEngine(t, db)
	defer e.Close()

	ins := mustPrepare(t, e, "INSERT INTO author (a_id, a_lname) VALUES (?, ?)")
	res := e.Submit(ins, []types.Value{types.NewInt(1), types.NewString("Dup")})
	if err := res.Wait(); !errors.Is(err, storage.ErrUniqueViolate) {
		t.Errorf("want unique violation, got %v", err)
	}
}

func TestTransactionCommitThroughEngine(t *testing.T) {
	db, closeDB := bookstore(t)
	defer closeDB()
	e := newEngine(t, db)
	defer e.Close()

	tx := db.Begin()
	tx.Insert("author", types.Row{types.NewInt(500), types.NewString("TxAuthor")})
	tx.Insert("author", types.Row{types.NewInt(501), types.NewString("TxAuthor2")})
	if err := e.SubmitTx(tx).Wait(); err != nil {
		t.Fatal(err)
	}
	sel := mustPrepare(t, e, "SELECT COUNT(*) FROM author WHERE a_id >= ?")
	res := run(t, e, sel, types.NewInt(500))
	if res.Rows[0][0].AsInt() != 2 {
		t.Errorf("tx rows visible = %v", res.Rows)
	}
}

func TestConcurrentMixedWorkload(t *testing.T) {
	db, closeDB := bookstore(t)
	defer closeDB()
	e := newEngine(t, db)
	defer e.Close()

	bySubject := mustPrepare(t, e, "SELECT i_id FROM item WHERE i_subject = ?")
	byID := mustPrepare(t, e, "SELECT i_title FROM item WHERE i_id = ?")
	topN := mustPrepare(t, e, "SELECT i_id FROM item ORDER BY i_price DESC LIMIT 3")
	ins := mustPrepare(t, e, "INSERT INTO orders (o_id, o_c_id, o_total) VALUES (?, ?, ?)")

	subjects := []string{"ARTS", "SCIENCE", "HISTORY", "COOKING"}
	var wg sync.WaitGroup
	errs := make(chan error, 400)
	for g := 0; g < 20; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				r1 := e.Submit(bySubject, []types.Value{types.NewString(subjects[(g+i)%4])})
				r2 := e.Submit(byID, []types.Value{types.NewInt(int64((g*5 + i) % 100))})
				r3 := e.Submit(topN, nil)
				r4 := e.Submit(ins, []types.Value{
					types.NewInt(int64(1000 + g*100 + i)), types.NewInt(int64(g)), types.NewFloat(1)})
				for _, r := range []*Result{r1, r2, r3, r4} {
					if err := r.Wait(); err != nil {
						errs <- err
					}
				}
				if len(r1.Rows) != 25 {
					errs <- fmt.Errorf("bySubject rows = %d", len(r1.Rows))
				}
				if len(r2.Rows) != 1 {
					errs <- fmt.Errorf("byID rows = %d", len(r2.Rows))
				}
				if len(r3.Rows) != 3 || r3.Rows[0][0].AsInt() != 0 {
					errs <- fmt.Errorf("topN rows = %v", r3.Rows)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := e.Stats()
	// Identical concurrent reads fold, so client reads are executed
	// activations plus fan-out deliveries.
	gens, queries, writes := st.Generations, st.QueriesRun+st.FoldedQueries, st.WritesRun
	if queries != 300 || writes != 100 {
		t.Errorf("stats: %d gens, %d queries (%d folded), %d writes", gens, queries, st.FoldedQueries, writes)
	}
	if gens >= queries+writes {
		t.Errorf("no batching happened: %d generations for %d requests", gens, queries+writes)
	}
}

func TestEngineCloseFailsPending(t *testing.T) {
	db, closeDB := bookstore(t)
	defer closeDB()
	e := newEngine(t, db)
	s := mustPrepare(t, e, "SELECT i_id FROM item WHERE i_id = ?")
	e.Close()
	res := e.Submit(s, []types.Value{types.NewInt(1)})
	if err := res.Wait(); err == nil {
		t.Error("submit after close should fail")
	}
}

func TestGroupByCountryStyleQuery(t *testing.T) {
	// Q1 of the paper's Figure 2: SELECT country, SUM(...) GROUP BY country.
	db, closeDB := bookstore(t)
	defer closeDB()
	e := newEngine(t, db)
	defer e.Close()

	s := mustPrepare(t, e, `SELECT i_subject, COUNT(*), AVG(i_price)
		FROM item GROUP BY i_subject`)
	res := run(t, e, s)
	if len(res.Rows) != 4 {
		t.Fatalf("groups = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row[1].AsInt() != 25 {
			t.Errorf("group %v count = %v", row[0], row[1])
		}
	}
}
