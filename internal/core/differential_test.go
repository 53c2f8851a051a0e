package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"shareddb/internal/baseline"
	"shareddb/internal/plan"
	"shareddb/internal/storage"
	"shareddb/internal/testutil"
	"shareddb/internal/types"
)

// Differential testing: the central correctness claim of SharedDB is that
// the shared, batched global plan returns exactly the rows a traditional
// query-at-a-time engine returns for every individual query (paper §3.3:
// the query_id amendment to the join predicate guarantees "an R tuple that
// is only relevant for Query Q1 does not match an S tuple that is only
// relevant for Query Q2"). This test runs randomized workloads through both
// engines — concurrently and in big batches on the shared engine — and
// compares per-query result multisets.

// canon/sameRows live in internal/testutil (shared with the shard router
// and TPC-W differential suites — one float-rounding width for all).
var (
	canon    = testutil.CanonRows
	sameRows = testutil.SameRows
)

func TestDifferentialSharedVsQueryAtATime(t *testing.T) {
	// Production and the all-reference engine must both equal the baseline:
	// production ≡ reference ≡ query-at-a-time.
	t.Run("production", func(t *testing.T) { differentialSharedVsQueryAtATime(t, Config{}) })
	t.Run("reference", func(t *testing.T) { differentialSharedVsQueryAtATime(t, referenceConfig()) })
}

func differentialSharedVsQueryAtATime(t *testing.T, cfg Config) {
	db, closeDB := bookstore(t)
	defer closeDB()
	shared := New(db, plan.New(db), cfg)
	defer shared.Close()
	qat := baseline.New(db, baseline.SystemXLike)

	type template struct {
		sql     string
		mkParam func(r *rand.Rand) []types.Value
	}
	subjects := []string{"ARTS", "SCIENCE", "HISTORY", "COOKING", "NONE"}
	templates := []template{
		{"SELECT i_title, i_price FROM item WHERE i_id = ?",
			func(r *rand.Rand) []types.Value { return []types.Value{types.NewInt(int64(r.Intn(120)))} }},
		{"SELECT i_id, i_title FROM item WHERE i_subject = ?",
			func(r *rand.Rand) []types.Value {
				return []types.Value{types.NewString(subjects[r.Intn(len(subjects))])}
			}},
		{"SELECT i_id FROM item WHERE i_price > ? AND i_price < ?",
			func(r *rand.Rand) []types.Value {
				lo := r.Float64() * 80
				return []types.Value{types.NewFloat(lo), types.NewFloat(lo + 30)}
			}},
		{"SELECT i_id, i_title FROM item WHERE i_title LIKE ?",
			func(r *rand.Rand) []types.Value {
				return []types.Value{types.NewString(fmt.Sprintf("%%%d%%", r.Intn(10)))}
			}},
		{"SELECT i_title, a_lname FROM item, author WHERE i_a_id = a_id AND i_subject = ?",
			func(r *rand.Rand) []types.Value {
				return []types.Value{types.NewString(subjects[r.Intn(len(subjects))])}
			}},
		{"SELECT i_id, i_title, a_lname FROM item, author WHERE i_a_id = a_id AND i_id = ?",
			func(r *rand.Rand) []types.Value { return []types.Value{types.NewInt(int64(r.Intn(120)))} }},
		// the i_id tie-break makes the Top-10 deterministic: with ties on
		// val alone, both engines would return different-but-valid cuts
		{`SELECT i_id, SUM(ol_qty) AS val FROM order_line, item
		  WHERE ol_i_id = i_id AND ol_o_id > ? GROUP BY i_id ORDER BY val DESC, i_id LIMIT 10`,
			func(r *rand.Rand) []types.Value { return []types.Value{types.NewInt(int64(r.Intn(50)))} }},
		{"SELECT i_subject, COUNT(*), AVG(i_price) FROM item WHERE i_price > ? GROUP BY i_subject",
			func(r *rand.Rand) []types.Value { return []types.Value{types.NewFloat(r.Float64() * 100)} }},
		{"SELECT i_id, i_price FROM item WHERE i_subject = ? ORDER BY i_price DESC LIMIT 5",
			func(r *rand.Rand) []types.Value {
				return []types.Value{types.NewString(subjects[r.Intn(len(subjects))])}
			}},
		{"SELECT DISTINCT i_subject FROM item WHERE i_price < ?",
			func(r *rand.Rand) []types.Value { return []types.Value{types.NewFloat(r.Float64() * 120)} }},
		// HAVING over DISTINCT aggregates (also through the sharded merge
		// in internal/shard's differential sweep)
		{"SELECT i_subject, COUNT(DISTINCT i_a_id) FROM item GROUP BY i_subject HAVING COUNT(DISTINCT i_a_id) > ?",
			func(r *rand.Rand) []types.Value { return []types.Value{types.NewInt(int64(r.Intn(25)))} }},
		{`SELECT i_subject, MAX(i_price) FROM item GROUP BY i_subject
		  HAVING COUNT(DISTINCT i_a_id) > ? ORDER BY i_subject`,
			func(r *rand.Rand) []types.Value { return []types.Value{types.NewInt(int64(r.Intn(25)))} }},
		{"SELECT COUNT(*) FROM orders WHERE o_c_id = ?",
			func(r *rand.Rand) []types.Value { return []types.Value{types.NewInt(int64(r.Intn(12)))} }},
		{"SELECT o_id, o_total FROM orders WHERE o_id = ?",
			func(r *rand.Rand) []types.Value { return []types.Value{types.NewInt(int64(r.Intn(60)))} }},
	}

	// The DISTINCT … LIMIT template is also a standing query, so it shares
	// every generation with its identical requests. Over the unchanging data
	// its first full delivery must equal the baseline and no later generation
	// may deliver a delta.
	const distinctLimit = "SELECT DISTINCT i_subject FROM item WHERE i_price < ? LIMIT 3"
	templates = append(templates, template{distinctLimit,
		func(r *rand.Rand) []types.Value { return []types.Value{types.NewFloat(r.Float64() * 120)} }})
	standingParams := []types.Value{types.NewFloat(60)}

	sharedStmts := make([]*plan.Statement, len(templates))
	qatStmts := make([]*baseline.Stmt, len(templates))
	for i, tpl := range templates {
		sharedStmts[i] = mustPrepare(t, shared, tpl.sql)
		var err error
		qatStmts[i], err = qat.Prepare(tpl.sql)
		if err != nil {
			t.Fatalf("baseline prepare %q: %v", tpl.sql, err)
		}
	}
	standing, err := shared.Subscribe(sharedStmts[len(templates)-1], standingParams)
	if err != nil {
		t.Fatal(err)
	}
	defer standing.Close()

	r := rand.New(rand.NewSource(2026))
	for round := 0; round < 15; round++ {
		// a burst of concurrent queries → they batch into few generations
		n := 1 + r.Intn(40)
		idxs := make([]int, n)
		params := make([][]types.Value, n)
		results := make([]*Result, n)
		for i := 0; i < n; i++ {
			idxs[i] = r.Intn(len(templates))
			params[i] = templates[idxs[i]].mkParam(r)
			results[i] = shared.Submit(sharedStmts[idxs[i]], params[i])
		}
		for i := 0; i < n; i++ {
			if err := results[i].Wait(); err != nil {
				t.Fatalf("round %d query %d (%s): %v", round, i, templates[idxs[i]].sql, err)
			}
			want, err := qatStmts[idxs[i]].Exec(params[i])
			if err != nil {
				t.Fatalf("baseline exec: %v", err)
			}
			if !sameRows(results[i].Rows, want.Rows) {
				t.Fatalf("round %d: result mismatch for %q params %v:\nshared (%d rows): %v\nbaseline (%d rows): %v",
					round, templates[idxs[i]].sql, params[i],
					len(results[i].Rows), canon(results[i].Rows),
					len(want.Rows), canon(want.Rows))
			}
		}
	}

	want, err := qatStmts[len(templates)-1].Exec(standingParams)
	if err != nil {
		t.Fatal(err)
	}
	if u := <-standing.Updates(); !u.Full || !sameRows(u.Rows, want.Rows) {
		t.Fatalf("standing %q: first delivery %+v, baseline %v", distinctLimit, u, canon(want.Rows))
	}
	select {
	case u := <-standing.Updates():
		t.Fatalf("standing %q changed over unchanging data: %+v", distinctLimit, u)
	default:
	}
}

// TestDifferentialOrderedQueries additionally checks row ORDER for queries
// with ORDER BY (multiset equality is not enough there).
func TestDifferentialOrderedQueries(t *testing.T) {
	db, closeDB := bookstore(t)
	defer closeDB()
	shared := newEngine(t, db)
	defer shared.Close()
	qat := baseline.New(db, baseline.SystemXLike)

	sqlText := "SELECT i_id, i_price FROM item WHERE i_subject = ? ORDER BY i_price DESC, i_id LIMIT 8"
	ss := mustPrepare(t, shared, sqlText)
	bs, err := qat.Prepare(sqlText)
	if err != nil {
		t.Fatal(err)
	}
	for _, subj := range []string{"ARTS", "SCIENCE", "HISTORY", "COOKING"} {
		got := run(t, shared, ss, types.NewString(subj))
		want, err := bs.Exec([]types.Value{types.NewString(subj)})
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Rows) != len(want.Rows) {
			t.Fatalf("%s: %d vs %d rows", subj, len(got.Rows), len(want.Rows))
		}
		for i := range got.Rows {
			// compare the sort key column: ties may order differently
			if got.Rows[i][1].AsFloat() != want.Rows[i][1].AsFloat() {
				t.Fatalf("%s row %d: shared %v, baseline %v", subj, i, got.Rows[i], want.Rows[i])
			}
		}
	}
}

// TestDifferentialProfilesAgree checks the two baseline profiles against
// each other (different join algorithms, same results).
func TestDifferentialProfilesAgree(t *testing.T) {
	db, closeDB := bookstore(t)
	defer closeDB()
	sx := baseline.New(db, baseline.SystemXLike)
	my := baseline.New(db, baseline.MySQLLike)

	queries := []struct {
		sql    string
		params []types.Value
	}{
		{"SELECT i_title, a_lname FROM item, author WHERE i_a_id = a_id AND i_subject = ?",
			[]types.Value{types.NewString("ARTS")}},
		{`SELECT i_id, SUM(ol_qty) AS v FROM order_line, item
		  WHERE ol_i_id = i_id GROUP BY i_id ORDER BY v DESC LIMIT 5`, nil},
	}
	for _, q := range queries {
		s1, err := sx.Prepare(q.sql)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := my.Prepare(q.sql)
		if err != nil {
			t.Fatal(err)
		}
		r1, err := s1.Exec(q.params)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := s2.Exec(q.params)
		if err != nil {
			t.Fatal(err)
		}
		if !sameRows(r1.Rows, r2.Rows) {
			t.Errorf("profiles disagree on %q", q.sql)
		}
	}
}

// TestDifferentialAdHocPrepareGrowsJoinStream: join out-streams carry only
// the columns some statement demanded, and an ad-hoc Prepare after
// generations have run may demand more. The layout only grows, so the
// statement prepared first must keep reading the right columns, and the new
// one — a three-way join, so the demand has to pass through the inner join's
// stream into the outer join's — must see the columns it added.
func TestDifferentialAdHocPrepareGrowsJoinStream(t *testing.T) {
	db, closeDB := bookstore(t)
	defer closeDB()
	shared := newEngine(t, db)
	defer shared.Close()
	qat := baseline.New(db, baseline.SystemXLike)

	const from = ` FROM order_line, item, author WHERE ol_i_id = i_id AND i_a_id = a_id AND ol_o_id > ?`
	sqls := []string{
		`SELECT ol_qty, a_lname` + from,
		// prepared after the first statement has run:
		`SELECT ol_id, i_title, i_price, a_lname` + from + ` ORDER BY i_price, ol_id`,
		`SELECT i_subject, SUM(ol_qty), MIN(i_price)` + from + ` GROUP BY i_subject`,
	}
	var stmts []*plan.Statement
	check := func(when string) {
		t.Helper()
		for _, s := range stmts {
			bs, err := qat.Prepare(s.SQL)
			if err != nil {
				t.Fatal(err)
			}
			for _, lo := range []int64{-1, 10, 45} {
				got := run(t, shared, s, types.NewInt(lo))
				want, err := bs.Exec([]types.Value{types.NewInt(lo)})
				if err != nil {
					t.Fatal(err)
				}
				if !sameRows(got.Rows, want.Rows) {
					t.Fatalf("%s: %q ol_o_id > %d:\nshared   %v\nbaseline %v", when, s.SQL, lo, canon(got.Rows), canon(want.Rows))
				}
			}
		}
	}
	stmts = append(stmts, mustPrepare(t, shared, sqls[0]))
	check("first statement alone")
	before := shared.Plan().Describe()
	if strings.Contains(before, "item.4") {
		t.Fatalf("i_price carried before any statement reads it:\n%s", before)
	}
	stmts = append(stmts, mustPrepare(t, shared, sqls[1]), mustPrepare(t, shared, sqls[2]))
	if after := shared.Plan().Describe(); !strings.Contains(after, "item.4") || !strings.Contains(after, "item.3") {
		t.Fatalf("ad-hoc statements did not extend the join streams:\n%s", after)
	}
	check("after the ad-hoc prepares")
}

// TestDifferentialUnorderedGroupOrderWorkers pins the row ORDER of an
// unordered GROUP BY over a shared hash join: groups come out in
// first-arrival order, exactly as the query-at-a-time engine emits them.
// Every generation joins at least 1024 tuples (more than one scan chunk),
// and each query runs in two generations. (The name dates from when the
// fact scan ran partition-parallel.)
func TestDifferentialUnorderedGroupOrderWorkers(t *testing.T) {
	db, err := storage.Open(storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	fact, err := db.CreateTable("fact", types.NewSchema(
		types.Column{Qualifier: "fact", Name: "f_id", Kind: types.KindInt},
		types.Column{Qualifier: "fact", Name: "f_k", Kind: types.KindInt},
		types.Column{Qualifier: "fact", Name: "f_v", Kind: types.KindInt},
	))
	if err != nil {
		t.Fatal(err)
	}
	fact.SetPrimaryKey("f_id")
	// No index on d_id: the join stays a shared hash join with fact probing.
	if _, err := db.CreateTable("dim", types.NewSchema(
		types.Column{Qualifier: "dim", Name: "d_id", Kind: types.KindInt},
		types.Column{Qualifier: "dim", Name: "d_name", Kind: types.KindString},
	)); err != nil {
		t.Fatal(err)
	}
	const facts, dims = 1500, 40
	var ops []storage.WriteOp
	for i := int64(0); i < dims; i++ {
		ops = append(ops, storage.WriteOp{Table: "dim", Kind: storage.WInsert,
			Row: types.Row{types.NewInt(i), types.NewString(fmt.Sprintf("D%02d", i))}})
	}
	for i := int64(0); i < facts; i++ {
		ops = append(ops, storage.WriteOp{Table: "fact", Kind: storage.WInsert,
			Row: types.Row{types.NewInt(i), types.NewInt(i * 7919 % dims), types.NewInt(i)}})
	}
	results, _ := db.ApplyOps(ops)
	for _, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}

	shared := New(db, plan.New(db), Config{MaxInFlightGenerations: 1})
	defer shared.Close()
	const sqlText = "SELECT d_name, COUNT(*), SUM(f_v) FROM fact, dim WHERE f_k = d_id AND f_v > ? GROUP BY d_name"
	ss := mustPrepare(t, shared, sqlText)
	bs, err := baseline.New(db, baseline.SystemXLike).Prepare(sqlText)
	if err != nil {
		t.Fatal(err)
	}
	for gen := 0; gen < 2; gen++ {
		for _, lo := range []int64{-1, 200} {
			got := run(t, shared, ss, types.NewInt(lo))
			want, err := bs.Exec([]types.Value{types.NewInt(lo)})
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Rows) != len(want.Rows) {
				t.Fatalf("generation %d, f_v > %d: %d rows, baseline %d", gen, lo, len(got.Rows), len(want.Rows))
			}
			for i := range got.Rows {
				if types.EncodeKey(got.Rows[i]...) != types.EncodeKey(want.Rows[i]...) {
					t.Fatalf("generation %d, f_v > %d, row %d: shared %v, baseline %v", gen, lo, i, got.Rows[i], want.Rows[i])
				}
			}
		}
	}
}
