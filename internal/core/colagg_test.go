package core

// Columnar-aggregation differentials: production (columnar scan, and the
// mirror-fed group-by — grouped/DISTINCT/Top-N statements over a direct
// scan read straight from the columnar mirror, with no scan node in
// between) must equal the query-at-a-time engine (internal/baseline) under
// random schemas and interleaved writes, also when one group-by node gets
// mirror-fed and streamed queries in the same cycle. The fuzz applies its
// writes straight to storage between bursts; the sweep sends them through
// the engine, so the mirror's pending log carries them.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"shareddb/internal/baseline"
	"shareddb/internal/expr"
	"shareddb/internal/operators"
	"shareddb/internal/plan"
	"shareddb/internal/storage"
	"shareddb/internal/types"
)

// colaggTable builds a one-table analytics schema with randomized group-key
// domains and row count: m_id (PK), m_g int key, m_tag string key, m_v int
// measure, m_w float measure. Returns the next unused PK for delta inserts.
func colaggTable(t *testing.T, r *rand.Rand) (*storage.Database, func(), *colaggDomains) {
	t.Helper()
	db, err := storage.Open(storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := db.CreateTable("m", types.NewSchema(
		types.Column{Qualifier: "m", Name: "m_id", Kind: types.KindInt},
		types.Column{Qualifier: "m", Name: "m_g", Kind: types.KindInt},
		types.Column{Qualifier: "m", Name: "m_tag", Kind: types.KindString},
		types.Column{Qualifier: "m", Name: "m_v", Kind: types.KindInt},
		types.Column{Qualifier: "m", Name: "m_w", Kind: types.KindFloat},
	))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.SetPrimaryKey("m_id"); err != nil {
		t.Fatal(err)
	}
	dom := &colaggDomains{
		gInt: 2 + r.Intn(20),
		gStr: 2 + r.Intn(8),
		vMax: 50 + r.Intn(500),
	}
	n := 200 + r.Intn(1000)
	ops := make([]storage.WriteOp, n)
	for i := 0; i < n; i++ {
		ops[i] = storage.WriteOp{Table: "m", Kind: storage.WInsert, Row: dom.row(int64(i), r)}
	}
	results, _ := db.ApplyOps(ops)
	for _, res := range results {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	dom.nextID = int64(n)
	return db, func() { db.Close() }, dom
}

type colaggDomains struct {
	gInt, gStr, vMax int
	nextID           int64
}

func (d *colaggDomains) row(id int64, r *rand.Rand) types.Row {
	return types.Row{
		types.NewInt(id),
		types.NewInt(int64(r.Intn(d.gInt))),
		types.NewString(fmt.Sprintf("tag-%d", r.Intn(d.gStr))),
		types.NewInt(int64(r.Intn(d.vMax))),
		types.NewFloat(r.Float64() * float64(d.vMax)),
	}
}

// delta applies 1..24 random writes (inserts of fresh PKs, measure updates
// and PK-range deletes) directly through the storage write path, exercising
// the columnar mirror's delta maintenance between generations.
func (d *colaggDomains) delta(t *testing.T, db *storage.Database, r *rand.Rand) {
	t.Helper()
	n := 1 + r.Intn(24)
	ops := make([]storage.WriteOp, 0, n)
	for i := 0; i < n; i++ {
		switch r.Intn(4) {
		case 0, 1: // insert
			ops = append(ops, storage.WriteOp{Table: "m", Kind: storage.WInsert, Row: d.row(d.nextID, r)})
			d.nextID++
		case 2: // bump a group's int measure
			ops = append(ops, storage.WriteOp{Table: "m", Kind: storage.WUpdate,
				Pred: &expr.Cmp{Op: expr.EQ, L: &expr.ColRef{Idx: 1},
					R: &expr.Const{Val: types.NewInt(int64(r.Intn(d.gInt)))}},
				Set: []storage.ColSet{{Col: 3, Val: &expr.Const{Val: types.NewInt(int64(r.Intn(d.vMax)))}}},
			})
		default: // delete a thin PK slice
			lo := r.Int63n(d.nextID)
			ops = append(ops, storage.WriteOp{Table: "m", Kind: storage.WDelete,
				Pred: &expr.And{Kids: []expr.Expr{
					&expr.Cmp{Op: expr.GE, L: &expr.ColRef{Idx: 0}, R: &expr.Const{Val: types.NewInt(lo)}},
					&expr.Cmp{Op: expr.LT, L: &expr.ColRef{Idx: 0}, R: &expr.Const{Val: types.NewInt(lo + 3)}},
				}},
			})
		}
	}
	results, _ := db.ApplyOps(ops)
	for _, res := range results {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}
}

// sameRowOrder reports whether two results list the same rows in the same
// order, floats compared at CanonRows' rounding width.
func sameRowOrder(a, b []types.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if canon(a[i : i+1])[0] != canon(b[i : i+1])[0] {
			return false
		}
	}
	return true
}

func TestColumnarAggDifferentialFuzz(t *testing.T) {
	type template struct {
		sql     string
		ordered bool
		mkParam func(r *rand.Rand, d *colaggDomains) []types.Value
	}
	templates := []template{
		{"SELECT m_g, COUNT(*), SUM(m_v) FROM m WHERE m_v > ? GROUP BY m_g", false,
			func(r *rand.Rand, d *colaggDomains) []types.Value {
				return []types.Value{types.NewInt(int64(r.Intn(d.vMax)))}
			}},
		{"SELECT m_tag, COUNT(DISTINCT m_g), AVG(m_w) FROM m GROUP BY m_tag", false, nil},
		// m_g tiebreak pins the Top-N cut; this is the bounded-heap path.
		{"SELECT m_g, SUM(m_w) AS s FROM m WHERE m_w < ? GROUP BY m_g ORDER BY s DESC, m_g LIMIT 3", true,
			func(r *rand.Rand, d *colaggDomains) []types.Value {
				return []types.Value{types.NewFloat(r.Float64() * float64(d.vMax))}
			}},
		{"SELECT m_tag, MAX(m_v) FROM m GROUP BY m_tag HAVING COUNT(*) > ?", false,
			func(r *rand.Rand, d *colaggDomains) []types.Value {
				return []types.Value{types.NewInt(int64(r.Intn(40)))}
			}},
		{"SELECT COUNT(*), SUM(m_v) FROM m WHERE m_g = ?", false,
			func(r *rand.Rand, d *colaggDomains) []types.Value {
				return []types.Value{types.NewInt(int64(r.Intn(d.gInt)))}
			}},
		{"SELECT MIN(m_w), MAX(m_w), COUNT(*) FROM m", false, nil},
		// Mixed cycles: a constant residual stays a filter over scan(m), so
		// these stream into the Γ nodes of the first and fifth templates,
		// which read the mirror. With param 0 the scalar twin selects
		// nothing and must still return its one row.
		{"SELECT m_g, COUNT(*), SUM(m_v) FROM m WHERE ? = 1 GROUP BY m_g", false,
			func(r *rand.Rand, d *colaggDomains) []types.Value {
				return []types.Value{types.NewInt(int64(r.Intn(2)))}
			}},
		{"SELECT COUNT(*), SUM(m_v) FROM m WHERE ? = 1", false,
			func(r *rand.Rand, d *colaggDomains) []types.Value {
				return []types.Value{types.NewInt(int64(r.Intn(2)))}
			}},
	}

	// Two seeds. The subtest names date from when the two runs also
	// differed in scan worker budget.
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(90 + workers)))
			db, closeDB, dom := colaggTable(t, r)
			defer closeDB()
			eng := New(db, plan.New(db), Config{})
			defer eng.Close()
			stmts := make([]*plan.Statement, len(templates))
			for i, tpl := range templates {
				stmts[i] = mustPrepare(t, eng, tpl.sql)
			}
			qat := baseline.New(db, baseline.SystemXLike)
			oracle := make([]*baseline.Stmt, len(templates))
			for i, tpl := range templates {
				var err error
				if oracle[i], err = qat.Prepare(tpl.sql); err != nil {
					t.Fatal(err)
				}
			}

			for round := 0; round < 4; round++ {
				if round > 0 {
					// Writes land before any submission below, so the
					// burst and the baseline read the same snapshot.
					dom.delta(t, db, r)
				}
				n := 8 + r.Intn(24)
				idxs := make([]int, n)
				params := make([][]types.Value, n)
				res := make([]*Result, n)
				for i := 0; i < n; i++ {
					idxs[i] = r.Intn(len(templates))
					if mk := templates[idxs[i]].mkParam; mk != nil {
						params[i] = mk(r, dom)
					}
					res[i] = eng.Submit(stmts[idxs[i]], params[i])
				}
				for i := 0; i < n; i++ {
					tpl := templates[idxs[i]]
					if err := res[i].Wait(); err != nil {
						t.Fatalf("round %d %q: %v", round, tpl.sql, err)
					}
					base, err := oracle[idxs[i]].Exec(params[i])
					if err != nil {
						t.Fatal(err)
					}
					// Group emission order is not part of the contract unless
					// the statement orders its output.
					same := sameRows(res[i].Rows, base.Rows)
					if tpl.ordered {
						same = sameRowOrder(res[i].Rows, base.Rows)
					}
					if !same {
						t.Fatalf("round %d %q params %v:\nproduction: %v\nbaseline:   %v",
							round, tpl.sql, params[i], res[i].Rows, base.Rows)
					}
				}
			}
			if eng.Plan().PathCycles().ColAgg == 0 {
				t.Fatal("production never ran an aggregation-pushdown cycle — the fuzz exercised nothing")
			}
		})
	}
}

// TestUnderWritesDifferentialSweep runs a randomized repeat-read workload
// with interleaved writes through the production engine and requires every
// result to equal the query-at-a-time baseline's over the same database. It
// is the under-writes differential for the aggregation pushdown: the grouped
// reads sit on a direct item scan, so production answers them from the
// column mirror while inserts, updates and deletes (through the engine, so
// the mirror's pending log carries them) hit the join build side and every
// aggregate kind (SUM/COUNT/AVG, MIN/MAX, COUNT(DISTINCT)).
func TestUnderWritesDifferentialSweep(t *testing.T) {
	t.Cleanup(operators.PoisonReleasedRowsForTest())
	// Two seeds. The subtest names date from when the two runs also
	// differed in scan worker budget.
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			db, closeDB := bookstore(t)
			defer closeDB()
			prod := New(db, plan.New(db), Config{})
			defer prod.Close()
			qat := baseline.New(db, baseline.SystemXLike)

			subjects := []string{"ARTS", "SCIENCE", "HISTORY", "COOKING"}
			reads := []struct {
				sql     string
				ordered bool
				mk      func(r *rand.Rand) []types.Value
			}{
				// Hash join with the item scan as build side (the per-query
				// predicate on the right keeps it off the index-join path).
				{"SELECT a_lname, i_title FROM author, item WHERE a_id = i_a_id AND i_price > ?", false,
					func(r *rand.Rand) []types.Value { return []types.Value{types.NewFloat(float64(r.Intn(90)))} }},
				// Every aggregate kind over a direct item scan (the pushdown).
				{"SELECT i_subject, COUNT(*), SUM(i_price), AVG(i_price) FROM item GROUP BY i_subject", false,
					func(*rand.Rand) []types.Value { return nil }},
				{"SELECT i_subject, MIN(i_price), MAX(i_price) FROM item GROUP BY i_subject", false,
					func(*rand.Rand) []types.Value { return nil }},
				{"SELECT i_subject, COUNT(DISTINCT i_a_id) FROM item GROUP BY i_subject", false,
					func(*rand.Rand) []types.Value { return nil }},
				// Ordered with a full tie-break: row order must match too.
				{"SELECT i_id, i_price FROM item WHERE i_subject = ? ORDER BY i_price DESC, i_id LIMIT 8", true,
					func(r *rand.Rand) []types.Value {
						return []types.Value{types.NewString(subjects[r.Intn(len(subjects))])}
					}},
				// Plain shared scan (no stateful operator).
				{"SELECT i_id, i_title FROM item WHERE i_subject = ?", false,
					func(r *rand.Rand) []types.Value {
						return []types.Value{types.NewString(subjects[r.Intn(len(subjects))])}
					}},
			}
			writes := []struct {
				sql string
				mk  func(r *rand.Rand, nextID *int64) []types.Value
			}{
				{"INSERT INTO item VALUES (?, ?, ?, ?, ?)",
					func(r *rand.Rand, nextID *int64) []types.Value {
						id := *nextID
						*nextID++
						return []types.Value{types.NewInt(id),
							types.NewString(fmt.Sprintf("New %03d", id)),
							types.NewInt(int64(r.Intn(20))),
							types.NewString(subjects[r.Intn(len(subjects))]),
							types.NewFloat(float64(r.Intn(10000)) / 100)}
					}},
				{"UPDATE item SET i_price = ? WHERE i_id = ?",
					func(r *rand.Rand, _ *int64) []types.Value {
						return []types.Value{types.NewFloat(float64(r.Intn(10000)) / 100),
							types.NewInt(int64(r.Intn(100)))}
					}},
				{"UPDATE item SET i_subject = ? WHERE i_id = ?",
					func(r *rand.Rand, _ *int64) []types.Value {
						return []types.Value{types.NewString(subjects[r.Intn(len(subjects))]),
							types.NewInt(int64(r.Intn(100)))}
					}},
				{"DELETE FROM item WHERE i_id = ?",
					func(r *rand.Rand, _ *int64) []types.Value {
						return []types.Value{types.NewInt(int64(r.Intn(100)))}
					}},
				{"INSERT INTO author VALUES (?, ?)",
					func(r *rand.Rand, nextID *int64) []types.Value {
						id := *nextID
						*nextID++
						return []types.Value{types.NewInt(id), types.NewString(fmt.Sprintf("Auth%03d", id))}
					}},
			}

			oracle := make([]*baseline.Stmt, len(reads))
			for i, tpl := range reads {
				var err error
				if oracle[i], err = qat.Prepare(tpl.sql); err != nil {
					t.Fatal(err)
				}
			}
			readStmts := make([]*plan.Statement, len(reads))
			for i, tpl := range reads {
				readStmts[i] = mustPrepare(t, prod, tpl.sql)
			}
			writeStmts := make([]*plan.Statement, len(writes))
			for i, tpl := range writes {
				writeStmts[i] = mustPrepare(t, prod, tpl.sql)
			}

			r := rand.New(rand.NewSource(int64(20260807 + workers)))
			nextID := int64(1000)
			doWrite := func() {
				wi := r.Intn(len(writes))
				params := writes[wi].mk(r, &nextID)
				if err := prod.Submit(writeStmts[wi], params).Wait(); err != nil {
					t.Fatalf("write %q: %v", writes[wi].sql, err)
				}
			}
			for round := 0; round < 30; round++ {
				if r.Intn(2) == 0 {
					doWrite()
				}
				ti := r.Intn(len(reads))
				params := reads[ti].mk(r)
				// Repeats with identical parameters, sometimes with a write
				// in the middle: the mirror must serve the new snapshot.
				repeats := 1 + r.Intn(3)
				for j := 0; j < repeats; j++ {
					if j > 0 && r.Intn(3) == 0 {
						doWrite()
					}
					got := run(t, prod, readStmts[ti], params...)
					base, err := oracle[ti].Exec(params)
					if err != nil {
						t.Fatal(err)
					}
					same := sameRows(got.Rows, base.Rows)
					if reads[ti].ordered {
						same = sameRowOrder(got.Rows, base.Rows)
					}
					if !same {
						t.Fatalf("round %d repeat %d: %q params %v:\nproduction (%d): %v\nbaseline (%d): %v",
							round, j, reads[ti].sql, params,
							len(got.Rows), canon(got.Rows), len(base.Rows), canon(base.Rows))
					}
				}
			}
			if prod.Plan().PathCycles().ColAgg == 0 {
				t.Fatal("production never ran an aggregation-pushdown cycle — the grouped reads exercised nothing")
			}
		})
	}
}

// TestBreakerSparesLightStatement pins the cost-attribution contract end to
// end: a cheap point query co-batched with a statement that blows the
// generation SLO must never be struck — attribution blames the statement
// that burned the cycles, and a below-average share is positive evidence of
// innocence (its breaker entry is reset, not advanced).
func TestBreakerSparesLightStatement(t *testing.T) {
	db, closeDB := bigTable(t, 20000)
	defer closeDB()
	const (
		heavySQL = "SELECT b_id FROM big WHERE b_pad LIKE '%x%' AND b_val > ? ORDER BY b_val"
		lightSQL = "SELECT b_val FROM big WHERE b_id = ?"
	)
	e := New(db, plan.New(db), Config{
		MaxGenerationDelay:     2 * time.Millisecond,
		MaxInFlightGenerations: 1,
		Heartbeat:              500 * time.Microsecond,
	})
	defer e.Close()
	e.mu.Lock()
	e.adm.strikes, e.adm.cooldown = 2, time.Minute // no half-open probes during the test
	e.mu.Unlock()
	heavy := mustPrepare(t, e, heavySQL)
	light := mustPrepare(t, e, lightSQL)

	for round := 0; round < 8; round++ {
		// A plug occupies the single in-flight generation slot so the next
		// two submissions queue up and co-batch into one generation. Each
		// heavy submission binds its own b_val bound below every value, so
		// none is answered from the memo of an earlier identical read.
		plug := e.Submit(heavy, []types.Value{types.NewInt(int64(-2*round - 1))})
		h := e.Submit(heavy, []types.Value{types.NewInt(int64(-2*round - 2))})
		l := e.Submit(light, []types.Value{types.NewInt(int64(round))})
		plug.Wait() // heavy is allowed (expected, eventually) to be rejected
		h.Wait()
		if err := l.Wait(); err != nil {
			t.Fatalf("round %d: light statement rejected: %v", round, err)
		}
	}

	if trips := e.Stats().BreakerTrips; trips == 0 {
		t.Fatal("the heavy statement never tripped the breaker — the fixture is not slow enough to test blame")
	}
	state := func(sqlText string) breakerState {
		e.mu.Lock()
		defer e.mu.Unlock()
		if b := e.adm.breakers[sqlText]; b != nil {
			return b.state
		}
		return breakerClosed
	}
	if s := state(heavySQL); s != breakerOpen {
		t.Fatalf("heavy statement must be quarantined after repeated blown generations, its breaker is %v", s)
	}
	if s := state(lightSQL); s != breakerClosed {
		t.Fatalf("light statement must stay admitted, its breaker is %v", s)
	}
}
