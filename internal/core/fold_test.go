package core

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"shareddb/internal/baseline"
	"shareddb/internal/dbapi"
	"shareddb/internal/operators"
	"shareddb/internal/plan"
	"shareddb/internal/storage"
	"shareddb/internal/types"
)

// The fold-window tests use a long heartbeat: after one generation starts,
// every submission for the next foldWindow lands in the same pending queue
// — the fold window — so a burst of duplicates folds deterministically.
const foldWindow = 500 * time.Millisecond

// foldEngine builds a production engine with a wide fold window. Released
// arena rows are poisoned: a lead's rows fan out to subscribers that read
// them long after the lead's generation drained.
func foldEngine(t testing.TB, db *storage.Database) *Engine {
	t.Helper()
	t.Cleanup(operators.PoisonReleasedRowsForTest())
	return New(db, plan.New(db), Config{Heartbeat: foldWindow})
}

// burst submits n copies of (s, params) back-to-back and waits for all.
// Each submission carries its own params slice — folding must key on
// values, never on slice identity.
func burst(t *testing.T, e *Engine, s *plan.Statement, params []types.Value, n int) []*Result {
	t.Helper()
	results := make([]*Result, n)
	for i := range results {
		p := append([]types.Value(nil), params...)
		results[i] = e.Submit(s, p)
	}
	for i, r := range results {
		if err := r.Wait(); err != nil {
			t.Fatalf("burst member %d: %v", i, err)
		}
	}
	return results
}

// sameResult asserts b carries exactly a's rows, in order, at a's snapshot.
func sameResult(t *testing.T, a, b *Result) {
	t.Helper()
	if a.SnapshotTS != b.SnapshotTS {
		t.Fatalf("snapshots differ: %d vs %d", a.SnapshotTS, b.SnapshotTS)
	}
	if len(a.Rows) != len(b.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		if len(a.Rows[i]) != len(b.Rows[i]) {
			t.Fatalf("row %d widths differ", i)
		}
		for j := range a.Rows[i] {
			if !a.Rows[i][j].Equal(b.Rows[i][j]) {
				t.Fatalf("row %d col %d: %v vs %v", i, j, a.Rows[i][j], b.Rows[i][j])
			}
		}
	}
}

func TestFoldCollapsesDuplicates(t *testing.T) {
	db, closeDB := bookstore(t)
	defer closeDB()
	e := foldEngine(t, db)
	defer e.Close()
	s := mustPrepare(t, e, `SELECT i_id, i_title FROM item WHERE i_subject = ?`)

	// Warm generation: starts the heartbeat clock so the burst below pools
	// in one fold window.
	want := run(t, e, s, types.NewString("SCIENCE"))
	before := e.Stats()

	const dup = 16
	results := burst(t, e, s, []types.Value{types.NewString("SCIENCE")}, dup)
	for _, r := range results {
		sameResult(t, results[0], r)
	}
	if len(results[0].Rows) == 0 || len(results[0].Rows) != len(want.Rows) {
		t.Fatalf("burst returned %d rows, standalone %d", len(results[0].Rows), len(want.Rows))
	}

	st := e.Stats()
	if got := st.FoldedQueries - before.FoldedQueries; got != dup-1 {
		t.Fatalf("folded %d queries, want %d", got, dup-1)
	}
	if got := st.QueriesRun - before.QueriesRun; got != 1 {
		t.Fatalf("engine ran %d activations for the burst, want 1", got)
	}
	if got := st.Generations - before.Generations; got != 1 {
		t.Fatalf("burst took %d generations, want 1", got)
	}
}

func TestFoldStrictParamIdentity(t *testing.T) {
	db, closeDB := bookstore(t)
	defer closeDB()
	e := foldEngine(t, db)
	defer e.Close()
	// i_price is FLOAT: the comparison coerces, so INT 10 and FLOAT 10.0
	// return the same rows — but they are distinct fold keys (projection
	// could expose the bound value; only bit-identical params fold).
	s := mustPrepare(t, e, `SELECT i_id FROM item WHERE i_price > ?`)

	run(t, e, s, types.NewFloat(50))
	before := e.Stats()

	resInt := make([]*Result, 0, 4)
	resFloat := make([]*Result, 0, 4)
	for i := 0; i < 4; i++ {
		resInt = append(resInt, e.Submit(s, []types.Value{types.NewInt(10)}))
		resFloat = append(resFloat, e.Submit(s, []types.Value{types.NewFloat(10)}))
	}
	for _, r := range append(append([]*Result{}, resInt...), resFloat...) {
		if err := r.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range resInt[1:] {
		sameResult(t, resInt[0], r)
	}
	for _, r := range resFloat[1:] {
		sameResult(t, resFloat[0], r)
	}

	st := e.Stats()
	// Two fold groups of 4: one lead each, 3 subscribers each.
	if got := st.FoldedQueries - before.FoldedQueries; got != 6 {
		t.Fatalf("folded %d queries, want 6 (INT and FLOAT params must not share a group)", got)
	}
	if got := st.QueriesRun - before.QueriesRun; got != 2 {
		t.Fatalf("engine ran %d activations, want 2", got)
	}
}

func TestFoldDisabledRunsEveryQuery(t *testing.T) {
	db, closeDB := bookstore(t)
	defer closeDB()
	e := New(db, plan.New(db), Config{NoFold: true, Heartbeat: foldWindow})
	defer e.Close()
	s := mustPrepare(t, e, `SELECT i_id, i_title FROM item WHERE i_subject = ?`)

	run(t, e, s, types.NewString("ARTS"))
	before := e.Stats()
	const dup = 8
	results := burst(t, e, s, []types.Value{types.NewString("ARTS")}, dup)
	for _, r := range results {
		sameResult(t, results[0], r)
	}
	st := e.Stats()
	if st.FoldedQueries != 0 {
		t.Fatalf("folding disabled but stats count %d folded", st.FoldedQueries)
	}
	if got := st.QueriesRun - before.QueriesRun; got != dup {
		t.Fatalf("engine ran %d activations, want %d (every duplicate executes)", got, dup)
	}
}

// TestFoldWriteOrdering pins the fold-vs-write contract: a folded read
// never observes a snapshot its generation peers can't. A duplicate
// submitted after a write in the same window folds into a lead submitted
// before the write — and still sees the write, because every read in the
// generation runs at the post-write snapshot. Across windows, the fold
// index resets: a duplicate of an already-dispatched query re-executes at
// the newer snapshot instead of being served stale rows.
func TestFoldWriteOrdering(t *testing.T) {
	db, closeDB := bookstore(t)
	defer closeDB()
	e := foldEngine(t, db)
	defer e.Close()
	read := mustPrepare(t, e, `SELECT i_id FROM item WHERE i_id > ?`)
	ins := mustPrepare(t, e, `INSERT INTO item VALUES (?, ?, ?, ?, ?)`)

	newItem := func(id int64) []types.Value {
		return []types.Value{types.NewInt(id), types.NewString("Fold Title"),
			types.NewInt(1), types.NewString("ARTS"), types.NewFloat(1)}
	}
	hasID := func(res *Result, id int64) bool {
		for _, row := range res.Rows {
			if row[0].Int == id {
				return true
			}
		}
		return false
	}

	// Same window: lead read, then a write, then a duplicate read.
	run(t, e, read, types.NewInt(10000)) // warm: open the window
	leadRes := e.Submit(read, []types.Value{types.NewInt(900)})
	wRes := e.Submit(ins, newItem(1001))
	dupRes := e.Submit(read, []types.Value{types.NewInt(900)})
	for _, r := range []*Result{leadRes, wRes, dupRes} {
		if err := r.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if !hasID(leadRes, 1001) || !hasID(dupRes, 1001) {
		t.Fatal("reads in the write's generation must see the write (post-write snapshot)")
	}
	sameResult(t, leadRes, dupRes)

	// Next window: a fresh duplicate must not be served the old fan-out.
	w2 := e.Submit(ins, newItem(1002))
	if err := w2.Wait(); err != nil {
		t.Fatal(err)
	}
	later := e.Submit(read, []types.Value{types.NewInt(900)})
	if err := later.Wait(); err != nil {
		t.Fatal(err)
	}
	if !hasID(later, 1002) {
		t.Fatal("post-dispatch duplicate was served a stale folded result")
	}
	if later.SnapshotTS <= leadRes.SnapshotTS {
		t.Fatalf("later read pinned snapshot %d, not after %d", later.SnapshotTS, leadRes.SnapshotTS)
	}
}

func TestFoldAbandonDetachesSubscriber(t *testing.T) {
	cancelErr := errors.New("ctx cancelled")
	tab := &foldTable{entries: make(map[uint64]*foldEntry)}
	req := func() *Request { return &Request{Result: NewPendingResult(), fp: 1} }
	leadReq, r1, r2 := req(), req(), req()
	lead, s1, s2 := leadReq.Result, r1.Result, r2.Result
	if tab.join(leadReq) || !tab.join(r1) || !tab.join(r2) {
		t.Fatal("attach to open fold window failed")
	}

	// Abandoning a fold subscriber completes it immediately with the
	// caller's error and detaches it — the lead and its other subscribers
	// are untouched.
	if !s1.Abandon(cancelErr) {
		t.Fatal("fold subscriber Abandon returned false")
	}
	select {
	case <-s1.Done():
	default:
		t.Fatal("abandoned subscriber not completed")
	}
	if s1.Err != cancelErr {
		t.Fatalf("abandoned subscriber err = %v", s1.Err)
	}

	tab.close([]*Request{leadReq}, true)
	deliver(lead, leadReq.subs, []types.Row{{types.NewInt(42)}}, nil, 7, nil)
	if err := s2.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(s2.Rows) != 1 || s2.Rows[0][0].Int != 42 || s2.SnapshotTS != 7 {
		t.Fatalf("surviving subscriber got %v @%d", s2.Rows, s2.SnapshotTS)
	}
	if s1.Err != cancelErr || len(s1.Rows) != 0 {
		t.Fatal("completion overwrote the abandoned subscriber")
	}

	// The window is closed: no more subscribers.
	if tab.join(req()) {
		t.Fatal("attach succeeded after complete")
	}
}

// TestFoldRejectedReadLeadsNothing: a read that admission rejects leaves no
// lead behind. An identical read submitted next must not attach to it —
// nothing would ever complete it — and meets admission itself.
func TestFoldRejectedReadLeadsNothing(t *testing.T) {
	e := heldEngine(t, Config{QueueDepthLimit: 1})
	s := mustPrepare(t, e, "SELECT i_title FROM item WHERE i_id = ?")
	warm(t, e, s, types.NewInt(0))
	queued := e.Submit(s, []types.Value{types.NewInt(1)})
	for i := 0; i < 2; i++ {
		r := e.Submit(s, []types.Value{types.NewInt(2)})
		select {
		case <-r.Done():
		case <-time.After(200 * time.Millisecond):
			t.Fatalf("submission %d of a rejected read was not rejected at submit time", i+1)
		}
		if !errors.Is(r.Err, dbapi.ErrOverloaded) {
			t.Fatalf("submission %d: %v, want ErrOverloaded", i+1, r.Err)
		}
	}
	if err := queued.Wait(); err != nil {
		t.Fatal(err)
	}
	if f := e.Stats().FoldedQueries; f != 0 {
		t.Fatalf("folded %d reads, want 0", f)
	}
}

// TestDifferentialFoldDuplicateHeavy replays a duplicate-heavy randomized
// workload — parameters drawn from tiny domains so most submissions have
// in-flight twins — through the unfolded reference engine and production,
// asserting every client gets exactly the query-at-a-time oracle's rows each
// way.
func TestDifferentialFoldDuplicateHeavy(t *testing.T) {
	t.Cleanup(operators.PoisonReleasedRowsForTest())
	for _, mode := range []struct {
		name string
		cfg  Config
	}{
		{"off", Config{NoFold: true}},
		{"on", Config{}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			db, closeDB := bookstore(t)
			defer closeDB()
			e := New(db, plan.New(db), mode.cfg)
			defer e.Close()
			qat := baseline.New(db, baseline.SystemXLike)

			subjects := []string{"ARTS", "SCIENCE", "HISTORY", "COOKING"}
			templates := []struct {
				sql     string
				mkParam func(r *rand.Rand) []types.Value
			}{
				{"SELECT i_id, i_title FROM item WHERE i_subject = ?",
					func(r *rand.Rand) []types.Value {
						return []types.Value{types.NewString(subjects[r.Intn(len(subjects))])}
					}},
				{"SELECT i_id, i_title, i_a_id FROM item",
					func(r *rand.Rand) []types.Value { return nil }},
				{"SELECT i_id, i_title FROM item WHERE i_a_id = ?",
					func(r *rand.Rand) []types.Value { return []types.Value{types.NewInt(int64(r.Intn(4)))} }},
				{"SELECT i_title, a_lname FROM item, author WHERE i_a_id = a_id AND i_subject = ?",
					func(r *rand.Rand) []types.Value {
						return []types.Value{types.NewString(subjects[r.Intn(2)])}
					}},
				{"SELECT i_id FROM item WHERE i_price > ?",
					func(r *rand.Rand) []types.Value {
						return []types.Value{types.NewFloat(float64(r.Intn(3)) * 30)}
					}},
			}
			stmts := make([]*plan.Statement, len(templates))
			oracle := make([]*baseline.Stmt, len(templates))
			for i, tpl := range templates {
				var err error
				if stmts[i], err = e.Prepare(tpl.sql); err != nil {
					t.Fatal(err)
				}
				if oracle[i], err = qat.Prepare(tpl.sql); err != nil {
					t.Fatal(err)
				}
			}

			r := rand.New(rand.NewSource(61))
			for round := 0; round < 8; round++ {
				n := 20 + r.Intn(20)
				idxs := make([]int, n)
				params := make([][]types.Value, n)
				results := make([]*Result, n)
				for i := 0; i < n; i++ {
					idxs[i] = r.Intn(len(templates))
					params[i] = templates[idxs[i]].mkParam(r)
					results[i] = e.Submit(stmts[idxs[i]], params[i])
				}
				for i := 0; i < n; i++ {
					if err := results[i].Wait(); err != nil {
						t.Fatalf("round %d query %d: %v", round, i, err)
					}
					want, err := oracle[idxs[i]].Exec(params[i])
					if err != nil {
						t.Fatal(err)
					}
					if !sameRows(results[i].Rows, want.Rows) {
						t.Fatalf("round %d mode=%s: mismatch for %q params %v:\nshared (%d rows): %v\noracle (%d rows): %v",
							round, mode.name, templates[idxs[i]].sql, params[i],
							len(results[i].Rows), canon(results[i].Rows), len(want.Rows), canon(want.Rows))
					}
				}
			}
			if !mode.cfg.NoFold {
				if e.Stats().FoldedQueries == 0 {
					t.Fatal("duplicate-heavy sweep never folded — fold path untested")
				}
			} else if e.Stats().FoldedQueries != 0 {
				t.Fatal("folding off but FoldedQueries > 0")
			}
		})
	}
}
