package core

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"shareddb/internal/plan"
	"shareddb/internal/types"
)

// TestReuseInvalidation walks a read through every kind of commit: it takes
// its last identical read's rows after no write, after a write outside its
// read set and after a write of a column's current value, and runs again
// after a changed column it references, an insert and a delete. Each answer
// matches a NoFold engine over the same database, snapshot included.
func TestReuseInvalidation(t *testing.T) {
	for _, depth := range []int{1, 4} {
		t.Run(fmt.Sprintf("depth=%d", depth), func(t *testing.T) {
			db, closeDB := bookstore(t)
			defer closeDB()
			e := New(db, plan.New(db), Config{MaxInFlightGenerations: depth})
			defer e.Close()
			ref := New(db, plan.New(db), Config{MaxInFlightGenerations: depth, NoFold: true})
			defer ref.Close()

			const read = "SELECT i_id, i_title FROM item WHERE i_subject = ? ORDER BY i_title"
			s, rs := mustPrepare(t, e, read), mustPrepare(t, ref, read)
			subject := types.NewString("ARTS")
			exec := func(sqlText string, params ...types.Value) {
				t.Helper()
				run(t, e, mustPrepare(t, e, sqlText), params...)
			}
			run(t, e, s, subject)

			steps := []struct {
				name  string
				write func()
				runs  bool
			}{
				{"no write", func() {}, false},
				{"column outside the read set", func() {
					exec("UPDATE item SET i_price = ? WHERE i_id = ?", types.NewFloat(99.5), types.NewInt(0))
				}, false},
				{"another table", func() {
					exec("UPDATE author SET a_lname = ? WHERE a_id = ?", types.NewString("Renamed"), types.NewInt(0))
				}, false},
				{"current value of a referenced column", func() {
					exec("UPDATE item SET i_subject = ? WHERE i_id = ?", subject, types.NewInt(0))
				}, false},
				{"referenced column", func() {
					exec("UPDATE item SET i_title = ? WHERE i_id = ?", types.NewString("Retitled"), types.NewInt(0))
				}, true},
				{"predicate column", func() {
					exec("UPDATE item SET i_subject = ? WHERE i_id = ?", types.NewString("COOKING"), types.NewInt(0))
				}, true},
				{"insert", func() {
					exec("INSERT INTO item (i_id, i_title, i_a_id, i_subject, i_price) VALUES (?, ?, ?, ?, ?)",
						types.NewInt(500), types.NewString("Inserted"), types.NewInt(1), subject, types.NewFloat(1))
				}, true},
				{"delete", func() {
					exec("DELETE FROM item WHERE i_id = ?", types.NewInt(4))
				}, true},
			}
			for _, st := range steps {
				st.write()
				before := e.Stats()
				got := run(t, e, s, subject)
				want := run(t, ref, rs, subject)
				after := e.Stats()
				ran, reused := after.QueriesRun-before.QueriesRun, after.ReusedQueries-before.ReusedQueries
				if ran != 1 || st.runs != (reused == 0) {
					t.Errorf("%s: answered %d, reused %d; want it to run: %v", st.name, ran, reused, st.runs)
				}
				sameResult(t, want, got)
				if got.SnapshotTS != want.SnapshotTS {
					t.Errorf("%s: snapshot %d, reference %d", st.name, got.SnapshotTS, want.SnapshotTS)
				}
			}
		})
	}
}

// TestReuseKeepsCoercionEqualParams alternates a read between parameters
// that compare equal in SQL but are distinct fold identities — INT 10 and
// FLOAT 10.0, then 0.0 and -0.0 — with no write in between. Each identity
// keeps its own completed read, so the third and fourth run of each
// sequence are answered from it; every answer matches a NoFold engine's
// rows and snapshot.
func TestReuseKeepsCoercionEqualParams(t *testing.T) {
	db, closeDB := bookstore(t)
	defer closeDB()
	e := newEngine(t, db)
	defer e.Close()
	ref := New(db, plan.New(db), Config{NoFold: true})
	defer ref.Close()
	const read = "SELECT i_id FROM item WHERE i_price > ?"
	s, rs := mustPrepare(t, e, read), mustPrepare(t, ref, read)
	for _, pair := range [][2]types.Value{
		{types.NewInt(10), types.NewFloat(10)},
		{types.NewFloat(0), types.NewFloat(math.Copysign(0, -1))},
	} {
		for i := 0; i < 4; i++ {
			p := pair[i%2]
			before := e.Stats().ReusedQueries
			got := run(t, e, s, p)
			want := run(t, ref, rs, p)
			if reused := e.Stats().ReusedQueries - before; reused != uint64(i/2) {
				t.Errorf("run %d with %v: reused %d, want %d", i+1, p, reused, i/2)
			}
			sameResult(t, want, got)
		}
	}
}

// TestReuseMemoBound fills the memo past memoCap with distinct reads of
// about a thousand rows each: the entries' summed cost never exceeds
// memoCap, the read recorded last is still answered from the memo, and a
// result costing over memoEntryCap is never kept.
func TestReuseMemoBound(t *testing.T) {
	db, closeDB := bigTable(t, 20000)
	defer closeDB()
	e := newEngine(t, db)
	defer e.Close()
	s := mustPrepare(t, e, "SELECT b_id, b_val FROM big WHERE b_id >= ? AND b_id < ? + 1000")
	from := func(lo int) []types.Value {
		return []types.Value{types.NewInt(int64(lo)), types.NewInt(int64(lo))}
	}
	const cost = 3 + 1000*2
	n := 2*memoCap/cost + 1
	const burstLen = 64
	for lo := 0; lo < n; lo += burstLen {
		calls := make([]Call, min(burstLen, n-lo))
		for i := range calls {
			calls[i] = Call{Stmt: s, Params: from(lo + i)}
		}
		e.SubmitBatch(calls)
		for _, c := range calls {
			if err := c.Result.Wait(); err != nil {
				t.Fatal(err)
			}
			if len(c.Result.Rows) != 1000 {
				t.Fatalf("fixture: a read returned %d rows, want 1000", len(c.Result.Rows))
			}
		}
		e.folds.mu.Lock()
		held, sum := e.folds.held, 0
		for _, en := range e.folds.entries {
			sum += en.cost
		}
		e.folds.mu.Unlock()
		if held != sum || held > memoCap {
			t.Fatalf("after %d reads the memo holds cost %d (entries sum to %d), bound %d", lo+len(calls), held, sum, memoCap)
		}
	}
	if got := e.Stats().ReusedQueries; got != 0 {
		t.Fatalf("fixture: %d distinct reads reused %d", n, got)
	}
	run(t, e, s, from(n-1)...)
	if e.Stats().ReusedQueries != 1 {
		t.Fatal("the read recorded last is not answered from the memo")
	}

	wide := mustPrepare(t, e, "SELECT b_id, b_val, b_pad FROM big WHERE b_id < ?")
	limit := types.NewInt(memoEntryCap / 3)
	run(t, e, wide, limit)
	run(t, e, wide, limit)
	if e.Stats().ReusedQueries != 1 {
		t.Fatal("a result costing over memoEntryCap was kept")
	}
}

// TestReuseReadsOwnWrites: clients that each write their own row and read it
// back see their write every time, while other clients repeat reads the
// memo can answer — at every pipeline depth.
func TestReuseReadsOwnWrites(t *testing.T) {
	for _, depth := range []int{1, 4} {
		t.Run(fmt.Sprintf("depth=%d", depth), func(t *testing.T) {
			db, closeDB := bookstore(t)
			defer closeDB()
			e := New(db, plan.New(db), Config{MaxInFlightGenerations: depth})
			defer e.Close()
			set := mustPrepare(t, e, "UPDATE item SET i_price = ? WHERE i_id = ?")
			get := mustPrepare(t, e, "SELECT i_price FROM item WHERE i_id = ?")
			bySubject := mustPrepare(t, e, "SELECT i_id FROM item WHERE i_subject = ?")
			want := run(t, e, bySubject, types.NewString("HISTORY")).Rows

			var wg sync.WaitGroup
			errs := make(chan error, 64)
			for c := 0; c < 8; c++ {
				wg.Add(2)
				go func(c int) {
					defer wg.Done()
					id := types.NewInt(int64(c))
					for k := 0; k < 20; k++ {
						price := float64(1000*c + k)
						if err := e.Submit(set, []types.Value{types.NewFloat(price), id}).Wait(); err != nil {
							errs <- err
							return
						}
						r := e.Submit(get, []types.Value{id})
						if err := r.Wait(); err != nil {
							errs <- err
							return
						}
						if len(r.Rows) != 1 || r.Rows[0][0].AsFloat() != price {
							errs <- fmt.Errorf("client %d wrote %v, read back %v", c, price, r.Rows)
							return
						}
					}
				}(c)
				go func() {
					defer wg.Done()
					for k := 0; k < 20; k++ {
						r := e.Submit(bySubject, []types.Value{types.NewString("HISTORY")})
						if err := r.Wait(); err != nil {
							errs <- err
							return
						}
						if !slices.EqualFunc(r.Rows, want, slices.Equal[types.Row]) {
							errs <- fmt.Errorf("subject read returned %v, want %v", r.Rows, want)
							return
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			if e.Stats().ReusedQueries == 0 {
				t.Error("fixture: no read was answered from the memo")
			}
		})
	}
}
