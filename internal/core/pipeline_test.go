package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"shareddb/internal/baseline"
	"shareddb/internal/operators"
	"shareddb/internal/plan"
	"shareddb/internal/storage"
	"shareddb/internal/types"
)

// Pipelined generation execution tests: the engine admits up to
// Config.MaxInFlightGenerations generations concurrently (paper §3.1, §4 —
// sharing only pays off while the always-on plan stays busy). These tests
// verify (a) that overlap actually happens and is observable, (b) that
// results under overlapping mixed read/write load are exactly what the
// query-at-a-time baseline computes at each generation's snapshot, and (c)
// that generation-scoped query-id routing never bleeds rows across
// in-flight generations.

// TestPipelinedGenerationsOverlap drives non-blocking read waves until the
// engine observably has more than one generation in flight.
func TestPipelinedGenerationsOverlap(t *testing.T) {
	db, closeDB := bookstore(t)
	defer closeDB()
	// Pad the item table so a LIKE scan cycle takes long enough for the
	// dispatcher to admit the next generation (the allocation-free scan
	// path made the 100-row fixture cycle faster than the dispatch loop).
	var pad []storage.WriteOp
	for i := int64(1000); i < 9000; i++ {
		pad = append(pad, storage.WriteOp{Table: "item", Kind: storage.WInsert,
			Row: types.Row{
				types.NewInt(i),
				types.NewString(fmt.Sprintf("Padding %04d", i)),
				types.NewInt(i % 20),
				types.NewString("ARTS"),
				types.NewFloat(1),
			}})
	}
	padRes, _ := db.ApplyOps(pad)
	for _, r := range padRes {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	gp := plan.New(db)
	e := New(db, gp, Config{MaxInFlightGenerations: 4})
	defer e.Close()

	// Non-indexed LIKE scans keep a generation's read cycle busy long
	// enough for the dispatcher to admit the next one.
	s := mustPrepare(t, e, "SELECT i_id FROM item WHERE i_title LIKE ?")

	deadline := time.Now().Add(10 * time.Second)
	var results []*Result
	for n := 0; ; {
		// Back-to-back bursts keep a standing backlog: the dispatcher forms
		// the next generation while the previous one's read phase is still
		// draining in the plan. Every pattern is new, so no read is
		// answered from the memo of an identical one without a scan.
		for i := 0; i < 8; i++ {
			n++
			results = append(results, e.Submit(s, []types.Value{types.NewString(fmt.Sprintf("%%%d%%", n))}))
			time.Sleep(50 * time.Microsecond) // let the dispatcher drain between submissions
		}
		if _, peak := e.InFlightGenerations(); peak > 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("never observed more than one generation in flight")
		}
	}
	for _, r := range results {
		if err := r.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	gens := e.Stats().Generations
	_, peak := e.InFlightGenerations()
	t.Logf("generations=%d peak in flight=%d", gens, peak)
	if peak <= 1 {
		t.Errorf("peak in flight = %d, want > 1", peak)
	}
}

// TestSerialModeNoOverlap checks that MaxInFlightGenerations=1 restores the
// classic generation barrier: the gauge never exceeds one.
func TestSerialModeNoOverlap(t *testing.T) {
	db, closeDB := bookstore(t)
	defer closeDB()
	gp := plan.New(db)
	e := New(db, gp, Config{MaxInFlightGenerations: 1})
	defer e.Close()

	sel := mustPrepare(t, e, "SELECT i_id FROM item WHERE i_title LIKE ?")
	ins := mustPrepare(t, e, "INSERT INTO orders (o_id, o_c_id, o_total) VALUES (?, ?, ?)")
	var results []*Result
	for i := 0; i < 50; i++ {
		results = append(results, e.Submit(sel, []types.Value{types.NewString("%0%")}))
		results = append(results, e.Submit(ins, []types.Value{
			types.NewInt(int64(5000 + i)), types.NewInt(1), types.NewFloat(1)}))
	}
	for _, r := range results {
		if err := r.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if cur, peak := e.InFlightGenerations(); peak != 1 || cur != 0 {
		t.Errorf("serial mode: current=%d peak=%d, want 0/1", cur, peak)
	}
}

// TestPipelinedDifferentialMixedLoad is the pipelined differential test:
// concurrent readers and writers drive well over three overlapping
// generations; every read records the snapshot its generation executed at,
// and afterwards the query-at-a-time baseline re-executes each read at that
// exact snapshot (MVCC history is immutable without GC). Any cross-
// generation bleed, stale-snapshot read, or write misordering shows up as a
// result mismatch.
func TestPipelinedDifferentialMixedLoad(t *testing.T) {
	// A row read after its generation drained is a wrong answer here, not a
	// silent alias of a later generation's row.
	t.Cleanup(operators.PoisonReleasedRowsForTest())
	db, closeDB := bookstore(t)
	defer closeDB()
	// Grow the item table so scan cycles take long enough that the
	// dispatcher overlaps generations even on small machines.
	growItems(t, db, 4000)
	gp := plan.New(db)
	e := New(db, gp, Config{MaxInFlightGenerations: 4})
	defer e.Close()
	qat := baseline.New(db, baseline.SystemXLike)

	readSQL := []string{
		"SELECT i_title, i_price FROM item WHERE i_id = ?",
		"SELECT i_id, i_price FROM item WHERE i_subject = ?",
		"SELECT i_id FROM item WHERE i_price > ? AND i_price < ?",
		"SELECT i_title, a_lname FROM item, author WHERE i_a_id = a_id AND i_subject = ?",
		"SELECT i_subject, COUNT(*), AVG(i_price) FROM item WHERE i_price > ? GROUP BY i_subject",
		"SELECT COUNT(*) FROM orders WHERE o_c_id = ?",
	}
	mkParams := []func(r *rand.Rand) []types.Value{
		func(r *rand.Rand) []types.Value { return []types.Value{types.NewInt(int64(r.Intn(120)))} },
		func(r *rand.Rand) []types.Value {
			return []types.Value{types.NewString([]string{"ARTS", "SCIENCE", "HISTORY", "COOKING"}[r.Intn(4)])}
		},
		func(r *rand.Rand) []types.Value {
			lo := r.Float64() * 80
			return []types.Value{types.NewFloat(lo), types.NewFloat(lo + 30)}
		},
		func(r *rand.Rand) []types.Value {
			return []types.Value{types.NewString([]string{"ARTS", "SCIENCE", "HISTORY", "COOKING"}[r.Intn(4)])}
		},
		func(r *rand.Rand) []types.Value { return []types.Value{types.NewFloat(r.Float64() * 100)} },
		func(r *rand.Rand) []types.Value { return []types.Value{types.NewInt(int64(r.Intn(12)))} },
	}
	sharedStmts := make([]*plan.Statement, len(readSQL))
	qatStmts := make([]*baseline.Stmt, len(readSQL))
	for i, sqlText := range readSQL {
		sharedStmts[i] = mustPrepare(t, e, sqlText)
		var err error
		qatStmts[i], err = qat.Prepare(sqlText)
		if err != nil {
			t.Fatal(err)
		}
	}
	updPrice := mustPrepare(t, e, "UPDATE item SET i_price = i_price + ? WHERE i_id = ?")
	insOrder := mustPrepare(t, e, "INSERT INTO orders (o_id, o_c_id, o_total) VALUES (?, ?, ?)")

	type observation struct {
		stmt   int
		params []types.Value
		rows   []types.Row
		ts     uint64
	}
	var mu sync.Mutex
	var observed []observation

	// Run mixed rounds until the engine has demonstrably overlapped
	// generations (peak in flight > 1); each round interleaves 4 reader
	// goroutines with 2 writer goroutines.
	deadline := time.Now().Add(20 * time.Second)
	round := 0
	for {
		var wg sync.WaitGroup
		// Writers: price updates (visible to range/group reads) and order
		// inserts (visible to the count read), interleaved with readers.
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				r := rand.New(rand.NewSource(int64(round*100 + w + 77)))
				for i := 0; i < 15; i++ {
					if err := e.Submit(updPrice, []types.Value{
						types.NewFloat(r.Float64()*2 - 1), types.NewInt(int64(r.Intn(120)))}).Wait(); err != nil {
						t.Error(err)
						return
					}
					if err := e.Submit(insOrder, []types.Value{
						types.NewInt(int64(10000 + round*100 + w*50 + i)), types.NewInt(int64(r.Intn(12))),
						types.NewFloat(9.5)}).Wait(); err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				r := rand.New(rand.NewSource(int64(round*100 + g + 13)))
				for i := 0; i < 10; i++ {
					k := r.Intn(len(readSQL))
					params := mkParams[k](r)
					res := e.Submit(sharedStmts[k], params)
					if err := res.Wait(); err != nil {
						t.Error(err)
						return
					}
					mu.Lock()
					observed = append(observed, observation{stmt: k, params: params, rows: res.Rows, ts: res.SnapshotTS})
					mu.Unlock()
				}
			}(g)
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		round++
		if _, peak := e.InFlightGenerations(); peak > 1 && round >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("never observed overlapping generations under mixed load")
		}
	}

	st := e.Stats()
	gens, queries, writes := st.Generations, st.QueriesRun, st.WritesApplied
	_, peak := e.InFlightGenerations()
	t.Logf("rounds=%d generations=%d queries=%d writes=%d peak in flight=%d", round, gens, queries, writes, peak)
	if gens < 3 {
		t.Fatalf("only %d generations ran; the test needs overlapping generations", gens)
	}

	// Replay every read at its recorded snapshot through the baseline.
	for _, ob := range observed {
		want, err := qatStmts[ob.stmt].ExecAt(ob.params, ob.ts)
		if err != nil {
			t.Fatal(err)
		}
		if !sameRows(ob.rows, want.Rows) {
			t.Fatalf("mismatch for %q params %v at ts %d:\nshared (%d rows): %v\nbaseline (%d rows): %v",
				readSQL[ob.stmt], ob.params, ob.ts,
				len(ob.rows), canon(ob.rows), len(want.Rows), canon(want.Rows))
		}
	}
}

// growItems bulk-inserts extra item rows (ids from 1000 upward) so shared
// scan cycles have real work to do.
func growItems(t *testing.T, db *storage.Database, n int) {
	t.Helper()
	subjects := []string{"ARTS", "SCIENCE", "HISTORY", "COOKING"}
	ops := make([]storage.WriteOp, n)
	for i := 0; i < n; i++ {
		id := int64(1000 + i)
		ops[i] = storage.WriteOp{Table: "item", Kind: storage.WInsert,
			Row: types.Row{
				types.NewInt(id),
				types.NewString(fmt.Sprintf("Bulk %05d", id)),
				types.NewInt(id % 20),
				types.NewString(subjects[i%4]),
				types.NewFloat(float64(i%90) + 0.25),
			}}
	}
	results, _ := db.ApplyOps(ops)
	for _, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
}

// TestSinkRoutingNoCrossGenerationBleed stress-tests generation-scoped
// query-id routing under the race detector: overlapping generations reuse
// the same dense query-id space (1..n per generation), so any routing that
// keyed on the bare id would deliver another generation's rows. Each point
// query must return exactly its own row, and a write acknowledged before a
// read was submitted must be visible to it (generation monotonicity).
func TestSinkRoutingNoCrossGenerationBleed(t *testing.T) {
	db, closeDB := bookstore(t)
	defer closeDB()
	gp := plan.New(db)
	e := New(db, gp, Config{MaxInFlightGenerations: 4})
	defer e.Close()

	byID := mustPrepare(t, e, "SELECT i_id, i_title FROM item WHERE i_id = ?")
	bySubject := mustPrepare(t, e, "SELECT i_id FROM item WHERE i_subject = ?")
	insOrder := mustPrepare(t, e, "INSERT INTO orders (o_id, o_c_id, o_total) VALUES (?, ?, ?)")
	orderByID := mustPrepare(t, e, "SELECT o_id FROM orders WHERE o_id = ?")

	subjects := []string{"ARTS", "SCIENCE", "HISTORY", "COOKING"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 40; i++ {
				id := int64(r.Intn(100))
				r1 := e.Submit(byID, []types.Value{types.NewInt(id)})
				r2 := e.Submit(bySubject, []types.Value{types.NewString(subjects[r.Intn(4)])})
				if err := r1.Wait(); err != nil {
					t.Error(err)
					return
				}
				if len(r1.Rows) != 1 || r1.Rows[0][0].AsInt() != id ||
					r1.Rows[0][1].AsString() != fmt.Sprintf("Title %03d", id) {
					t.Errorf("point query for %d got %v (cross-generation bleed?)", id, r1.Rows)
					return
				}
				if err := r2.Wait(); err != nil {
					t.Error(err)
					return
				}
				if len(r2.Rows) != 25 {
					t.Errorf("subject query got %d rows, want 25", len(r2.Rows))
					return
				}
				// Read-your-writes across generations: the insert is acked
				// before the read is submitted, so the read's generation is
				// later and must see it.
				oid := int64(20000 + g*1000 + i)
				if err := e.Submit(insOrder, []types.Value{
					types.NewInt(oid), types.NewInt(int64(g)), types.NewFloat(1)}).Wait(); err != nil {
					t.Error(err)
					return
				}
				r3 := e.Submit(orderByID, []types.Value{types.NewInt(oid)})
				if err := r3.Wait(); err != nil {
					t.Error(err)
					return
				}
				if len(r3.Rows) != 1 {
					t.Errorf("order %d not visible after acked insert: %v", oid, r3.Rows)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestHeartbeatPrepareQuiesce stresses Prepare against a paced dispatcher:
// the heartbeat sleep releases the engine lock, so dispatch admission must
// be re-checked afterwards or a Prepare started during the sleep would
// mutate the DAG under a running generation.
func TestHeartbeatPrepareQuiesce(t *testing.T) {
	db, closeDB := bookstore(t)
	defer closeDB()
	gp := plan.New(db)
	e := New(db, gp, Config{Heartbeat: time.Millisecond, MaxInFlightGenerations: 4})
	defer e.Close()
	sel := mustPrepare(t, e, "SELECT i_id FROM item WHERE i_title LIKE ?")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := e.Submit(sel, []types.Value{types.NewString("%3%")}).Wait(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		s := mustPrepare(t, e, fmt.Sprintf("SELECT i_id FROM item WHERE i_price > %d.5", i))
		if err := e.Submit(s, nil).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestPrepareQuiescesPipeline checks that ad-hoc Prepare (which mutates the
// operator DAG) still works while generations are continuously in flight.
func TestPrepareQuiescesPipeline(t *testing.T) {
	db, closeDB := bookstore(t)
	defer closeDB()
	gp := plan.New(db)
	e := New(db, gp, Config{MaxInFlightGenerations: 4})
	defer e.Close()

	sel := mustPrepare(t, e, "SELECT i_id FROM item WHERE i_title LIKE ?")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := e.Submit(sel, []types.Value{types.NewString("%2%")}).Wait(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 10; i++ {
		s := mustPrepare(t, e, fmt.Sprintf("SELECT i_id FROM item WHERE i_price > %d", i))
		if err := e.Submit(s, nil).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// Reads under pipelined generations with writes landing between them stay
// correct because each generation reads its own pinned snapshot. (The name
// dates from when the scans also ran partition-parallel.)
func TestWorkersWithPipelinedWrites(t *testing.T) {
	db, closeDB := bookstore(t)
	defer closeDB()
	gp := plan.New(db)
	e := New(db, gp, Config{MaxInFlightGenerations: 4})
	defer e.Close()

	count := mustPrepare(t, e, "SELECT COUNT(*) FROM orders WHERE o_total >= ?")
	ins := mustPrepare(t, e, "INSERT INTO orders (o_id, o_c_id, o_total) VALUES (?, ?, ?)")

	base := run(t, e, count, types.NewFloat(0)).Rows[0][0].AsInt()
	const n = 40
	reads := make([]*Result, 0, n)
	for i := 0; i < n; i++ {
		e.Submit(ins, []types.Value{types.NewInt(int64(5000 + i)), types.NewInt(1), types.NewFloat(10)})
		reads = append(reads, e.Submit(count, []types.Value{types.NewFloat(0)}))
	}
	prev := base
	for i, r := range reads {
		if err := r.Wait(); err != nil {
			t.Fatal(err)
		}
		got := r.Rows[0][0].AsInt()
		// each read follows its insert in the same or later generation; the
		// count must be monotonically consistent with the write order
		if got < prev || got > base+int64(n) {
			t.Fatalf("read %d saw count %d (prev %d, base %d)", i, got, prev, base)
		}
		prev = got
	}
	if finalCount := run(t, e, count, types.NewFloat(0)).Rows[0][0].AsInt(); finalCount != base+n {
		t.Errorf("final count = %d, want %d", finalCount, base+n)
	}
}
