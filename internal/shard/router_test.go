package shard

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"shareddb/internal/baseline"
	"shareddb/internal/core"
	"shareddb/internal/expr"
	"shareddb/internal/plan"
	"shareddb/internal/storage"
	"shareddb/internal/testutil"
	"shareddb/internal/types"
)

// shardCounts returns the shard counts the differential tests run at,
// overridable via SHAREDDB_TEST_SHARDS (comma-separated), mirroring the CI
// matrix.
func shardCounts(t testing.TB) []int {
	env := os.Getenv("SHAREDDB_TEST_SHARDS")
	if env == "" {
		return []int{1, 3}
	}
	var out []int
	for _, part := range strings.Split(env, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			t.Fatalf("bad SHAREDDB_TEST_SHARDS entry %q", part)
		}
		out = append(out, n)
	}
	return out
}

// mkSchema creates the miniature bookstore schema used across the shard
// tests (the same shape as the core engine's test fixture).
func mkSchema(t testing.TB, db *storage.Database) {
	t.Helper()
	mk := func(name string, cols ...types.Column) *storage.Table {
		tab, err := db.CreateTable(name, types.NewSchema(cols...))
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}
	col := func(q, n string, k types.Kind) types.Column {
		return types.Column{Qualifier: q, Name: n, Kind: k}
	}
	item := mk("item",
		col("item", "i_id", types.KindInt),
		col("item", "i_title", types.KindString),
		col("item", "i_a_id", types.KindInt),
		col("item", "i_subject", types.KindString),
		col("item", "i_price", types.KindFloat),
	)
	item.SetPrimaryKey("i_id")
	item.AddIndex("item_subject", false, "i_subject")
	author := mk("author",
		col("author", "a_id", types.KindInt),
		col("author", "a_lname", types.KindString),
	)
	author.SetPrimaryKey("a_id")
	orders := mk("orders",
		col("orders", "o_id", types.KindInt),
		col("orders", "o_c_id", types.KindInt),
		col("orders", "o_total", types.KindFloat),
	)
	orders.SetPrimaryKey("o_id")
	ol := mk("order_line",
		col("order_line", "ol_id", types.KindInt),
		col("order_line", "ol_o_id", types.KindInt),
		col("order_line", "ol_i_id", types.KindInt),
		col("order_line", "ol_qty", types.KindInt),
	)
	ol.SetPrimaryKey("ol_id")
	ol.AddIndex("ol_o", false, "ol_o_id")
}

var fixtureSubjects = []string{"ARTS", "SCIENCE", "HISTORY", "COOKING"}

// fixturePlacement: item and orders partition on their primary keys,
// order_line co-partitions with item on ol_i_id (so the order_line ⋈ item
// join is shard-local), and author replicates (so item ⋈ author joins work
// on every shard).
var fixturePlacement = Placement{
	Replicated:    []string{"author"},
	PartitionKeys: map[string][]string{"order_line": {"ol_i_id"}},
}

// fixtureOps builds the deterministic row population, including NULL
// prices, so the same ops load the sharded stores and the oracle.
func fixtureOps() []storage.WriteOp {
	var ops []storage.WriteOp
	ins := func(table string, vals ...types.Value) {
		ops = append(ops, storage.WriteOp{Table: table, Kind: storage.WInsert, Row: vals})
	}
	for a := int64(0); a < 30; a++ {
		ins("author", types.NewInt(a), types.NewString(fmt.Sprintf("Lname%02d", a%11)))
	}
	for i := int64(0); i < 120; i++ {
		price := types.NewFloat(float64((i*37)%9000) / 100)
		if i%9 == 7 {
			price = types.Null // NULL prices exercise NULL partial aggregates
		}
		ins("item", types.NewInt(i),
			types.NewString(fmt.Sprintf("Title %02d vol %d", i%10, i)),
			types.NewInt(i%30),
			types.NewString(fixtureSubjects[i%int64(len(fixtureSubjects))]),
			price)
	}
	for o := int64(0); o < 60; o++ {
		ins("orders", types.NewInt(o), types.NewInt(o%12), types.NewFloat(float64(o)*3.5))
	}
	for l := int64(0); l < 200; l++ {
		ins("order_line", types.NewInt(l), types.NewInt(l%60), types.NewInt((l*13)%120), types.NewInt(1+l%5))
	}
	return ops
}

// newExecEnv builds the deployment a shard count names over freshly loaded
// fixture data: the plain engine for one shard (a router needs at least
// two), an n-shard router otherwise.
func newExecEnv(t testing.TB, n int, cfg core.Config) core.Executor {
	t.Helper()
	if n > 1 {
		return newRouterEnv(t, n, cfg)
	}
	db, err := storage.Open(storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mkSchema(t, db)
	results, _ := db.ApplyOps(fixtureOps())
	for _, res := range results {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	eng := core.New(db, plan.New(db), cfg)
	t.Cleanup(eng.Close)
	return eng
}

// newRouterEnv builds an n-shard router over freshly loaded fixture data.
func newRouterEnv(t testing.TB, n int, cfg core.Config) *Router {
	t.Helper()
	dbs := make([]*storage.Database, n)
	for i := range dbs {
		db, err := storage.Open(storage.Options{Shard: storage.ShardInfo{Index: i, Count: n}})
		if err != nil {
			t.Fatal(err)
		}
		mkSchema(t, db)
		dbs[i] = db
	}
	results, _ := Stores{DBs: dbs, Policy: fixturePlacement}.ApplyOps(fixtureOps())
	for _, res := range results {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	r, err := New(dbs, cfg, fixturePlacement)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

// newOracle builds the query-at-a-time baseline over an unsharded copy of
// the fixture.
func newOracle(t testing.TB) *baseline.Engine {
	t.Helper()
	db, err := storage.Open(storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mkSchema(t, db)
	results, _ := db.ApplyOps(fixtureOps())
	for _, res := range results {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	return baseline.New(db, baseline.SystemXLike)
}

// TestStoresPartitioning: the bulk loader puts every partitioned row on
// exactly one shard (the one its partition key hashes to), partitions are
// disjoint with the full population as their union, and replicated tables
// hold a full copy on every shard.
func TestStoresPartitioning(t *testing.T) {
	r := newRouterEnv(t, 3, core.Config{})
	total := 0
	nonEmpty := 0
	for _, db := range r.Databases() {
		n := db.Table("item").CountVisible(db.SnapshotTS())
		total += n
		if n > 0 {
			nonEmpty++
		}
	}
	if total != 120 {
		t.Fatalf("item rows across shards = %d, want 120", total)
	}
	if nonEmpty < 2 {
		t.Fatalf("only %d shards hold item rows; hash partitioning looks degenerate", nonEmpty)
	}
	part := r.Partitioning()
	for si, db := range r.Databases() {
		// item partitions on its primary key…
		db.Table("item").ScanVisible(db.SnapshotTS(), func(_ storage.RowID, row types.Row) bool {
			if own := part.ShardOf(row[0]); own != si {
				t.Fatalf("item pk=%v lives on shard %d, owner is %d", row[0], si, own)
			}
			return true
		})
		// …order_line co-partitions with item on ol_i_id (column 2)…
		db.Table("order_line").ScanVisible(db.SnapshotTS(), func(_ storage.RowID, row types.Row) bool {
			if own := part.ShardOf(row[2]); own != si {
				t.Fatalf("order_line ol_i_id=%v lives on shard %d, owner is %d", row[2], si, own)
			}
			return true
		})
		// …and author is fully replicated.
		if n := db.Table("author").CountVisible(db.SnapshotTS()); n != 30 {
			t.Fatalf("shard %d holds %d authors, want the full replicated 30", si, n)
		}
	}
}

// TestPointRouting: a full-PK read runs on exactly one shard (the others'
// engines see no queries).
func TestPointRouting(t *testing.T) {
	r := newRouterEnv(t, 3, core.Config{})
	stmt, err := r.Prepare("SELECT i_title FROM item WHERE i_id = ?")
	if err != nil {
		t.Fatal(err)
	}
	for id := int64(0); id < 20; id++ {
		res := r.Submit(stmt, []types.Value{types.NewInt(id)})
		if err := res.Wait(); err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 {
			t.Fatalf("point read of i_id=%d returned %d rows", id, len(res.Rows))
		}
	}
	var queries uint64
	perShard := make([]uint64, 3)
	for i, e := range r.Engines() {
		q := e.Stats().QueriesRun
		perShard[i] = q
		queries += q
	}
	if queries != 20 {
		t.Fatalf("total queries across shards = %d, want 20 (each point read on exactly one shard), per-shard %v", queries, perShard)
	}
}

// TestPointWriteRouting: partition-key writes land on the owning shard
// only, and the row is findable afterwards (insert→update→read round trip
// through the hash router).
func TestPointWriteRouting(t *testing.T) {
	r := newRouterEnv(t, 3, core.Config{})
	ins, err := r.Prepare("INSERT INTO orders VALUES (?, ?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	sel, err := r.Prepare("SELECT o_total FROM orders WHERE o_id = ?")
	if err != nil {
		t.Fatal(err)
	}
	upd, err := r.Prepare("UPDATE orders SET o_total = ? WHERE o_id = ?")
	if err != nil {
		t.Fatal(err)
	}
	for id := int64(100); id < 110; id++ {
		res := r.Submit(ins, []types.Value{types.NewInt(id), types.NewInt(id % 5), types.NewFloat(1)})
		if err := res.Wait(); err != nil {
			t.Fatal(err)
		}
		if res.RowsAffected != 1 {
			t.Fatalf("insert affected %d rows", res.RowsAffected)
		}
		wres := r.Submit(upd, []types.Value{types.NewFloat(float64(id)), types.NewInt(id)})
		if err := wres.Wait(); err != nil {
			t.Fatal(err)
		}
		if wres.RowsAffected != 1 {
			t.Fatalf("update affected %d rows, want 1", wres.RowsAffected)
		}
		rres := r.Submit(sel, []types.Value{types.NewInt(id)})
		if err := rres.Wait(); err != nil {
			t.Fatal(err)
		}
		if len(rres.Rows) != 1 || rres.Rows[0][0].AsFloat() != float64(id) {
			t.Fatalf("read-back of o_id=%d: %v", id, rres.Rows)
		}
	}
}

// TestReplicatedTable: writes to a replicated table apply on every shard
// (reported once), and reads over replicated tables answer from any single
// shard.
func TestReplicatedTable(t *testing.T) {
	r := newRouterEnv(t, 3, core.Config{})
	ins, err := r.Prepare("INSERT INTO author VALUES (?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	res := r.Submit(ins, []types.Value{types.NewInt(900), types.NewString("Repl")})
	if err := res.Wait(); err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 1 {
		t.Fatalf("replicated insert reported %d rows, want 1 (one logical row)", res.RowsAffected)
	}
	for si, db := range r.Databases() {
		found := false
		db.Table("author").ScanVisible(db.SnapshotTS(), func(_ storage.RowID, row types.Row) bool {
			if row[0].AsInt() == 900 {
				found = true
				return false
			}
			return true
		})
		if !found {
			t.Fatalf("shard %d is missing the replicated insert", si)
		}
	}
	// Replicated-only read: generations spread across shards (round-robin),
	// every one answers correctly.
	sel, err := r.Prepare("SELECT a_lname FROM author WHERE a_id = ?")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		rres := r.Submit(sel, []types.Value{types.NewInt(900)})
		if err := rres.Wait(); err != nil {
			t.Fatal(err)
		}
		if len(rres.Rows) != 1 || rres.Rows[0][0].AsString() != "Repl" {
			t.Fatalf("replicated read %d: %v", i, rres.Rows)
		}
	}
	var shardsServing int
	for _, e := range r.Engines() {
		if q := e.Stats().QueriesRun; q > 0 {
			shardsServing++
		}
	}
	if shardsServing < 2 {
		t.Fatalf("replicated reads all served by %d shard(s); round-robin not spreading", shardsServing)
	}
}

// TestNonColocatedJoinRejected: joining two partitioned tables on
// non-partition keys cannot be answered shard-locally and must fail at
// prepare with a placement hint.
func TestNonColocatedJoinRejected(t *testing.T) {
	r := newRouterEnv(t, 2, core.Config{})
	// orders partitions on o_id, order_line on ol_i_id — joining them on
	// ol_o_id = o_id is not co-located.
	_, err := r.Prepare("SELECT o_id, ol_qty FROM orders, order_line WHERE ol_o_id = o_id")
	if err == nil {
		t.Fatal("non-co-located join prepared without error")
	}
	if !strings.Contains(err.Error(), "partition") {
		t.Fatalf("error should hint at placement: %v", err)
	}
	// The co-partitioned join (order_line ⋈ item on the partition keys)
	// must keep working.
	if _, err := r.Prepare("SELECT i_title, ol_qty FROM order_line, item WHERE ol_i_id = i_id"); err != nil {
		t.Fatalf("co-partitioned join rejected: %v", err)
	}
}

// TestBroadcastWriteSumsRowsAffected: a predicate update touches matching
// rows on every shard and reports the global count.
func TestBroadcastWriteSumsRowsAffected(t *testing.T) {
	r := newRouterEnv(t, 3, core.Config{})
	upd, err := r.Prepare("UPDATE item SET i_price = ? WHERE i_subject = ?")
	if err != nil {
		t.Fatal(err)
	}
	res := r.Submit(upd, []types.Value{types.NewFloat(1.0), types.NewString("ARTS")})
	if err := res.Wait(); err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 30 { // 120 items / 4 subjects
		t.Fatalf("broadcast update affected %d rows, want 30", res.RowsAffected)
	}
}

// TestPrimaryKeyUpdateRejected: rows cannot migrate between shards, so an
// UPDATE assigning a primary-key column fails at prepare on a sharded
// deployment.
func TestPrimaryKeyUpdateRejected(t *testing.T) {
	r := newRouterEnv(t, 2, core.Config{})
	if _, err := r.Prepare("UPDATE item SET i_id = ? WHERE i_id = ?"); err == nil {
		t.Fatal("preparing a primary-key UPDATE on 2 shards succeeded, want error")
	}
	single := newExecEnv(t, 1, core.Config{})
	if _, err := single.Prepare("UPDATE item SET i_id = ? WHERE i_id = ?"); err != nil {
		t.Fatalf("the one-shard deployment must keep accepting PK updates: %v", err)
	}
	// The transaction path must apply the same guard for core-level
	// callers that buffer writes without Prepare (internal/tpcw): a
	// buffered partition-key update fails at commit instead of silently
	// stranding the row on its old shard.
	tx := r.BeginTx().(*Tx)
	tx.Update("item",
		&expr.Cmp{Op: expr.EQ, L: &expr.ColRef{Idx: 0}, R: &expr.Const{Val: types.NewInt(7)}},
		[]storage.ColSet{{Col: 0, Val: &expr.Const{Val: types.NewInt(999)}}})
	if err := r.SubmitTx(tx).Wait(); err == nil {
		t.Fatal("tx partition-key update committed, want rejection")
	}
}

// TestRouterPrepareRegisteredTextSkipsPreparation: a text the router has
// prepared resolves to its canonical handle without the lock a new text's
// preparation holds across every shard's pipeline quiesce, and adds no
// statement to any shard.
func TestRouterPrepareRegisteredTextSkipsPreparation(t *testing.T) {
	r := newRouterEnv(t, 2, core.Config{})
	const text = "SELECT i_title FROM item WHERE i_subject = ?"
	canon, err := r.Prepare(text)
	if err != nil {
		t.Fatal(err)
	}
	var before []int
	for _, e := range r.Engines() {
		before = append(before, len(e.Plan().Statements()))
	}
	prepare := func(sqlText string) <-chan *plan.Statement {
		ch := make(chan *plan.Statement, 1)
		go func() {
			s, err := r.Prepare(sqlText)
			if err != nil {
				t.Error(err)
			}
			ch <- s
		}()
		return ch
	}

	r.pmu.Lock()
	select {
	case s := <-prepare(text):
		if s != canon {
			r.pmu.Unlock()
			t.Fatal("Prepare of a registered text returned another handle")
		}
	case <-time.After(5 * time.Second):
		r.pmu.Unlock()
		t.Fatal("Prepare of a registered text waited for the preparation lock")
	}
	miss := prepare("SELECT i_price FROM item WHERE i_subject = ?")
	select {
	case <-miss:
		r.pmu.Unlock()
		t.Fatal("Prepare of a new text returned without the preparation lock")
	case <-time.After(50 * time.Millisecond):
	}
	r.pmu.Unlock()
	if s := <-miss; s == nil || s == canon {
		t.Fatalf("Prepare of a new text = %v, want a new handle", s)
	}
	for i, e := range r.Engines() {
		if n := len(e.Plan().Statements()); n != before[i]+1 {
			t.Fatalf("shard %d holds %d statements, want %d (only the new text)", i, n, before[i]+1)
		}
	}
}

// TestRouterTx: transactions route buffered writes to owning shards and
// commit through the shard engines.
func TestRouterTx(t *testing.T) {
	r := newRouterEnv(t, 3, core.Config{})
	tx := r.BeginTx()
	tx.Insert("author", types.Row{types.NewInt(500), types.NewString("tx")})
	tx.Insert("author", types.Row{types.NewInt(501), types.NewString("tx")})
	if err := r.SubmitTx(tx).Wait(); err != nil {
		t.Fatal(err)
	}
	sel, err := r.Prepare("SELECT a_id FROM author WHERE a_lname = ?")
	if err != nil {
		t.Fatal(err)
	}
	res := r.Submit(sel, []types.Value{types.NewString("tx")})
	if err := res.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("tx inserts visible: %d rows, want 2", len(res.Rows))
	}
}

// TestShardForZeroAlloc pins the router seam's hot path: computing the
// owning shard of a point statement allocates nothing.
func TestShardForZeroAlloc(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	r := newRouterEnv(t, 3, core.Config{})
	stmt, err := r.Prepare("SELECT i_title FROM item WHERE i_id = ?")
	if err != nil {
		t.Fatal(err)
	}
	r.mu.RLock()
	rs := r.stmts[stmt]
	r.mu.RUnlock()
	params := []types.Value{types.NewInt(42)}
	allocs := testing.AllocsPerRun(200, func() {
		if s := r.shardFor(rs.sp.KeyExprs, params); s < 0 || s > 2 {
			t.Fatal("bad shard")
		}
	})
	if allocs != 0 {
		t.Fatalf("shardFor allocates %.1f per routed statement, want 0", allocs)
	}
}

// TestKeyHashCoercion: routing is coercion-consistent — an INT key and the
// equal integral FLOAT hash to the same shard.
func TestKeyHashCoercion(t *testing.T) {
	p := storage.Partitioning{Shards: 5}
	for i := int64(0); i < 200; i++ {
		a := p.ShardOf(types.NewInt(i))
		b := p.ShardOf(types.NewFloat(float64(i)))
		if a != b {
			t.Fatalf("INT %d routes to %d, FLOAT to %d", i, a, b)
		}
	}
}

// batchHook counts a hooked result's completions and announces each (the
// hook runs after the result's waiters are released).
type batchHook struct {
	fired atomic.Int32
	rang  chan struct{}
}

func (h *batchHook) Completed(*core.Result) {
	h.fired.Add(1)
	h.rang <- struct{}{}
}

// TestSubmitBatchRoutesEachCall: a burst through the router answers every
// call exactly as Submit answers it — whichever way the call routes (point,
// replicated-any, scatter, a scatter duplicate whose per-shard parts may
// fold inside the shard engines, broadcast write, unprepared statement) —
// and completes the caller's own hooked result, once.
func TestSubmitBatchRoutesEachCall(t *testing.T) {
	for _, shards := range shardCounts(t) {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			r := newExecEnv(t, shards, core.Config{})
			prep := func(sqlText string) *plan.Statement {
				t.Helper()
				s, err := r.Prepare(sqlText)
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			point := prep("SELECT i_title FROM item WHERE i_id = ?")
			anyShard := prep("SELECT a_lname FROM author WHERE a_id = ?")
			scatter := prep("SELECT i_id FROM item WHERE i_subject = ?")
			write := prep("UPDATE item SET i_price = ? WHERE i_subject = ?")

			type want struct {
				rows, affected int
				failed         bool
			}
			calls := []core.Call{
				{Stmt: point, Params: []types.Value{types.NewInt(7)}},
				{Stmt: anyShard, Params: []types.Value{types.NewInt(3)}},
				{Stmt: scatter, Params: []types.Value{types.NewString("ARTS")}},
				{Stmt: scatter, Params: []types.Value{types.NewString("ARTS")}},
				{Stmt: write, Params: []types.Value{types.NewFloat(1), types.NewString("COOKING")}},
			}
			wants := []want{{rows: 1}, {rows: 1}, {rows: 30}, {rows: 30}, {affected: 30}}
			if shards > 1 { // a handle this router never prepared fails in the router
				calls = append(calls, core.Call{Stmt: &plan.Statement{SQL: "SELECT 1"}})
				wants = append(wants, want{failed: true})
			}
			hooks := make([]*batchHook, len(calls))
			own := make([]*core.Result, len(calls))
			for i := range calls {
				hooks[i] = &batchHook{rang: make(chan struct{}, 4)}
				own[i] = core.NewHookedResult(hooks[i])
				calls[i].Result = own[i]
			}
			r.SubmitBatch(calls)
			for i, c := range calls {
				if c.Result != own[i] {
					t.Fatalf("call %d: the router substituted the caller's result", i)
				}
				err := c.Result.Wait()
				if (err != nil) != wants[i].failed {
					t.Fatalf("call %d: err %v, want failure %v", i, err, wants[i].failed)
				}
				if len(c.Result.Rows) != wants[i].rows || c.Result.RowsAffected != wants[i].affected {
					t.Fatalf("call %d: %d rows, %d affected, want %d and %d",
						i, len(c.Result.Rows), c.Result.RowsAffected, wants[i].rows, wants[i].affected)
				}
				<-hooks[i].rang
				if n := hooks[i].fired.Load(); n != 1 {
					t.Fatalf("call %d: hook fired %d times, want 1", i, n)
				}
			}
		})
	}
}

// TestUnknownTableWriteGoesToShardZero: transaction groups and the loader
// share one routing rule, which sends a write to an unknown table to shard
// 0 only, so its storage error surfaces once.
func TestUnknownTableWriteGoesToShardZero(t *testing.T) {
	r := newRouterEnv(t, 2, core.Config{})
	before := r.Stats().WritesApplied
	tx := r.BeginTx()
	tx.Insert("nope", types.Row{types.NewInt(1)})
	if err := r.SubmitTx(tx).Wait(); !errors.Is(err, storage.ErrNoTable) {
		t.Fatalf("commit into an unknown table: %v, want ErrNoTable", err)
	}
	if n := r.Stats().WritesApplied - before; n != 1 {
		t.Fatalf("the unknown-table commit ran on %d shards, want 1", n)
	}
	results, _ := Stores{DBs: r.Databases(), Policy: fixturePlacement}.ApplyOps(
		[]storage.WriteOp{{Table: "nope", Kind: storage.WInsert, Row: types.Row{types.NewInt(1)}}})
	if !errors.Is(results[0].Err, storage.ErrNoTable) {
		t.Fatalf("loader write into an unknown table: %v, want ErrNoTable", results[0].Err)
	}
}
