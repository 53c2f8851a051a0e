package shard

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"shareddb/internal/core"
	"shareddb/internal/dbapi"
	"shareddb/internal/expr"
	"shareddb/internal/plan"
	"shareddb/internal/sql"
	"shareddb/internal/storage"
	"shareddb/internal/types"
)

// Placement decides how each table distributes across shards.
//
// The default policy: tables with a primary key are hash-partitioned on it;
// tables without one are replicated to every shard. Replicated lists
// tables to replicate regardless (dimension tables every shard joins
// against); PartitionKeys overrides the partition key (co-partitioning a
// detail table with its parent, e.g. order lines on their order id).
//
// Placement is fixed for the life of a deployment: the loader (Stores) and
// the router must use the same policy, or rows end up on shards the router
// never looks at.
type Placement struct {
	Replicated    []string
	PartitionKeys map[string][]string
}

// tableRouting resolves one table's distribution against a shard's catalog:
// the partition-key schema indices, or replicated=true. Unknown tables
// report ok=false.
func (p Placement) tableRouting(db *storage.Database, name string) (cols []int, replicated bool, ok bool) {
	t := db.Table(name)
	if t == nil {
		return nil, false, false
	}
	for _, r := range p.Replicated {
		if r == name {
			return nil, true, true
		}
	}
	if names, override := p.PartitionKeys[name]; override {
		cols = make([]int, len(names))
		for i, n := range names {
			ci, err := t.Schema().ColIndex(n)
			if err != nil {
				// Validated at New for existing tables; unresolvable
				// overrides on later DDL fall back to the primary key.
				cols = nil
				break
			}
			cols[i] = ci
		}
		if cols != nil {
			return cols, false, true
		}
	}
	if pk := t.PrimaryKey(); pk != nil {
		return pk.Cols, false, true
	}
	return nil, true, true
}

// tablePlacement is one table's distribution (tableRouting) in the form
// the write routing rule reads. A table with no partition key counts as
// replicated.
type tablePlacement struct {
	cols       []int
	replicated bool
	known      bool
}

// of resolves table's placement against a shard's catalog.
func (p Placement) of(db *storage.Database, table string) tablePlacement {
	cols, replicated, ok := p.tableRouting(db, table)
	return tablePlacement{cols: cols, replicated: ok && (replicated || len(cols) == 0), known: ok}
}

// shardOf is the one routing rule for a write, shared by transaction groups
// and the loader: it returns the shard op goes to, or -1 for every shard.
// An unknown table goes to shard 0, so its storage error surfaces once; a
// replicated table to every shard; an insert to the shard its partition key
// hashes to; an update or delete to the shard its predicate pins, else to
// every shard.
func (tp tablePlacement) shardOf(part storage.Partitioning, op storage.WriteOp) int {
	switch {
	case !tp.known:
		return 0
	case tp.replicated:
		return -1
	case op.Kind == storage.WInsert:
		return shardOfRow(part, tp.cols, op.Row)
	default:
		return shardOfPred(part, tp.cols, op.Pred)
	}
}

// validate eagerly checks PartitionKeys overrides against tables that
// already exist.
func (p Placement) validate(db *storage.Database) error {
	for name, cols := range p.PartitionKeys {
		t := db.Table(name)
		if t == nil {
			continue // table may be created later
		}
		for _, c := range cols {
			if _, err := t.Schema().ColIndex(c); err != nil {
				return fmt.Errorf("shard: partition key for table %q: %w", name, err)
			}
		}
	}
	return nil
}

// Router is the scatter-gather front of a sharded deployment: it owns one
// core.Engine per shard database and implements core.Executor, so callers
// cannot tell it from a single engine. Statement classification and merge
// recipes are compiled once at Prepare; Submit routes point statements to
// the owning shard (pass-through — the shard engine's Result is returned
// untouched, no copying at the seam) and scatters everything else. A
// router has at least two shards: one shard is the plain engine.
type Router struct {
	dbs       []*storage.Database
	plans     []*plan.GlobalPlan
	engines   []*core.Engine
	part      storage.Partitioning
	placement Placement
	rr        atomic.Uint64 // round-robin cursor for RouteAny reads

	// mu guards the statement maps: stmts routes a canonical handle, texts
	// resolves SQL text to the canonical handle prepared for it. pmu
	// serializes the first preparation of a text, so every shard registers
	// statements in the same order; it is never held by a registry hit.
	mu    sync.RWMutex
	stmts map[*plan.Statement]*routedStmt
	texts map[string]*plan.Statement
	pmu   sync.Mutex

	// wmu serializes commitGroup's fan-out (broadcast writes and transaction
	// groups): without it, two concurrent groups could enqueue on shard A in
	// one order and on shard B in the other, and since each shard applies
	// writes in its own arrival order, replicated copies (and the effects of
	// overlapping predicate writes) would diverge permanently. Holding wmu
	// across the enqueue loop makes every shard see commit groups in one
	// global order; point writes touch a single shard and need no ordering.
	wmu sync.Mutex
}

var _ core.Executor = (*Router)(nil)

// routedStmt is one prepared statement's routing state: the classification
// plus the per-shard registered statements.
type routedStmt struct {
	sp       *sql.ShardStatement
	perShard []*plan.Statement
}

// New builds a router over the given shard databases (one engine each).
// The databases must hold identical schemas; rows must have been loaded
// through the same placement (Stores.ApplyOps or the write path).
func New(dbs []*storage.Database, cfg core.Config, placement Placement) (*Router, error) {
	if len(dbs) < 2 {
		return nil, fmt.Errorf("shard: a router needs at least two shard databases, got %d (one shard is the plain engine)", len(dbs))
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := placement.validate(dbs[0]); err != nil {
		return nil, err
	}
	r := &Router{
		dbs:       dbs,
		part:      storage.Partitioning{Shards: len(dbs)},
		placement: placement,
		stmts:     map[*plan.Statement]*routedStmt{},
		texts:     map[string]*plan.Statement{},
	}
	for _, db := range dbs {
		gp := plan.New(db)
		r.plans = append(r.plans, gp)
		r.engines = append(r.engines, core.New(db, gp, cfg))
	}
	return r, nil
}

// Shards returns the shard count.
func (r *Router) Shards() int { return len(r.dbs) }

// ValidateTable checks the placement overrides against a (typically newly
// created) table, so a typo'd partition-key column surfaces at DDL time
// instead of silently falling back to the primary key. The DDL path calls
// this after creating a table on every shard.
func (r *Router) ValidateTable(name string) error {
	cols, ok := r.placement.PartitionKeys[name]
	if !ok {
		return nil
	}
	t := r.dbs[0].Table(name)
	if t == nil {
		return nil
	}
	for _, c := range cols {
		if _, err := t.Schema().ColIndex(c); err != nil {
			return fmt.Errorf("shard: partition key for table %q: %w", name, err)
		}
	}
	return nil
}

// Engines exposes the per-shard engines (stats, tests).
func (r *Router) Engines() []*core.Engine { return r.engines }

// Databases exposes the per-shard storage databases.
func (r *Router) Databases() []*storage.Database { return r.dbs }

// Partitioning returns the router's hash partitioner.
func (r *Router) Partitioning() storage.Partitioning { return r.part }

// Close stops every shard engine.
func (r *Router) Close() {
	for _, e := range r.engines {
		e.Close()
	}
}

// Stats sums the shard engines' counters; the gauges are sums of
// per-shard values. QueriesRun, FoldedQueries and ReusedQueries count
// per-shard activations: the router neither folds nor reuses, each shard
// engine does both for the parts of reads that reach it, so one client
// scatter read counts once per shard.
func (r *Router) Stats() dbapi.Stats {
	var out dbapi.Stats
	for _, e := range r.engines {
		out = out.Add(e.Stats())
	}
	return out
}

// Describe renders shard 0's operator DAG (all shards compile the same
// statements, so the plans are isomorphic).
func (r *Router) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "-- %d shards, plan of shard 0 --\n", len(r.dbs))
	b.WriteString(r.plans[0].Describe())
	return b.String()
}

// shardCatalog resolves schemas and placement against one shard's storage
// (schemas are identical across shards).
type shardCatalog struct {
	db        *storage.Database
	placement Placement
}

func (c shardCatalog) TableSchema(name string) (*types.Schema, bool) {
	t := c.db.Table(name)
	if t == nil {
		return nil, false
	}
	return t.Schema(), true
}

func (c shardCatalog) TablePlacement(name string) ([]int, bool, bool) {
	return c.placement.tableRouting(c.db, name)
}

// Prepare classifies the statement, registers the per-shard statement (the
// original, or the partial rewrite the merge needs) on every shard engine,
// and returns the canonical client handle — once per SQL text: a text
// prepared before returns its canonical handle without touching a shard.
func (r *Router) Prepare(sqlText string) (*plan.Statement, error) {
	if canon := r.registered(sqlText); canon != nil {
		return canon, nil
	}
	ast, err := sql.Parse(sqlText)
	if err != nil {
		return nil, err
	}
	sp, err := sql.PlanShards(ast, shardCatalog{db: r.dbs[0], placement: r.placement})
	if err != nil {
		return nil, err
	}
	if sp.UpdatesKey {
		return nil, fmt.Errorf("shard: UPDATE of a partition-key column is not supported on a sharded deployment (rows cannot migrate between shards): %s", sqlText)
	}
	// Serialize preparation so every shard registers statements in the
	// same order (sharing signatures involving statement ids stay aligned),
	// and re-check: a racing first prepare of this text may have won.
	r.pmu.Lock()
	defer r.pmu.Unlock()
	if canon := r.registered(sqlText); canon != nil {
		return canon, nil
	}
	rs := &routedStmt{sp: sp, perShard: make([]*plan.Statement, len(r.engines))}
	var execAST sql.Statement = ast
	if sp.Exec != nil {
		execAST = sp.Exec
	}
	for i, e := range r.engines {
		ps, err := e.PrepareParsed(sqlText, execAST)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		rs.perShard[i] = ps
	}
	canon := &plan.Statement{
		ID:        len(r.stmts),
		SQL:       sqlText,
		NumParams: sql.NumParams(ast),
		OutSchema: sp.OutSchema,
		SinkLimit: -1,
		Write:     sp.Write,
	}
	r.mu.Lock()
	r.stmts[canon] = rs
	r.texts[sqlText] = canon
	r.mu.Unlock()
	return canon, nil
}

// registered returns the canonical handle prepared for sqlText, or nil.
func (r *Router) registered(sqlText string) *plan.Statement {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.texts[sqlText]
}

// shardFor evaluates the statement's routing key with the activation's
// parameters and hashes it to the owning shard. The common case (few key
// columns) runs allocation-free.
func (r *Router) shardFor(keyExprs []expr.Expr, params []types.Value) int {
	var buf [4]types.Value
	keys := buf[:0]
	if len(keyExprs) > len(buf) {
		keys = make([]types.Value, 0, len(keyExprs))
	}
	for _, e := range keyExprs {
		keys = append(keys, e.Eval(nil, params))
	}
	return r.part.ShardOf(keys...)
}

// fail completes res (a fresh result when nil) with err.
func fail(res *core.Result, err error) *core.Result {
	if res == nil {
		res = core.NewPendingResult()
	}
	res.Complete(err)
	return res
}

// Submit routes one statement activation. Point statements pass through to
// the owning shard engine; broadcast statements scatter to every shard and
// gather through the statement's merge spec.
func (r *Router) Submit(stmt *plan.Statement, params []types.Value) *core.Result {
	return r.submit(stmt, params, nil)
}

// SubmitBatch routes each call exactly as Submit routes it.
func (r *Router) SubmitBatch(calls []core.Call) {
	for i := range calls {
		c := &calls[i]
		c.Result = r.submit(c.Stmt, c.Params, c.Result)
	}
}

// submit routes one activation, completing res (a fresh result when nil).
func (r *Router) submit(stmt *plan.Statement, params []types.Value, res *core.Result) *core.Result {
	r.mu.RLock()
	rs := r.stmts[stmt]
	r.mu.RUnlock()
	if rs == nil {
		return fail(res, errors.New("shard: statement was not prepared on this router"))
	}
	sp := rs.sp
	switch sp.Route {
	case sql.RoutePoint:
		s := r.shardFor(sp.KeyExprs, params)
		return r.engines[s].SubmitCall(core.Call{Stmt: rs.perShard[s], Params: params, Result: res})
	case sql.RouteAny:
		// Replicated-only read: every shard holds the data; round-robin
		// spreads the load (this is where replicated reads scale linearly
		// with the shard count). Identical reads that land on the same
		// shard fold in its engine.
		s := int(r.rr.Add(1) % uint64(len(r.engines)))
		return r.engines[s].SubmitCall(core.Call{Stmt: rs.perShard[s], Params: params, Result: res})
	}
	if sp.Write != nil {
		// A broadcast write commits as one Autocommit per shard, through the
		// same group commit as a transaction group.
		op, err := core.BindWriteForTx(sp.Write, params)
		if err != nil {
			return fail(res, err)
		}
		txs := make([]*storage.Tx, len(r.dbs))
		for i, db := range r.dbs {
			txs[i] = db.Autocommit(op)
		}
		return r.commitGroup(txs, sp.WriteReplicated, res)
	}
	// Scatter reads are ordinary per-shard submissions: identical scatter
	// reads fold inside each shard engine, whose fold window closes at that
	// shard's batch formation, so every per-shard part sees each write
	// completed before it was submitted. Each client read still gathers and
	// merges on its own.
	subs := make([]*core.Result, len(r.engines))
	for i, e := range r.engines {
		subs[i] = e.Submit(rs.perShard[i], params)
	}
	if res == nil {
		res = core.NewPendingResult()
	}
	res.Schema = sp.OutSchema
	go func() {
		// Partial-admission merge: a shard rejecting with ErrOverloaded costs
		// nothing to retry (reads mutate no state), so the gathered result is
		// "overloaded, retry the whole statement" with the largest per-shard
		// retry hint — unless some shard failed for a real (non-overload)
		// reason, which wins.
		var firstErr error
		var overload *dbapi.OverloadError
		shardRows := make([][]types.Row, len(subs))
		for i, sub := range subs {
			if err := sub.Wait(); err != nil {
				var oe *dbapi.OverloadError
				if errors.As(err, &oe) {
					if overload == nil || oe.RetryAfter > overload.RetryAfter {
						overload = oe
					}
				} else if firstErr == nil {
					firstErr = err
				}
			}
			shardRows[i] = sub.Rows
			res.SnapshotTS = max(res.SnapshotTS, sub.SnapshotTS)
		}
		if firstErr == nil && overload != nil {
			firstErr = overload
		}
		if firstErr != nil {
			res.Complete(firstErr)
			return
		}
		res.Rows = MergeResults(shardRows, sp.Merge, params)
		res.Complete(nil)
	}()
	return res
}

// commitGroup is the router's one commit path, for transaction groups and
// broadcast writes alike. txs holds one storage transaction per shard (nil:
// the shard takes no part). Under wmu it reserves a queue slot on every
// taking shard before enqueueing on any: a commit rejected for overload on
// one shard rejects everywhere, and every shard sees concurrent groups in
// one order, so replicated copies cannot diverge. It then submits each with
// SubmitTxReserved and gathers into res (a fresh result when nil): the
// first error wins, SnapshotTS is the latest shard's, and RowsAffected is
// the sum over shards, or one shard's count when once is set (a replicated
// write applies the same mutation to every copy).
func (r *Router) commitGroup(txs []*storage.Tx, once bool, res *core.Result) *core.Result {
	subs := make([]*core.Result, 0, len(txs))
	r.wmu.Lock()
	for i, tx := range txs {
		if tx == nil {
			continue
		}
		if err := r.engines[i].AdmitReserve(); err != nil {
			for j, tx := range txs[:i] {
				if tx != nil {
					r.engines[j].AdmitRelease()
				}
			}
			r.wmu.Unlock()
			return fail(res, err)
		}
	}
	for i, tx := range txs {
		if tx != nil {
			subs = append(subs, r.engines[i].SubmitTxReserved(tx))
		}
	}
	r.wmu.Unlock()
	if res == nil {
		res = core.NewPendingResult()
	}
	go func() {
		var firstErr error
		affected := 0
		for _, sub := range subs {
			if err := sub.Wait(); err != nil && firstErr == nil {
				firstErr = err
			}
			affected += sub.RowsAffected
			res.SnapshotTS = max(res.SnapshotTS, sub.SnapshotTS)
		}
		if once {
			affected = subs[0].RowsAffected
		}
		if firstErr == nil {
			res.RowsAffected = affected
		}
		res.Complete(firstErr)
	}()
	return res
}

// Tx is the router's transaction group: one buffered storage transaction
// per shard, with each write routed as it is buffered. Commit (SubmitTx)
// submits every dirty shard transaction to its engine; snapshot-isolation
// validation runs per shard. Cross-shard commits are not atomic — a
// conflict on one shard does not roll back another shard's writes (see
// README "Sharding" for the contract).
type Tx struct {
	r     *Router
	txs   []*storage.Tx
	dirty []bool
	err   error // first routing error; surfaces at SubmitTx
}

var _ core.Tx = (*Tx)(nil)

// BeginTx opens a transaction group reading each shard at its current
// snapshot.
func (r *Router) BeginTx() core.Tx {
	t := &Tx{r: r, txs: make([]*storage.Tx, len(r.dbs)), dirty: make([]bool, len(r.dbs))}
	for i, db := range r.dbs {
		t.txs[i] = db.Begin()
	}
	return t
}

// shardOfRow hashes a row's partition-key columns to its owning shard.
func shardOfRow(part storage.Partitioning, cols []int, row types.Row) int {
	var buf [4]types.Value
	keys := buf[:0]
	if len(cols) > len(buf) {
		keys = make([]types.Value, 0, len(cols))
	}
	for _, c := range cols {
		keys = append(keys, row[c])
	}
	return part.ShardOf(keys...)
}

// shardOfPred resolves a bound predicate (constants substituted) to the
// owning shard, or -1 when it does not pin every partition-key column by
// equality (expr.PinsOf, the rule the planner's index probes use).
func shardOfPred(part storage.Partitioning, cols []int, pred expr.Expr) int {
	keys, ok := expr.PinsOf(pred).Values(cols)
	if len(cols) == 0 || !ok {
		return -1
	}
	return part.ShardOf(keys...)
}

// buffer adds one write to the shard transactions the routing rule sends
// it to.
func (t *Tx) buffer(tp tablePlacement, op storage.WriteOp) {
	s := tp.shardOf(t.r.part, op)
	for i, tx := range t.txs {
		if s < 0 || s == i {
			tx.Buffer(op)
			t.dirty[i] = true
		}
	}
}

// Insert buffers an insert on the owning shard (or on every shard for
// replicated tables).
func (t *Tx) Insert(table string, row types.Row) {
	t.buffer(t.r.placement.of(t.r.dbs[0], table), storage.WriteOp{Table: table, Kind: storage.WInsert, Row: row})
}

// Update buffers an update: on the owning shard when pred pins the
// partition key, else on every shard (disjoint partitions and replicated
// copies both make the union of per-shard effects equal the unsharded
// update). Assigning a partition-key column is rejected (rows cannot
// migrate between shards) — the same guard Prepare applies, for callers that
// buffer writes without a prepared statement (internal/tpcw), surfaced at
// commit because this interface has no error return.
func (t *Tx) Update(table string, pred expr.Expr, set []storage.ColSet) {
	tp := t.r.placement.of(t.r.dbs[0], table)
	if tp.known && !tp.replicated {
		for _, sc := range set {
			if slices.Contains(tp.cols, sc.Col) && t.err == nil {
				t.err = fmt.Errorf("shard: UPDATE of partition-key column of table %q is not supported on a sharded deployment (rows cannot migrate between shards)", table)
			}
		}
	}
	t.buffer(tp, storage.WriteOp{Table: table, Kind: storage.WUpdate, Pred: pred, Set: set})
}

// Delete buffers a delete, routed like Update.
func (t *Tx) Delete(table string, pred expr.Expr) {
	t.buffer(t.r.placement.of(t.r.dbs[0], table), storage.WriteOp{Table: table, Kind: storage.WDelete, Pred: pred})
}

// Rollback abandons every shard transaction.
func (t *Tx) Rollback() {
	for _, tx := range t.txs {
		tx.Rollback()
	}
}

// SubmitTx commits the transaction group through commitGroup: every dirty
// shard transaction commits in its shard engine's next generation, and the
// first error wins. Snapshot-isolation validation runs per shard, so a
// conflict on one shard does not roll back the commits on the others.
func (r *Router) SubmitTx(tx core.Tx) *core.Result {
	t, ok := tx.(*Tx)
	if !ok || t.r != r {
		return fail(nil, errors.New("shard: SubmitTx requires a transaction from this router's BeginTx"))
	}
	if t.err != nil {
		t.Rollback()
		return fail(nil, t.err)
	}
	group := make([]*storage.Tx, len(t.txs))
	for i, dirty := range t.dirty {
		if dirty {
			group[i] = t.txs[i]
		}
	}
	return r.commitGroup(group, false, nil)
}

// Stores is the set of per-shard storage databases plus the deployment's
// placement, exposing the bulk-load path: ApplyOps routes every op to its
// owning partition (inserts by partition-key hash, predicate writes to the
// pinned shard or all shards, replicated tables to every shard) while
// preserving arrival order per shard. It implements storage.OpApplier so
// loaders written against a single database (the TPC-W generator) fill a
// sharded deployment unchanged.
type Stores struct {
	DBs    []*storage.Database
	Policy Placement
}

var _ storage.OpApplier = Stores{}

// ApplyOps routes and applies a batch of mutations, combining per-op
// results (partitioned broadcast ops sum their per-shard RowsAffected;
// replicated ops report one copy's count).
func (s Stores) ApplyOps(ops []storage.WriteOp) ([]storage.OpResult, uint64) {
	if len(s.DBs) == 1 {
		return s.DBs[0].ApplyOps(ops)
	}
	part := storage.Partitioning{Shards: len(s.DBs)}
	buckets := make([][]int, len(s.DBs)) // op indices per shard, in arrival order
	replicatedOp := make([]bool, len(ops))
	// Placement resolution memoized per batch: bulk-load chunks are
	// typically single-table, so one resolution serves thousands of ops.
	placements := map[string]tablePlacement{}
	for i, op := range ops {
		tp, seen := placements[op.Table]
		if !seen {
			tp = s.Policy.of(s.DBs[0], op.Table)
			placements[op.Table] = tp
		}
		replicatedOp[i] = tp.replicated
		sh := tp.shardOf(part, op)
		for b := range buckets {
			if sh < 0 || sh == b {
				buckets[b] = append(buckets[b], i)
			}
		}
	}
	results := make([]storage.OpResult, len(ops))
	var maxTS uint64
	for sh, bucket := range buckets {
		if len(bucket) == 0 {
			continue
		}
		shardOps := make([]storage.WriteOp, len(bucket))
		for j, i := range bucket {
			shardOps[j] = ops[i]
		}
		shardResults, ts := s.DBs[sh].ApplyOps(shardOps)
		maxTS = max(maxTS, ts)
		for j, i := range bucket {
			res := shardResults[j]
			if res.Err != nil && results[i].Err == nil {
				results[i].Err = res.Err
			}
			switch {
			case !replicatedOp[i]:
				results[i].RowsAffected += res.RowsAffected
			case sh == 0:
				// Every copy applies the same mutation: count shard 0's.
				results[i].RowsAffected = res.RowsAffected
			}
		}
	}
	return results, maxTS
}
