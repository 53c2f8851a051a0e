package core

import (
	"sync/atomic"
	"time"

	"shareddb/internal/operators"
	"shareddb/internal/plan"
	"shareddb/internal/queryset"
	"shareddb/internal/storage"
	"shareddb/internal/types"
)

// generation is one heartbeat's batch on its way through the engine. It
// moves through its stages in order — form (Engine.formLocked), write, pin,
// run/sink, retire — and each stage is one method. Stages up to the launch
// of the read phase run on the dispatcher goroutine; the sink stage and
// retire run on the sink goroutine once the plan has drained.
type generation struct {
	e       *Engine
	id      uint64
	batch   []*Request      // drafted requests, arrival order
	subs    []*Subscription // standing queries active this generation
	dropped []*Request      // abandoned submissions vacated at formation
	start   time.Time       // dispatch start; admission's cycle time runs from here

	written []*Request // bound and applied writes and commits, outcomes recorded
	reads   []*Request // reads the plan runs; pin takes out the reused ones
	ts      uint64     // the pinned read snapshot

	// cols[qid-1] collects the result of the activation with dense query id
	// qid: the standing queries first, then the batch's reads.
	cols []collector
	// admStmts are the distinct read statements the breaker strikes or
	// resets for this generation, and cost is its cost ledger: cost[qid-1]
	// sums the operator time attributed to the activation with query id
	// qid. Both exist only with the SLO on.
	admStmts []*plan.Statement
	cost     []atomic.Int64
}

// dispatch runs the generation on the dispatcher goroutine up to the launch
// of its read phase, which completes asynchronously: write phases apply in
// generation order while up to maxInFlight read phases overlap. A
// generation with neither reads nor standing queries retires right after
// its write stage.
func (g *generation) dispatch() {
	for _, r := range g.dropped {
		r.Result.complete(errRequestAbandoned)
	}
	g.start = time.Now()
	g.write()
	if len(g.reads) == 0 && len(g.subs) == 0 {
		g.retire()
		g.completeWrites()
		return
	}
	g.completeWrites()
	acts := g.pin()
	var cost func([]operators.Task, int64)
	if g.cost != nil {
		cost = g.observeCost
	}
	g.e.plan.Run(g.id, g.ts, acts, g.sink, g.sinkDone, cost)
}

// write is the write stage: one CommitTxBatch over the batch's writes, in
// arrival order. A write statement binds into a one-op Autocommit, which
// sees every earlier commit of the batch (Crescando semantics: later ops see
// earlier ones) and is atomic; a transaction commit gets snapshot-isolation
// validation, so a standalone write arriving before it can make it
// conflict. Outcomes are recorded on the results and the writes counted;
// the results complete in completeWrites, after the count is visible.
// Reads are set aside for pin.
func (g *generation) write() {
	var commits []*Request
	var txs []*storage.Tx
	for _, r := range g.batch {
		tx := r.Tx
		if tx == nil {
			if r.Stmt == nil || !r.Stmt.IsWrite() {
				g.reads = append(g.reads, r)
				continue
			}
			op, err := BindWriteForTx(r.Stmt.Write, r.Params)
			if err != nil {
				r.Result.Err = err
				g.written = append(g.written, r)
				continue
			}
			tx = g.e.db.Autocommit(op)
		}
		commits = append(commits, r)
		txs = append(txs, tx)
	}
	if len(txs) == 0 {
		return
	}
	results, commitTS := g.e.db.CommitTxBatch(txs)
	for i, res := range results {
		r := commits[i].Result
		r.RowsAffected, r.SnapshotTS, r.Err = res.RowsAffected, commitTS, res.Err
	}
	g.written = append(g.written, commits...)
	g.e.mu.Lock()
	g.e.writesRun += uint64(len(txs))
	g.e.mu.Unlock()
}

func (g *generation) completeWrites() {
	for _, r := range g.written {
		r.Result.complete(r.Result.Err)
	}
}

// pin is the pin stage: take the post-write snapshot the generation's reads
// run at, answer the reads the memo can, and lay out one activation and one
// collector per dense, generation-scoped query id — standing queries first
// (1..len(subs), in registration order, so their ids are stable while the
// subscription set is), then the reads left to run. Isolation between
// overlapping generations comes from generation-tagged routing, not from
// the id space.
func (g *generation) pin() []plan.Activation {
	g.ts = g.e.db.PinCurrentSnapshot()
	g.reuse()
	acts := make([]plan.Activation, 0, len(g.subs)+len(g.reads))
	for _, s := range g.subs {
		acts = append(acts, plan.Activation{QID: queryset.QueryID(len(acts) + 1), Stmt: s.stmt, Params: s.params})
	}
	for _, r := range g.reads {
		acts = append(acts, plan.Activation{QID: queryset.QueryID(len(acts) + 1), Stmt: r.Stmt, Params: r.Params})
	}
	g.cols = make([]collector, len(acts))
	for i, a := range acts {
		g.cols[i] = collector{stmt: a.Stmt, params: a.Params}
	}
	if g.e.adm.maxDelay > 0 {
		// The slow-query breaker is on: attribute operator cycle time to
		// statements so blame lands on the plan that burned the cycles.
		g.attribute()
	}
	return acts
}

// reuse completes every read whose last identical read the fold table holds
// no commit has stamped the read set of since, with that read's rows at
// this generation's snapshot, and takes it out of the reads the plan runs.
// Each completes after it is counted in QueriesRun and ReusedQueries, and
// before its generation retires.
func (g *generation) reuse() {
	var reused []*Request
	g.reads, reused = g.e.folds.answer(g.reads)
	if len(reused) == 0 {
		return
	}
	g.e.mu.Lock()
	g.e.queriesRun += uint64(len(reused))
	g.e.reused += uint64(len(reused))
	g.e.mu.Unlock()
	for _, r := range reused {
		deliver(r.Result, r.subs, r.Result.Rows, r.Stmt.OutSchema, g.ts, nil)
	}
}

// attribute opens the generation's cost ledger, one slot per activation,
// and collects the distinct read statements for the breaker. Standing
// queries get slots too: their share belongs to them, not to whichever
// batch statement co-ran. Distinctness is by SQL text, the breaker's
// identity; Prepare hands out one handle per text, so a statement strikes
// once per generation however many callers re-prepared it.
func (g *generation) attribute() {
	g.cost = make([]atomic.Int64, len(g.cols))
	seen := make(map[string]bool, len(g.reads))
	for _, r := range g.reads {
		if !seen[r.Stmt.SQL] {
			seen[r.Stmt.SQL] = true
			g.admStmts = append(g.admStmts, r.Stmt)
		}
	}
}

// observeCost is the generation's cost observer, called from operator
// goroutines as each node drains the generation. A shared operator does one
// pass of work for all of a cycle's queries, so its active time splits
// equally across the cycle's tasks; finer attribution (per-tuple query-set
// accounting) would tax the hot path it is trying to protect. Every node
// reports before its EOS propagates downstream, so the ledger is final by
// sinkDone.
func (g *generation) observeCost(tasks []operators.Task, activeNs int64) {
	if len(tasks) == 0 {
		return
	}
	share := activeNs / int64(len(tasks))
	if share <= 0 {
		return
	}
	for _, t := range tasks {
		g.cost[t.Query-1].Add(share)
	}
}

// costs sums the ledger per statement SQL, the breaker's identity (nil
// with the SLO off, or when the generation ran no reads).
func (g *generation) costs() map[string]int64 {
	if g.cost == nil {
		return nil
	}
	ns := make(map[string]int64)
	for i := range g.cost {
		ns[g.cols[i].stmt.SQL] += g.cost[i].Load()
	}
	return ns
}

// sink is the run stage's tuple callback: it routes one sink tuple to the
// collector of every query in its query set. It runs on the sink goroutine
// only — one sink cycle at a time, even with generations in flight — so
// collectors need no locking.
func (g *generation) sink(_ int, t operators.Tuple) {
	for _, qid := range t.QS.IDs() {
		g.cols[qid-1].add(t.Row)
	}
}

// sinkDone ends the sink stage once the plan has drained the generation:
// release the snapshot, hand the standing queries their results, record the
// reads in the fold table, retire, and then complete the reads and fan each
// one out to its fold subscribers. With every read reused and no standing
// query, the plan ran nothing and this runs on the dispatcher.
func (g *generation) sinkDone() {
	g.e.db.UnpinSnapshot(g.ts)
	// Subscription deliveries happen on the sink goroutine in generation
	// order (the per-subscription diff state depends on it); a full
	// subscriber channel marks it lagged, never blocks. Each delivery is
	// counted before its update can be received.
	for i, s := range g.subs {
		s.deliver(g.id, g.ts, g.cols[i].rows, &g.e.subUpdates)
	}
	g.e.folds.record(g.reads, g.ts, g.cols[len(g.subs):])
	g.retire()
	for i, r := range g.reads {
		deliver(r.Result, r.subs, g.cols[len(g.subs)+i].rows, r.Stmt.OutSchema, g.ts, nil)
	}
}

// retire is the last stage and the only way a generation leaves the
// pipeline: it feeds the cycle back into admission, publishes the read
// counter and frees the in-flight slot — before the results
// it retires complete, so a client returning from Result.Wait observes its
// own work in Stats and InFlightGenerations.
func (g *generation) retire() {
	e := g.e
	costs := g.costs()
	e.mu.Lock()
	e.queriesRun += uint64(len(g.reads))
	// Reused reads cost the generation nothing: the per-request cost the
	// SLO sizes batches by counts only the requests it executed.
	e.adm.recordGenerationCosts(g.admStmts, time.Since(g.start), len(g.written)+len(g.reads), costs)
	e.mu.Unlock()
	e.generationDone()
}

// collector assembles one activation's result during its generation's sink
// cycle, applying the query's own projection, DISTINCT and LIMIT — the
// per-query tail of the shared plan. The projection copies every delivered
// value out of the tuple's row, which belongs to the generation's row arena
// and dies when the generation drains, into the collector's slab.
type collector struct {
	stmt   *plan.Statement
	params []types.Value
	rows   []types.Row
	seen   map[string]bool // DISTINCT keys kept so far
	slab   rowSlab
}

func (c *collector) add(in types.Row) {
	s := c.stmt
	if s.SinkLimit >= 0 && len(c.rows) >= s.SinkLimit {
		return
	}
	row := c.slab.next(len(s.Project))
	for i, pe := range s.Project {
		row[i] = pe.Eval(in, c.params)
	}
	if s.Distinct {
		k := types.EncodeKey(row...)
		if c.seen[k] {
			return
		}
		if c.seen == nil {
			c.seen = map[string]bool{}
		}
		c.seen[k] = true
	}
	c.slab.keep(len(row))
	c.rows = append(c.rows, row)
}

// rowSlab backs the rows of one result while the sink assembles it: rows are
// cut from value slabs that double in size — one row first, so a point
// lookup allocates exactly its row, 1024 rows at most — so a result of r rows
// costs about log₂r allocations instead of r and at most twice its bytes. A
// slab is garbage once every row cut from it is.
type rowSlab struct {
	free []types.Value
	rows int // rows in the slab allocated last
}

// next returns the n-value row the next keep hands out, for the caller to
// fill; without a keep the same memory is returned again (a row DISTINCT
// rejected).
func (s *rowSlab) next(n int) types.Row {
	if len(s.free) < n {
		s.rows = min(max(1, 2*s.rows), 1024)
		s.free = make([]types.Value, n*s.rows)
	}
	return s.free[:n:n]
}

func (s *rowSlab) keep(n int) { s.free = s.free[n:] }
