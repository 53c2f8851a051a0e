// Package core implements the SharedDB engine: the batch-oriented execution
// loop that the paper describes as a blood circulation (§3.2): "With every
// heartbeat, tuples are pushed through the global query plan in order to
// process the next generation of queries and updates. While one batch of
// queries and updates is processed, newly arriving queries and updates are
// queued. When the current batch ... has been processed, then the queues
// are emptied in order to form the next batch."
//
// A generation is a value (generation.go) that moves through five stages:
//
//   - form: drain the queue into a batch under admission control, vacate
//     abandoned submissions, close the fold window over the batch and take
//     on the live standing queries;
//   - write: commit the batch's write statements (each a one-op
//     autocommit) and transactions in one batch, in arrival order, and
//     publish a new snapshot (Crescando semantics);
//   - pin: pin that snapshot for the batch's reads and lay out their
//     activations, with the standing queries', by dense query id;
//   - run/sink: run the activations together through the always-on global
//     plan, routing each result tuple to its query's collector;
//   - retire: feed the cycle back into admission, publish the counters and
//     free the pipeline slot — then the results complete.
//
// Generations pipeline (§3.1, §4): the throughput claim — work per
// generation bounded by data size, not query count — only pays off while
// the always-on plan stays busy, so the engine admits up to
// Config.MaxInFlightGenerations generations concurrently instead of
// blocking on each one. Write phases stay serialized in generation order on
// the dispatcher goroutine (generation N+1's writes never apply before
// generation N's), each generation's reads run at the snapshot published
// after its own writes, and query-id routing is generation-scoped end to
// end, so overlapping read phases of distinct generations never observe
// each other's tuples.
package core

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"shareddb/internal/dbapi"
	"shareddb/internal/expr"
	"shareddb/internal/plan"
	"shareddb/internal/sql"
	"shareddb/internal/storage"
	"shareddb/internal/types"
)

// DefaultMaxInFlightGenerations is the pipeline depth used when
// Config.MaxInFlightGenerations is zero.
const DefaultMaxInFlightGenerations = 4

// Config tunes the engine.
type Config struct {
	// Heartbeat is the minimum spacing between generation starts. Zero
	// means the next generation forms as soon as the previous one finishes
	// (the paper's default: "for OLTP workloads, these heartbeats can be
	// frequent, in the order of one second or even less").
	Heartbeat time.Duration
	// MaxInFlightGenerations bounds how many generations may execute
	// concurrently. 1 restores strictly serial generations (the classic
	// generation barrier); 0 selects DefaultMaxInFlightGenerations.
	// Negative values are rejected by Config.Validate (the public API
	// path); New clamps them to 1 as a backstop. Write phases always
	// apply in generation order regardless of this setting; only read
	// phases overlap.
	MaxInFlightGenerations int

	// MaxGenerationDelay is the per-generation latency SLO (the paper's
	// response-time limit): batch formation caps each generation at the
	// size predicted — from an EWMA of observed per-request cycle cost —
	// to finish within it, and the slow-query circuit breaker quarantines
	// statements whose generations repeatedly exceed it
	// (DefaultBreakerStrikes consecutive strikes, then a cooldown of 8×
	// the SLO before a half-open probe). 0 disables both;
	// non-zero values below MinGenerationDelay are rejected by
	// Config.Validate (the timer cannot enforce them).
	MaxGenerationDelay time.Duration
	// QueueDepthLimit caps the submission queue: submissions beyond it are
	// rejected immediately with a *OverloadError (wrapping ErrOverloaded)
	// carrying a retry hint, instead of queueing unboundedly. 0 = unlimited.
	QueueDepthLimit int
	// StatementQuota caps how many activations of any one statement a
	// single generation admits; excess activations are shed — they stay
	// queued, in arrival order, for a later generation. 0 = unlimited.
	StatementQuota int

	// NoFold is the reference switch: it queues every read as its own
	// activation. The zero value is the production path: a read submission
	// identical to a pending one (same statement, bit-identical parameters)
	// attaches to the pending request's result instead of occupying its own
	// queue slot and activation, and is charged once — by its lead —
	// against QueueDepthLimit/StatementQuota and the cost EWMA. Writes and
	// transaction commits never fold. NoFold exists for the differential
	// suites and cmd/microbench's kernel records and is deliberately not on
	// shareddb.Config or any command-line flag.
	NoFold bool
}

// Engine drives generations over a storage database and a global plan.
type Engine struct {
	db   *storage.Database
	plan *plan.GlobalPlan
	cfg  Config

	mu      sync.Mutex
	cond    *sync.Cond
	pending []*Request
	stopped bool
	gen     uint64

	adm *admission // admission controller; passes everything through when every limit is zero

	// reserved counts queue slots handed out by AdmitReserve but not yet
	// consumed by SubmitTxReserved (the shard router's all-or-nothing
	// commit-group admission). Guarded by mu; counted against
	// QueueDepthLimit alongside len(pending).
	reserved int

	// pipeline state, guarded by mu
	maxInFlight  int // resolved MaxInFlightGenerations
	inFlight     int // generations dispatched but not yet complete
	peakInFlight int // high-water mark of inFlight
	preparers    int // Prepare calls waiting for / holding plan quiescence
	loopDone     chan struct{}

	// Fold state, guarded by mu: fingerprint → pending fold leads. The index
	// covers exactly the foldable requests currently in pending (the fold
	// window) and is rebuilt from the shed remainder after every batch
	// formation. nil under Config.NoFold.
	foldIdx map[uint64][]*Request

	// Standing queries, guarded by mu. subsKick forces a generation even
	// with an empty request queue so a fresh subscription gets its initial
	// full result.
	subs     []*Subscription
	subsKick bool

	// stats
	generations uint64
	queriesRun  uint64
	writesRun   uint64
	folded      uint64 // submissions folded into a pending duplicate
	// subUpdates counts subscription updates handed to subscribers; deliver
	// adds to it before the hand-off, so it needs no lock.
	subUpdates atomic.Uint64
}

// Request is one enqueued statement execution (or transaction commit).
type Request struct {
	Stmt   *plan.Statement
	Params []types.Value
	Tx     *storage.Tx // non-nil for transaction commits

	Result *Result

	// Fold state: fp is the fold fingerprint (computed once at Submit when
	// foldable), fold the fan-out group duplicates have attached to (nil
	// until the first fold).
	fp       uint64
	foldable bool
	fold     *fanout
}

// Result is the client-visible outcome of a request. Wait blocks until the
// generation that served the request completes.
type Result struct {
	done chan struct{}

	Rows         []types.Row
	Schema       *types.Schema
	RowsAffected int
	Err          error

	// SnapshotTS is the storage snapshot the request executed at: the
	// post-write snapshot of its generation for reads, the published commit
	// timestamp for writes.
	SnapshotTS uint64

	// fold is set on results subscribed to a fan-out group (they complete
	// via their lead's fan-out, not a generation); abandoned marks a
	// cancelled waiter whose queued request should vacate at the next batch
	// formation.
	fold      *fanout
	abandoned atomic.Bool
	// hook, when set (NewHookedResult), is called once by complete.
	hook CompletionHook
}

// Wait blocks until the result is ready and returns its error.
func (r *Result) Wait() error {
	<-r.done
	return r.Err
}

// Done exposes the completion channel.
func (r *Result) Done() <-chan struct{} { return r.done }

// New creates an engine over db and global plan gp and starts its heartbeat
// loop and the plan's operator goroutines.
func New(db *storage.Database, gp *plan.GlobalPlan, cfg Config) *Engine {
	e := &Engine{db: db, plan: gp, cfg: cfg, loopDone: make(chan struct{})}
	e.maxInFlight = cfg.MaxInFlightGenerations
	if e.maxInFlight == 0 {
		e.maxInFlight = DefaultMaxInFlightGenerations
	} else if e.maxInFlight < 0 {
		e.maxInFlight = 1
	}
	e.adm = newAdmission(cfg)
	if !cfg.NoFold {
		e.foldIdx = make(map[uint64][]*Request)
	}
	e.cond = sync.NewCond(&e.mu)
	gp.Start()
	go e.loop()
	return e
}

// Close stops the heartbeat loop, waits for in-flight generations to drain
// (their waiters receive real results), and stops the operator goroutines.
// Pending requests that never made it into a generation are failed.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.stopped {
		e.mu.Unlock()
		return
	}
	e.stopped = true
	pending := e.pending
	e.pending = nil
	e.cond.Broadcast()
	e.mu.Unlock()
	failRequests(pending)
	<-e.loopDone
	// Wait out in-flight generations AND preparers: stopping the operator
	// goroutines while either is touching the plan would strand them.
	e.mu.Lock()
	for e.inFlight > 0 || e.preparers > 0 {
		e.cond.Wait()
	}
	subs := e.subs
	e.subs = nil
	e.mu.Unlock()
	for _, s := range subs {
		s.Close()
	}
	e.plan.Stop()
}

func failRequests(reqs []*Request) {
	for _, r := range reqs {
		r.Result.complete(errEngineClosed)
		if r.fold != nil {
			r.fold.complete(r.Result)
		}
	}
}

// Stats reports the engine's typed counter snapshot.
func (e *Engine) Stats() dbapi.Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	active := 0
	for _, sub := range e.subs {
		if !sub.isClosed() {
			active++
		}
	}
	return dbapi.Stats{
		Generations:         e.generations,
		QueriesRun:          e.queriesRun,
		WritesApplied:       e.writesRun,
		FoldedQueries:       e.folded,
		InFlightGenerations: e.inFlight,
		QueueDepth:          len(e.pending) + e.reserved,
		Shed:                e.adm.shed,
		Rejected:            e.adm.rejected,
		BreakerTrips:        e.adm.trips,
		SubscriptionsActive: active,
		SubscriptionUpdates: e.subUpdates.Load(),
	}
}

// InFlightGenerations reports the pipeline gauge: how many generations are
// currently dispatched but not yet complete, and the peak observed since
// the engine started. peak > 1 is the observable signature of pipelined
// execution (it stays at 1 when MaxInFlightGenerations is 1).
func (e *Engine) InFlightGenerations() (current, peak int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.inFlight, e.peakInFlight
}

// Database returns the underlying storage.
func (e *Engine) Database() *storage.Database { return e.db }

// Plan returns the global plan.
func (e *Engine) Plan() *plan.GlobalPlan { return e.plan }

// Submit enqueues a request for the next generation. With admission limits
// configured the request may be rejected immediately: the Result completes
// with a *OverloadError (errors.Is(err, ErrOverloaded)) without entering
// the queue. A read identical to a pending one returns a result subscribed
// to the pending request instead of queueing.
func (e *Engine) Submit(stmt *plan.Statement, params []types.Value) *Result {
	return e.SubmitCall(Call{Stmt: stmt, Params: params})
}

// SubmitCall is Submit completing the call's own Result when it carries one
// (the shard router passes its caller's result down to the owning shard).
func (e *Engine) SubmitCall(c Call) *Result {
	req := &Request{}
	e.initRequest(req, c)
	return e.enqueue(req, false)
}

// SubmitBatch enqueues a burst under one lock acquisition and one dispatcher
// wake-up. The calls enter the queue — and the fold index — in order, so a
// burst's duplicates fold against each other, and the dispatcher, which
// cannot form a batch while the lock is held, drafts the whole burst into
// one generation.
func (e *Engine) SubmitBatch(calls []Call) {
	// One slab for the burst's queue entries: a burst's requests are drafted
	// together, so they die together.
	reqs := make([]Request, len(calls))
	for i := range calls {
		e.initRequest(&reqs[i], calls[i])
		calls[i].Result = reqs[i].Result
	}
	// Rejections complete after the lock is released: completion runs the
	// caller's hook.
	type rejection struct {
		res *Result
		err error
	}
	var rejected []rejection
	queued := false
	e.mu.Lock()
	for i := range reqs {
		q, err := e.enqueueLocked(&reqs[i], false)
		if err != nil {
			rejected = append(rejected, rejection{reqs[i].Result, err})
		}
		queued = queued || q
	}
	if queued {
		e.cond.Broadcast()
	}
	e.mu.Unlock()
	for _, r := range rejected {
		r.res.complete(r.err)
	}
}

// initRequest fills in the queue entry for one statement call, computing
// the fold fingerprint of a foldable read outside the engine lock.
func (e *Engine) initRequest(req *Request, c Call) {
	if c.Result == nil {
		c.Result = NewPendingResult()
	}
	req.Stmt, req.Params, req.Result = c.Stmt, c.Params, c.Result
	if e.foldIdx != nil && c.Stmt != nil && !c.Stmt.IsWrite() {
		req.foldable = true
		req.fp = foldFingerprint(c.Stmt.ID, c.Params)
	}
}

// AdmitReserve runs the admission check for one future commit and, on
// success, reserves its queue slot (counted against QueueDepthLimit) until
// SubmitTxReserved consumes it or AdmitRelease returns it. The shard router
// reserves on every shard of a commit group before enqueueing on any, so
// partial admission can never diverge replicated copies. Commits skip the
// breaker and the quota: only the queue-depth check applies.
func (e *Engine) AdmitReserve() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stopped {
		return errEngineClosed
	}
	if err := e.adm.admit(nil, len(e.pending)+e.reserved); err != nil {
		return err
	}
	e.reserved++
	return nil
}

// AdmitRelease returns an unused AdmitReserve reservation.
func (e *Engine) AdmitRelease() {
	e.mu.Lock()
	if e.reserved > 0 {
		e.reserved--
	}
	e.mu.Unlock()
}

// SubmitTx enqueues a transaction commit for the next generation. The
// transaction must come from this engine's BeginTx (or its database's
// Begin); foreign Tx implementations fail immediately.
func (e *Engine) SubmitTx(tx Tx) *Result {
	stx, ok := tx.(*storage.Tx)
	if !ok {
		res := NewPendingResult()
		res.Complete(errNotStorageTx)
		return res
	}
	req := &Request{Tx: stx, Result: NewPendingResult()}
	return e.enqueue(req, false)
}

// SubmitTxReserved is SubmitTx consuming an AdmitReserve reservation (the
// shard router's commit-group path: transaction groups and broadcast
// writes).
func (e *Engine) SubmitTxReserved(tx Tx) *Result {
	stx, ok := tx.(*storage.Tx)
	if !ok {
		e.AdmitRelease()
		res := NewPendingResult()
		res.Complete(errNotStorageTx)
		return res
	}
	req := &Request{Tx: stx, Result: NewPendingResult()}
	return e.enqueue(req, true)
}

// enqueue is enqueueLocked for one request: lock, enqueue, wake the
// dispatcher, and complete a rejection once the lock is released.
func (e *Engine) enqueue(req *Request, reserved bool) *Result {
	e.mu.Lock()
	queued, err := e.enqueueLocked(req, reserved)
	if queued {
		e.cond.Broadcast()
	}
	e.mu.Unlock()
	if err != nil {
		req.Result.complete(err)
	}
	return req.Result
}

// enqueueLocked admits (or, for the reserved path, consumes the reservation
// of) one request and appends it to the pending queue (e.mu held). Foldable
// requests first try to collapse into a pending duplicate — a fold hit
// neither queues nor touches admission (the lead already paid for both). A
// non-nil error is a rejection: the caller completes req.Result with it
// after releasing e.mu.
func (e *Engine) enqueueLocked(req *Request, reserved bool) (queued bool, err error) {
	if reserved && e.reserved > 0 {
		e.reserved--
	}
	if e.stopped {
		return false, errEngineClosed
	}
	if req.foldable && e.tryFold(req) {
		return false, nil
	}
	if !reserved {
		if err := e.adm.admit(req.Stmt, len(e.pending)+e.reserved); err != nil {
			return false, err
		}
	}
	e.pending = append(e.pending, req)
	if req.foldable {
		e.foldIdx[req.fp] = append(e.foldIdx[req.fp], req)
	}
	return true, nil
}

// tryFold collapses req into a pending identical lead, subscribing
// req.Result to it. Called with e.mu held; false means req must queue as its
// own lead.
func (e *Engine) tryFold(req *Request) bool {
	for _, lead := range e.foldIdx[req.fp] {
		// Value == is bit identity, stricter than Value.Equal: INT 1 and
		// FLOAT 1.0, or -0.0 and 0.0, project differently and must not fold.
		if lead.Stmt != req.Stmt || !slices.Equal(lead.Params, req.Params) {
			continue
		}
		if lead.fold == nil {
			lead.fold = &fanout{}
		}
		if !lead.fold.attach(req.Result) {
			continue
		}
		e.folded++
		return true
	}
	return false
}

// loop is the heartbeat dispatcher: wait for work and pace, form the next
// generation and dispatch it, then move straight on while up to maxInFlight
// read phases overlap in the always-on plan.
func (e *Engine) loop() {
	defer close(e.loopDone)
	var lastStart time.Time
	for {
		e.mu.Lock()
		if !e.awaitDispatchLocked(lastStart) {
			pending := e.pending
			e.pending = nil
			e.mu.Unlock()
			failRequests(pending)
			return
		}
		g := e.formLocked()
		e.mu.Unlock()
		g.dispatch()
		lastStart = g.start
		// Pipeline fairness: when read phases are in flight, yield the
		// processor before forming the next generation so operator
		// goroutines get scheduled promptly. This is load-bearing on
		// single-core machines despite Go's async preemption — preemption
		// caps a goroutine's quantum but does not prioritize the waiting
		// operator goroutines over a hot dispatcher/writer loop; measured
		// on a 1-CPU host, removing this yield inflates read latency under
		// a saturating write stream by ~3 orders of magnitude (seconds per
		// query).
		e.mu.Lock()
		reading := e.inFlight > 0
		e.mu.Unlock()
		if reading {
			runtime.Gosched()
		}
	}
}

// awaitDispatchLocked blocks (e.mu held) until a generation may form: work
// is queued or a new subscription kicked, the pipeline has a free slot, no
// Prepare is waiting, and the heartbeat since lastStart has elapsed — pacing
// gives late arrivals a chance to join the batch. The sleep releases the
// lock, so the conditions are checked again after it: a Prepare or a full
// pipeline that arose meanwhile must hold dispatch. False means the engine
// stopped.
func (e *Engine) awaitDispatchLocked(lastStart time.Time) bool {
	for {
		for !e.stopped && ((len(e.pending) == 0 && !e.subsKick) || e.inFlight >= e.maxInFlight || e.preparers > 0) {
			e.cond.Wait()
		}
		if e.stopped {
			return false
		}
		if e.cfg.Heartbeat <= 0 {
			return true
		}
		wait := e.cfg.Heartbeat - time.Since(lastStart)
		if wait <= 0 {
			return true
		}
		e.mu.Unlock()
		time.Sleep(wait)
		e.mu.Lock()
	}
}

// formLocked is the form stage (e.mu held): it drafts the next generation
// from the pending queue and admits it to the pipeline.
func (e *Engine) formLocked() *generation {
	g := &generation{e: e}
	// Cancelled submissions (Result.Abandon via the context API) vacate the
	// queue before formation: they were never dispatched, so dropping them
	// frees their queue-depth slot without touching any generation. A lead
	// with fold subscribers left still runs — they need its result.
	for _, r := range e.pending {
		if r.Result.abandoned.Load() {
			g.dropped = e.vacateAbandonedLocked()
			break
		}
	}
	// Per-statement quotas and the SLO-predicted size cap shed the excess
	// back to the queue, arrival order preserved.
	g.batch, e.pending = e.adm.formBatch(e.pending)
	// The fold window closes at batch formation: a drafted request's
	// snapshot is about to pin, so it stops accepting subscribers. Shed
	// requests stay foldable — a subscriber attached to a shed lead simply
	// rides to the lead's later generation.
	if e.foldIdx != nil {
		clear(e.foldIdx)
		for _, r := range e.pending {
			if r.foldable {
				e.foldIdx[r.fp] = append(e.foldIdx[r.fp], r)
			}
		}
	}
	e.subsKick = false
	g.subs = e.activeSubsLocked()
	e.gen++
	g.id = e.gen
	e.generations++
	e.inFlight++
	e.peakInFlight = max(e.peakInFlight, e.inFlight)
	return g
}

// vacateAbandonedLocked removes the abandoned requests from the pending
// queue and returns them (e.mu held). A lead whose fold group still has
// subscribers stays: they need its result. The group is judged once per
// request — a subscriber may detach concurrently, and a request must end up
// in exactly one of the two lists.
func (e *Engine) vacateAbandonedLocked() (dropped []*Request) {
	kept := e.pending[:0]
	for _, r := range e.pending {
		if r.Result.abandoned.Load() && (r.fold == nil || r.fold.empty()) {
			dropped = append(dropped, r)
		} else {
			kept = append(kept, r)
		}
	}
	clear(e.pending[len(kept):])
	e.pending = kept
	return dropped
}

// generationDone frees a generation's pipeline slot and wakes the dispatcher
// and any waiting Prepare (generation.retire is its one caller).
func (e *Engine) generationDone() {
	e.mu.Lock()
	e.inFlight--
	e.cond.Broadcast()
	e.mu.Unlock()
}

// Prepare registers a statement in the global plan, once per SQL text: a
// text the plan has registered returns its statement without touching the
// pipeline. Registering a new text mutates the operator DAG, which must not
// happen while any generation is traversing it — so Prepare blocks new
// dispatches and waits until the pipeline has drained (the ad-hoc query
// path of §3.2, now a pipeline quiesce instead of a between-generations
// slot). Only the first sighting of a text stalls.
func (e *Engine) Prepare(sqlText string) (*plan.Statement, error) {
	if s := e.plan.Registered(sqlText); s != nil {
		return s, nil
	}
	return e.prepare(sqlText, nil)
}

// PrepareParsed registers an already-parsed statement, with the same
// pipeline quiesce as Prepare but no registry: every call compiles a new
// statement. The shard router uses it to install partial (rewritten)
// statements without rendering them back to SQL.
func (e *Engine) PrepareParsed(sqlText string, ast sql.Statement) (*plan.Statement, error) {
	return e.prepare(sqlText, ast)
}

func (e *Engine) prepare(sqlText string, ast sql.Statement) (*plan.Statement, error) {
	e.mu.Lock()
	e.preparers++
	for e.inFlight > 0 && !e.stopped {
		e.cond.Wait()
	}
	if e.stopped {
		// Close is (or will be) stopping the plan's operator goroutines;
		// mutating the DAG now would start nodes nothing ever stops.
		e.preparers--
		e.cond.Broadcast()
		e.mu.Unlock()
		return nil, errEngineClosed
	}
	e.mu.Unlock()
	var stmt *plan.Statement
	var err error
	if ast != nil {
		stmt, err = e.plan.PrepareParsed(sqlText, ast)
	} else {
		stmt, err = e.plan.Prepare(sqlText)
	}
	e.mu.Lock()
	e.preparers--
	e.cond.Broadcast()
	e.mu.Unlock()
	return stmt, err
}

// BindWriteForTx turns a bound write plan plus parameters into a storage
// op, for the write stage, the transaction API and the shard router's
// broadcast writes: parameters are substituted so the storage layer can
// resolve targets by value (index selection, predicate indexing).
func BindWriteForTx(wp *sql.WritePlan, params []types.Value) (storage.WriteOp, error) {
	switch wp.Kind {
	case sql.WriteInsert:
		row := make(types.Row, len(wp.Values))
		for i, v := range wp.Values {
			row[i] = v.Eval(nil, params)
		}
		return storage.WriteOp{Table: wp.Table, Kind: storage.WInsert, Row: row}, nil
	case sql.WriteUpdate:
		set := make([]storage.ColSet, len(wp.Set))
		for i, sc := range wp.Set {
			set[i] = storage.ColSet{Col: sc.Col, Val: expr.Bind(sc.Val, params)}
		}
		return storage.WriteOp{Table: wp.Table, Kind: storage.WUpdate,
			Pred: expr.Bind(wp.Pred, params), Set: set}, nil
	case sql.WriteDelete:
		return storage.WriteOp{Table: wp.Table, Kind: storage.WDelete,
			Pred: expr.Bind(wp.Pred, params)}, nil
	default:
		return storage.WriteOp{}, fmt.Errorf("core: unknown write kind %d", wp.Kind)
	}
}
