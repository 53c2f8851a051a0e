// Package core implements the SharedDB engine: the batch-oriented execution
// loop that the paper describes as a blood circulation (§3.2): "With every
// heartbeat, tuples are pushed through the global query plan in order to
// process the next generation of queries and updates. While one batch of
// queries and updates is processed, newly arriving queries and updates are
// queued. When the current batch ... has been processed, then the queues
// are emptied in order to form the next batch."
//
// Each generation: (1) the batch's updates are applied in arrival order and
// a new snapshot is published (Crescando semantics), (2) the batch's reads
// run together through the always-on global plan at that snapshot, (3)
// results are routed back to the waiting clients.
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
	"sync"
	"sync/atomic"
	"time"

	"shareddb/internal/expr"
	"shareddb/internal/operators"
	"shareddb/internal/par"
	"shareddb/internal/plan"
	"shareddb/internal/queryset"
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
	// MaxBatch caps the number of requests drained into one generation
	// (0 = unlimited).
	MaxBatch int
	// MaxInFlightGenerations bounds how many generations may execute
	// concurrently. 1 restores strictly serial generations (the classic
	// generation barrier); 0 selects DefaultMaxInFlightGenerations.
	// Negative values are rejected by Config.Validate (the public API
	// path); New clamps them to 1 as a backstop. Write phases always
	// apply in generation order regardless of this setting; only read
	// phases overlap.
	MaxInFlightGenerations int
	// Workers is the scan parallelism budget per generation cycle: the
	// partitioned ClockScan (row or columnar, including the columnar
	// aggregation feed) splits each table scan into that many contiguous
	// row ranges; joins, sorts and group-bys always run one Finish on
	// their node's goroutine. 0 selects GOMAXPROCS (one worker per core,
	// the paper's Crescando setup); 1 is a strictly serial scan
	// (negative values are rejected by Config.Validate; New clamps them
	// to serial as a backstop). Per-query results are identical at any
	// setting.
	Workers int

	// MaxGenerationDelay is the per-generation latency SLO (the paper's
	// response-time limit): batch formation caps each generation at the
	// size predicted — from an EWMA of observed per-request cycle cost —
	// to finish within it, and the slow-query circuit breaker quarantines
	// statements whose generations repeatedly exceed it. 0 disables both;
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
	// BreakerStrikes is how many consecutive over-SLO generations
	// containing a statement trip its slow-query breaker (0 selects
	// DefaultBreakerStrikes; requires MaxGenerationDelay > 0).
	BreakerStrikes int
	// BreakerCooldown is how long a tripped statement stays quarantined
	// before a half-open probe is admitted (0 selects 8×MaxGenerationDelay;
	// requires MaxGenerationDelay > 0).
	BreakerCooldown time.Duration

	// FoldSubsume lets a pending parameter-free simple scan serve
	// equality-restriction duplicates of itself via residual filters, where
	// expression analysis proves the scan's output covers the duplicate's
	// predicate and projection. It extends result folding, which is always
	// on: a read submission identical to a pending one (same SQL text,
	// bit-identical parameters) attaches to the pending request's result
	// instead of occupying its own queue slot and query-set activation,
	// and is charged once — by its lead — against
	// QueueDepthLimit/StatementQuota and the cost EWMA. Writes and
	// transaction commits never fold.
	FoldSubsume bool
	// SubscriptionBuffer is the per-subscription update channel capacity
	// (0 selects DefaultSubscriptionBuffer). A subscriber that falls more
	// than a full buffer behind is marked lagged and receives a full resync
	// as its next delivery; generations never block on slow subscribers.
	// Negative values are rejected by Config.Validate.
	SubscriptionBuffer int

	// Reference switches. The zero value is the production path: shared
	// scans and direct-scan group-bys read the columnar mirror, and
	// identical concurrent reads fold. Each switch selects the reference
	// implementation the production path must stay bit-identical to; they
	// exist for the differential suites and cmd/microbench's reference
	// records and are deliberately not on shareddb.Config or any
	// command-line flag.
	//
	// RowScan runs shared scans as row-store ClockScans and feeds every
	// group-by from its scan stream. NoFold queues every read as its own
	// activation.
	RowScan bool
	NoFold  bool
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

	workers int        // resolved Config.Workers (immutable after New)
	adm     *admission // admission controller; nil when every limit is zero

	// Cost attribution (nil unless the SLO breaker is on): per-generation
	// records filled by the plan's cost observer from operator goroutines,
	// consumed by the generation's completion callback. Guarded by costMu —
	// deliberately separate from mu, which the observer must never touch
	// (operator goroutines report while the dispatcher holds mu elsewhere).
	costMu   sync.Mutex
	genCosts map[uint64]*genCostRec
	// reserved counts queue slots handed out by AdmitReserve but not yet
	// consumed by SubmitReserved/SubmitTxReserved (the shard router's
	// all-or-nothing broadcast admission). Guarded by mu; counted against
	// QueueDepthLimit alongside len(pending).
	reserved int

	// pipeline state, guarded by mu
	maxInFlight  int // resolved MaxInFlightGenerations
	inFlight     int // generations dispatched but not yet complete
	peakInFlight int // high-water mark of inFlight
	preparers    int // Prepare calls waiting for / holding plan quiescence
	loopDone     chan struct{}

	// Fold state, guarded by mu. The indexes cover exactly the foldable
	// requests currently in pending (the fold window); both are rebuilt
	// from the shed remainder after every batch formation. nil under
	// Config.NoFold.
	foldIdx    map[uint64][]*Request // fingerprint → pending fold leads
	subsumeIdx map[string][]*Request // table → pending full-scan leads

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
	subsumed    uint64 // of those, served through a subsumption transform
	subUpdates  uint64 // subscription updates handed to subscribers
}

// Request is one enqueued statement execution (or transaction commit).
type Request struct {
	Stmt   *plan.Statement
	Params []types.Value
	Tx     *storage.Tx // non-nil for transaction commits

	Result *Result

	// Fold state: fp is the fold fingerprint (computed once at Submit when
	// foldable), fold the fan-out group duplicates have attached to (nil
	// until the first fold), hooks the dispatch hooks to fire when this
	// request's generation forms (SubmitHooked; folded requests transfer
	// their hooks to the lead).
	fp       uint64
	foldable bool
	fold     *Fanout
	hooks    []func()
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
	// via Fanout.Complete, not a generation); abandoned marks a cancelled
	// waiter whose queued request should vacate at the next batch formation.
	fold      *Fanout
	abandoned atomic.Bool
	// hook, when set (NewHookedResult), is called once by complete.
	hook CompletionHook

	distinctSeen map[string]bool
	slab         rowSlab // backs Rows while the sink assembles them
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
	e.workers = par.Resolve(cfg.Workers)
	e.adm = newAdmission(cfg)
	if !cfg.NoFold {
		e.foldIdx = make(map[uint64][]*Request)
		if cfg.FoldSubsume {
			e.subsumeIdx = make(map[string][]*Request)
		}
	}
	gp.SetWorkers(e.workers)
	gp.SetColumnar(!cfg.RowScan)
	if e.adm != nil && e.adm.maxDelay > 0 {
		// The slow-query breaker is on: attribute operator cycle time to
		// statements so blame lands on the plan that burned the cycles.
		e.genCosts = make(map[uint64]*genCostRec)
		gp.SetCostObserver(e.observeCost)
	}
	e.cond = sync.NewCond(&e.mu)
	gp.Start()
	go e.loop()
	return e
}

// Workers reports the resolved scan parallelism budget.
func (e *Engine) Workers() int { return e.workers }

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

// genCostRec accumulates one generation's attributed operator time: each
// node cycle's active nanoseconds split equally across the cycle's tasks and
// summed per statement SQL (the breaker's identity).
type genCostRec struct {
	qidSQL map[queryset.QueryID]string
	ns     map[string]int64
}

// observeCost is the plan's cost-attribution hook (plan.SetCostObserver),
// called from operator goroutines as each node drains a generation. Every
// node reports before its EOS propagates downstream, so by the time the
// generation's sink completion callback runs, the record is final.
func (e *Engine) observeCost(gen uint64, tasks []operators.Task, activeNs int64) {
	if activeNs <= 0 || len(tasks) == 0 {
		return
	}
	// Equal split across the cycle's active queries: a shared operator does
	// one pass of work for all of them, and finer attribution (per-tuple
	// query-set accounting) would tax the hot path it is trying to protect.
	share := activeNs / int64(len(tasks))
	if share <= 0 {
		return
	}
	e.costMu.Lock()
	if rec := e.genCosts[gen]; rec != nil {
		for _, t := range tasks {
			if sql := rec.qidSQL[t.Query]; sql != "" {
				rec.ns[sql] += share
			}
		}
	}
	e.costMu.Unlock()
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
func (e *Engine) Stats() EngineStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	active := 0
	for _, sub := range e.subs {
		if !sub.isClosed() {
			active++
		}
	}
	s := EngineStats{
		Generations:         e.generations,
		QueriesRun:          e.queriesRun,
		WritesRun:           e.writesRun,
		FoldedQueries:       e.folded,
		SubsumedQueries:     e.subsumed,
		SubscriptionsActive: active,
		SubscriptionUpdates: e.subUpdates,
		InFlight:            e.inFlight,
		PeakInFlight:        e.peakInFlight,
		Admission:           AdmissionStats{QueueDepth: len(e.pending) + e.reserved},
	}
	if e.adm != nil {
		s.Admission.Shed = e.adm.shed
		s.Admission.Rejected = e.adm.rejected
		s.Admission.BreakerTrips = e.adm.trips
	}
	return s
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
	return e.SubmitHooked(Call{Stmt: stmt, Params: params}, nil)
}

// SubmitHooked submits one call with an optional dispatch hook: fn runs on
// the dispatcher goroutine right after the generation containing the
// request forms — before the generation's writes apply or its read snapshot
// pins. When the submission folds into a pending lead the hook transfers to
// the lead, so it still fires when the generation that answers this
// submission dispatches. The shard router uses the hook to close its
// cross-shard fold window at the earliest shard's batch formation.
func (e *Engine) SubmitHooked(c Call, fn func()) *Result {
	req := &Request{}
	e.initRequest(req, c)
	if fn != nil {
		req.hooks = append(req.hooks, fn)
	}
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
		req.fp = FoldFingerprint(c.Stmt.SQL, c.Params)
	}
}

// SubmitReserved is Submit for a request whose admission was already
// decided by AdmitReserve: it consumes one reservation and skips the
// admission checks (the shard router's all-or-nothing broadcast path).
// Reserved submissions never fold — the router reserves only for writes,
// whose per-shard application must be real on every shard.
func (e *Engine) SubmitReserved(stmt *plan.Statement, params []types.Value) *Result {
	req := &Request{Stmt: stmt, Params: params, Result: NewPendingResult()}
	return e.enqueue(req, true)
}

// AdmitReserve runs the admission checks for one future submission and, on
// success, reserves its queue slot (counted against QueueDepthLimit) until
// SubmitReserved/SubmitTxReserved consumes it or AdmitRelease returns it.
// The shard router reserves on every shard before enqueueing a broadcast
// write anywhere, so partial admission can never diverge replicated copies.
// stmt may be nil (transaction commits): only the queue-depth check applies.
func (e *Engine) AdmitReserve(stmt *plan.Statement) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stopped {
		return errEngineClosed
	}
	if e.adm != nil {
		if err := e.adm.admit(stmt, len(e.pending)+e.reserved); err != nil {
			return err
		}
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

// AdmitStatement reports whether a statement with the given SQL text would
// be rejected by the slow-query breaker right now, without preparing or
// submitting anything. The ad-hoc path (DB.Prepare/DB.Query) calls it
// before Prepare: Prepare quiesces the generation pipeline, so a
// quarantined statement's retries must fail fast here instead of draining
// in-flight generations on every attempt. It is a peek, not a reservation —
// the authoritative check (which consumes the half-open probe slot) still
// runs at Submit.
func (e *Engine) AdmitStatement(sqlText string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.adm == nil {
		return nil
	}
	if err := e.adm.peekBreaker(sqlText); err != nil {
		e.adm.rejected++
		return err
	}
	return nil
}

// AdmissionStats reports the admission controller's counters (zero values
// when admission is disabled).
func (e *Engine) AdmissionStats() AdmissionStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := AdmissionStats{QueueDepth: len(e.pending) + e.reserved}
	if e.adm != nil {
		s.Shed = e.adm.shed
		s.Rejected = e.adm.rejected
		s.BreakerTrips = e.adm.trips
	}
	return s
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
// shard router's transaction-group commit path).
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
	if !reserved && e.adm != nil {
		if err := e.adm.admit(req.Stmt, len(e.pending)+e.reserved); err != nil {
			return false, err
		}
	}
	e.pending = append(e.pending, req)
	if req.foldable {
		e.indexFoldLead(req)
	}
	return true, nil
}

// tryFold collapses req into a pending identical (or, with FoldSubsume,
// subsuming) lead, subscribing req.Result to it. Called with e.mu held; false
// means req must queue as its own lead.
func (e *Engine) tryFold(req *Request) bool {
	for _, lead := range e.foldIdx[req.fp] {
		if lead.Stmt.SQL != req.Stmt.SQL || !IdenticalParams(lead.Params, req.Params) {
			continue
		}
		if lead.fold == nil {
			lead.fold = &Fanout{}
		}
		if !lead.fold.attach(req.Result, nil) {
			continue
		}
		lead.hooks = append(lead.hooks, req.hooks...)
		e.folded++
		return true
	}
	if e.subsumeIdx != nil && req.Stmt.FoldTable != "" && req.Stmt.FoldPred != nil {
		for _, lead := range e.subsumeIdx[req.Stmt.FoldTable] {
			tr := buildFoldTransform(lead.Stmt, req.Stmt, req.Params)
			if tr == nil {
				continue
			}
			if lead.fold == nil {
				lead.fold = &Fanout{}
			}
			if !lead.fold.attach(req.Result, tr) {
				continue
			}
			lead.hooks = append(lead.hooks, req.hooks...)
			e.folded++
			e.subsumed++
			return true
		}
	}
	return false
}

// indexFoldLead registers a newly queued foldable request as a fold target
// (e.mu held). Parameter-free simple scans additionally become subsumption
// leads.
func (e *Engine) indexFoldLead(req *Request) {
	e.foldIdx[req.fp] = append(e.foldIdx[req.fp], req)
	if e.subsumeIdx != nil && req.Stmt.FoldTable != "" && req.Stmt.FoldPred == nil {
		e.subsumeIdx[req.Stmt.FoldTable] = append(e.subsumeIdx[req.Stmt.FoldTable], req)
	}
}

// loop is the heartbeat dispatcher: drain the queue, apply the generation's
// writes in order, launch its read phase, and — unlike the serial engine —
// move straight on to the next generation while up to maxInFlight read
// phases overlap in the always-on plan.
func (e *Engine) loop() {
	defer close(e.loopDone)
	lastStart := time.Time{}
	for {
		e.mu.Lock()
		for {
			for !e.stopped && ((len(e.pending) == 0 && !e.subsKick) || e.inFlight >= e.maxInFlight || e.preparers > 0) {
				e.cond.Wait()
			}
			if e.stopped {
				break
			}
			// Heartbeat pacing: give late arrivals a chance to join the
			// batch. The admission check reruns after the sleep — a Prepare
			// or a full pipeline that arose meanwhile must hold dispatch.
			if e.cfg.Heartbeat > 0 {
				if wait := e.cfg.Heartbeat - time.Since(lastStart); wait > 0 {
					e.mu.Unlock()
					time.Sleep(wait)
					e.mu.Lock()
					continue
				}
			}
			break
		}
		if e.stopped {
			pending := e.pending
			e.pending = nil
			e.mu.Unlock()
			failRequests(pending)
			return
		}
		// Cancelled submissions (Result.Abandon via the context API) vacate
		// the queue here, before formation: they were never dispatched, so
		// dropping them frees their queue-depth slot without touching any
		// generation. A lead with fold subscribers left still runs — they
		// need its result.
		var dropped []*Request
		for _, r := range e.pending {
			if r.Result.abandoned.Load() {
				dropped = e.vacateAbandonedLocked()
				break
			}
		}
		batch := e.pending
		if e.adm != nil {
			// Admission-controlled batch formation: per-statement quotas
			// and the SLO-predicted size cap shed excess back to the queue
			// (arrival order preserved); MaxBatch composes inside.
			batch, e.pending = e.adm.formBatch(batch, e.cfg.MaxBatch)
		} else if e.cfg.MaxBatch > 0 && len(batch) > e.cfg.MaxBatch {
			e.pending = batch[e.cfg.MaxBatch:]
			batch = batch[:e.cfg.MaxBatch]
		} else {
			e.pending = nil
		}
		// The fold window closes at batch formation: a drafted request's
		// snapshot is about to pin, so it stops accepting subscribers.
		// Shed requests stay foldable — a subscriber attached to a shed
		// lead simply rides to the lead's later generation.
		if e.foldIdx != nil {
			clear(e.foldIdx)
			if e.subsumeIdx != nil {
				clear(e.subsumeIdx)
			}
			for _, r := range e.pending {
				if r.foldable {
					e.indexFoldLead(r)
				}
			}
		}
		e.subsKick = false
		subs := e.activeSubsLocked()
		e.gen++
		gen := e.gen
		e.generations++
		e.inFlight++
		if e.inFlight > e.peakInFlight {
			e.peakInFlight = e.inFlight
		}
		e.mu.Unlock()

		for _, r := range dropped {
			r.Result.complete(errRequestAbandoned)
		}
		// Dispatch hooks fire after formation but before any of the
		// generation's effects (write apply, snapshot pin) — the shard
		// router's fold-window close point.
		for _, r := range batch {
			for _, h := range r.hooks {
				h()
			}
			r.hooks = nil
		}
		lastStart = time.Now()
		e.dispatchGeneration(gen, batch, subs)
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

// generationDone retires one generation from the pipeline.
func (e *Engine) generationDone() {
	e.mu.Lock()
	e.inFlight--
	e.cond.Broadcast()
	e.mu.Unlock()
}

// Prepare registers a statement in the global plan. Registration mutates
// the operator DAG, which must not happen while any generation is
// traversing it — so Prepare blocks new dispatches and waits until the
// pipeline has drained (the ad-hoc query path of §3.2, now a pipeline
// quiesce instead of a between-generations slot).
func (e *Engine) Prepare(sqlText string) (*plan.Statement, error) {
	return e.prepare(sqlText, nil)
}

// PrepareParsed registers an already-parsed statement, with the same
// pipeline quiesce as Prepare. The shard router uses it to install partial
// (rewritten) statements without rendering them back to SQL.
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

// dispatchGeneration runs one batch of queries and updates. The write phase
// executes synchronously on the dispatcher goroutine — generation order IS
// write order. The read phase is launched into the plan and completes
// asynchronously; generationDone retires the generation. subs are the
// generation's standing queries: they activate with the leading dense query
// ids (stable across generations while the subscription set is stable) and
// force a read phase even for write-only batches.
func (e *Engine) dispatchGeneration(gen uint64, batch []*Request, subs []*Subscription) {
	// Admission feedback needs the generation's cycle time (dispatch start
	// to read-phase completion); only measured when admission is on.
	var admStart time.Time
	if e.adm != nil {
		admStart = time.Now()
	}
	// Phase 1: writes, in arrival order. Standalone write statements apply
	// with Crescando semantics (later ops see earlier ones); transaction
	// commits follow with snapshot-isolation validation.
	var writeReqs []*Request
	var writeOps []storage.WriteOp
	var txReqs []*Request
	var txs []*storage.Tx
	var readReqs []*Request

	for _, r := range batch {
		switch {
		case r.Tx != nil:
			txReqs = append(txReqs, r)
			txs = append(txs, r.Tx)
		case r.Stmt != nil && r.Stmt.IsWrite():
			op, err := bindWrite(r.Stmt.Write, r.Params)
			if err != nil {
				r.Result.complete(err)
				continue
			}
			writeReqs = append(writeReqs, r)
			writeOps = append(writeOps, op)
		default:
			readReqs = append(readReqs, r)
		}
	}

	// Stats and pipeline bookkeeping update BEFORE the done channels close:
	// a client returning from Result.Wait must observe its own work in
	// Stats()/InFlightGenerations(). For a write-only generation the last
	// completion below also retires the generation before notifying.
	hasReads := len(readReqs) > 0 || len(subs) > 0
	if len(writeOps) > 0 {
		results, commitTS := e.db.ApplyOps(writeOps)
		e.mu.Lock()
		e.writesRun += uint64(len(writeOps))
		e.mu.Unlock()
		if !hasReads && len(txs) == 0 {
			e.generationDone()
		}
		for i, res := range results {
			writeReqs[i].Result.RowsAffected = res.RowsAffected
			writeReqs[i].Result.SnapshotTS = commitTS
			writeReqs[i].Result.complete(res.Err)
		}
	}
	if len(txs) > 0 {
		commitTS, errs := e.db.CommitTxBatch(txs)
		e.mu.Lock()
		e.writesRun += uint64(len(txs))
		e.mu.Unlock()
		if !hasReads {
			e.generationDone()
		}
		for i, err := range errs {
			txReqs[i].Result.SnapshotTS = commitTS
			txReqs[i].Result.complete(err)
		}
	}

	// Phase 2: reads at the post-write snapshot. Query ids are generation-
	// scoped (small dense ints); isolation between overlapping generations
	// comes from generation-tagged routing, not from the id space.
	if !hasReads {
		if len(writeOps) == 0 && len(txs) == 0 {
			e.generationDone()
		}
		// Write-only generations feed the cost EWMA too (no statements —
		// the breaker only judges read plans): without this, a pure-write
		// burst would leave costNs at zero and the SLO batch cap blind.
		if e.adm != nil {
			e.mu.Lock()
			e.adm.recordGeneration(nil, time.Since(admStart), len(batch))
			e.mu.Unlock()
		}
		return
	}
	ts := e.db.PinCurrentSnapshot()
	// The breaker blames generations, not operators: collect the distinct
	// read statements so the completion callback can strike (or reset)
	// each one against the observed cycle time. Distinctness is by SQL
	// text — the breaker's identity — so two ad-hoc prepares of the same
	// statement in one generation strike once, not twice.
	var admStmts []*plan.Statement
	if e.adm != nil {
		seen := make(map[string]bool, len(readReqs))
		for _, r := range readReqs {
			if !seen[r.Stmt.SQL] {
				seen[r.Stmt.SQL] = true
				admStmts = append(admStmts, r.Stmt)
			}
		}
	}
	// Standing queries take the leading dense query ids (1..len(subs), in
	// registration order), then the batch's reads. With no subscriptions the
	// numbering is unchanged.
	nsubs := len(subs)
	acts := make([]plan.Activation, 0, nsubs+len(readReqs))
	subCols := make([]*subCollector, nsubs)
	for i, s := range subs {
		acts = append(acts, plan.Activation{QID: queryset.QueryID(i + 1), Stmt: s.stmt, Params: s.params})
		subCols[i] = &subCollector{sub: s}
	}
	byQID := make(map[queryset.QueryID]*Request, len(readReqs))
	for i, r := range readReqs {
		qid := queryset.QueryID(nsubs + i + 1) // generation-scoped ids keep sets small
		acts = append(acts, plan.Activation{QID: qid, Stmt: r.Stmt, Params: r.Params})
		byQID[qid] = r
		r.Result.Schema = r.Stmt.OutSchema
		r.Result.SnapshotTS = ts
	}
	// Register the generation's cost-attribution record (qid → statement
	// SQL) before any operator can start reporting. Standing queries are
	// attributed too: their share belongs to them, not to whichever batch
	// statement happened to co-run.
	if e.genCosts != nil {
		qidSQL := make(map[queryset.QueryID]string, nsubs+len(readReqs))
		for i, s := range subs {
			qidSQL[queryset.QueryID(i+1)] = s.stmt.SQL
		}
		for qid, r := range byQID {
			qidSQL[qid] = r.Stmt.SQL
		}
		e.costMu.Lock()
		e.genCosts[gen] = &genCostRec{qidSQL: qidSQL, ns: make(map[string]int64)}
		e.costMu.Unlock()
	}

	e.plan.RunGeneration(gen, ts, acts, nil,
		func(stream int, t operators.Tuple) {
			// Sink callback: runs on the sink goroutine only (one sink cycle
			// at a time, even with generations in flight), so per-request
			// state needs no locking. Routing applies each query's own
			// projection, DISTINCT and LIMIT (the per-query tail of the
			// shared plan). The projection copies every delivered value out
			// of t.Row, which belongs to the generation's row arena and dies
			// when the generation drains, into the result's own slab.
			for _, qid := range t.QS.IDs() {
				if int(qid) <= nsubs {
					sc := subCols[qid-1]
					stmt := sc.sub.stmt
					if stmt.SinkLimit >= 0 && len(sc.rows) >= stmt.SinkLimit {
						continue
					}
					row := sc.slab.next(len(stmt.Project))
					for i, pe := range stmt.Project {
						row[i] = pe.Eval(t.Row, sc.sub.params)
					}
					if stmt.Distinct {
						if sc.distinctSeen == nil {
							sc.distinctSeen = map[string]bool{}
						}
						k := types.EncodeKey(row...)
						if sc.distinctSeen[k] {
							continue
						}
						sc.distinctSeen[k] = true
					}
					sc.slab.keep(len(row))
					sc.rows = append(sc.rows, row)
					continue
				}
				r := byQID[qid]
				if r == nil {
					continue
				}
				res := r.Result
				if r.Stmt.SinkLimit >= 0 && len(res.Rows) >= r.Stmt.SinkLimit {
					continue
				}
				row := res.slab.next(len(r.Stmt.Project))
				for i, pe := range r.Stmt.Project {
					row[i] = pe.Eval(t.Row, r.Params)
				}
				if r.Stmt.Distinct {
					if res.distinctSeen == nil {
						res.distinctSeen = map[string]bool{}
					}
					k := types.EncodeKey(row...)
					if res.distinctSeen[k] {
						continue
					}
					res.distinctSeen[k] = true
				}
				res.slab.keep(len(row))
				res.Rows = append(res.Rows, row)
			}
		},
		func() {
			e.db.UnpinSnapshot(ts)
			// Subscription deliveries happen on the sink goroutine in
			// generation order (the per-subscription diff state depends on
			// it); a full subscriber channel marks it lagged, never blocks.
			var delivered uint64
			for _, sc := range subCols {
				if sc.sub.deliver(gen, ts, sc.rows) {
					delivered++
				}
			}
			// Every node reported its cost before its EOS propagated, and
			// this callback runs after the sink received every EOS — the
			// record is final; take it out of the live map.
			var costs map[string]int64
			if e.genCosts != nil {
				e.costMu.Lock()
				if rec := e.genCosts[gen]; rec != nil {
					costs = rec.ns
					delete(e.genCosts, gen)
				}
				e.costMu.Unlock()
			}
			e.mu.Lock()
			e.queriesRun += uint64(len(readReqs))
			e.subUpdates += delivered
			if e.adm != nil {
				e.adm.recordGenerationCosts(admStmts, time.Since(admStart), len(batch), costs)
			}
			e.mu.Unlock()
			e.generationDone()
			for _, r := range readReqs {
				r.Result.distinctSeen = nil
				r.Result.slab = rowSlab{}
				r.Result.complete(nil)
				if r.fold != nil {
					// Fan the lead's materialized result out to every
					// folded subscriber at the same snapshot.
					r.fold.complete(r.Result)
				}
			}
		},
	)
}

// bindWrite turns a bound write plan plus parameters into a storage op:
// parameters are substituted so the storage layer can resolve targets by
// value (index selection, predicate indexing).
func bindWrite(wp *sql.WritePlan, params []types.Value) (storage.WriteOp, error) {
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

// BindWriteForTx exposes write binding for the transaction API.
func BindWriteForTx(wp *sql.WritePlan, params []types.Value) (storage.WriteOp, error) {
	return bindWrite(wp, params)
}
