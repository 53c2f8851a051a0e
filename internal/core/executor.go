package core

import (
	"errors"
	"fmt"

	"shareddb/internal/expr"
	"shareddb/internal/plan"
	"shareddb/internal/storage"
	"shareddb/internal/types"
)

// Executor is the statement-submission API shared by the single-node Engine
// and the sharded router (internal/shard). The public shareddb package, the
// TPC-W harness and the command-line tools program against this interface,
// so a deployment can swap one engine for N shard engines without the
// callers changing.
//
// Prepare returns a *plan.Statement handle, one per SQL text: preparing a
// text again returns the same handle without stalling the pipeline. For the
// sharded backend the handle is a routing descriptor rather than a
// statement registered in one global plan, but SQL/IsWrite/OutSchema/Write
// behave identically.
type Executor interface {
	Prepare(sqlText string) (*plan.Statement, error)
	Submit(stmt *plan.Statement, params []types.Value) *Result
	// SubmitBatch submits a burst of calls as one unit of admission work:
	// the single-node engine enqueues them under one lock acquisition and
	// wakes its dispatcher once, so the burst folds against itself and lands
	// in one generation. Each call's Result is filled in when nil. Every
	// call is otherwise treated exactly as Submit would treat it.
	SubmitBatch(calls []Call)
	// Subscribe registers stmt as a standing query: an initial full result
	// followed by per-generation added/removed deltas on the returned
	// subscription's Updates channel. The sharded backend merges per-shard
	// feeds in generation order.
	Subscribe(stmt *plan.Statement, params []types.Value) (*Subscription, error)
	// BeginTx opens a buffered write transaction; SubmitTx enqueues its
	// commit for the next generation.
	BeginTx() Tx
	SubmitTx(tx Tx) *Result
	// Stats reports the typed counter snapshot (summed across shards for
	// the sharded backend — the in-flight gauges sum per-shard values).
	Stats() EngineStats
	// Workers reports the resolved scan parallelism budget (per
	// shard for the sharded backend).
	Workers() int
	Close()
}

// Tx is the backend-agnostic buffered write transaction: *storage.Tx for
// the single-node engine, a per-shard transaction group for the router.
// Writes buffer until the transaction is submitted; Rollback abandons it.
type Tx interface {
	Insert(table string, row types.Row)
	Update(table string, pred expr.Expr, set []storage.ColSet)
	Delete(table string, pred expr.Expr)
	Rollback()
}

var (
	_ Executor = (*Engine)(nil)
	_ Tx       = (*storage.Tx)(nil)
)

// EngineStats is the typed counter snapshot Executor.Stats returns. All
// counters are cumulative since the engine started; InFlight and
// QueueDepth (inside Admission) are gauges.
type EngineStats struct {
	// Generations is the number of generations dispatched.
	Generations uint64
	// QueriesRun counts read activations actually executed by the engine;
	// folded duplicates are NOT included (they did no engine work).
	QueriesRun uint64
	// WritesRun counts applied write operations and transaction commits.
	WritesRun uint64
	// FoldedQueries counts read submissions served by fan-out from an
	// identical pending duplicate instead of executing. It counts in the
	// unit QueriesRun counts: on the sharded backend that is per-shard
	// activations, so one client scatter read folded on N shards counts N.
	FoldedQueries uint64
	// SubscriptionsActive is the gauge of open standing queries (summed
	// across shards for the sharded backend).
	SubscriptionsActive int
	// SubscriptionUpdates counts updates handed to subscribers (initial
	// full results, deltas and lag resyncs; dropped-and-lagged deliveries
	// are not included).
	SubscriptionUpdates uint64
	// InFlight / PeakInFlight mirror InFlightGenerations.
	InFlight     int
	PeakInFlight int
	// Admission carries the admission controller's counters (zero values
	// when admission is disabled; QueueDepth is live regardless).
	Admission AdmissionStats
}

// BeginTx opens a snapshot-isolated transaction on the engine's database.
func (e *Engine) BeginTx() Tx { return e.db.Begin() }

// Call is one element of a SubmitBatch burst.
type Call struct {
	Stmt   *plan.Statement
	Params []types.Value
	// Result is the pending result the call completes. A caller that wants
	// a completion hook passes one built with NewHookedResult; nil makes
	// SubmitBatch allocate a plain one and store it here.
	Result *Result
}

// CompletionHook receives a Result the moment it completes, on whichever
// goroutine completed it (the sink for generation results, the dispatcher
// for writes, the submitter for rejections). It must not block and must not
// call back into the executor.
type CompletionHook interface {
	Completed(r *Result)
}

// NewPendingResult returns an unfinished Result for callers that assemble
// results outside an engine generation (the shard router's scatter-gather
// path). Complete the result exactly once with Complete.
func NewPendingResult() *Result { return &Result{done: make(chan struct{})} }

// NewHookedResult returns an unfinished Result whose completion — by
// whichever path: a generation, a fold fan-out, an admission rejection, an
// abandoned wait — calls hook exactly once, after the Result's fields are
// final. A caller with a hook needs no goroutine parked in Wait.
func NewHookedResult(hook CompletionHook) *Result {
	return &Result{done: make(chan struct{}), hook: hook}
}

// Complete finishes a pending result, releasing its waiters.
func (r *Result) Complete(err error) { r.complete(err) }

// complete is the one place a Result finishes: every engine, fold and router
// path funnels through it, so the hook fires exactly once per result.
func (r *Result) complete(err error) {
	r.Err = err
	close(r.done)
	if r.hook != nil {
		r.hook.Completed(r)
	}
}

// Validate rejects configurations that previously defaulted silently:
// negative Workers and negative MaxInFlightGenerations (zero still means
// "engine default" for both), negative admission limits, and an SLO the
// timer cannot enforce.
func (c Config) Validate() error {
	if c.Workers < 0 {
		return fmt.Errorf("core: Workers must be >= 0, got %d (0 = GOMAXPROCS, 1 = serial)", c.Workers)
	}
	if c.MaxInFlightGenerations < 0 {
		return fmt.Errorf("core: MaxInFlightGenerations must be >= 0, got %d (0 = engine default, 1 = serial)", c.MaxInFlightGenerations)
	}
	if c.SubscriptionBuffer < 0 {
		return fmt.Errorf("core: SubscriptionBuffer must be >= 0, got %d (0 = default %d)", c.SubscriptionBuffer, DefaultSubscriptionBuffer)
	}
	if c.MaxGenerationDelay < 0 {
		return fmt.Errorf("core: MaxGenerationDelay must be >= 0, got %v (0 = no latency SLO)", c.MaxGenerationDelay)
	}
	if c.MaxGenerationDelay > 0 && c.MaxGenerationDelay < MinGenerationDelay {
		return fmt.Errorf("core: MaxGenerationDelay %v is below the %v timer resolution and cannot be enforced (use 0 to disable the SLO)",
			c.MaxGenerationDelay, MinGenerationDelay)
	}
	if c.QueueDepthLimit < 0 {
		return fmt.Errorf("core: QueueDepthLimit must be >= 0, got %d (0 = unlimited)", c.QueueDepthLimit)
	}
	if c.StatementQuota < 0 {
		return fmt.Errorf("core: StatementQuota must be >= 0, got %d (0 = unlimited)", c.StatementQuota)
	}
	return nil
}

// errNotStorageTx is returned when a foreign Tx implementation reaches the
// single-node engine.
var errNotStorageTx = errors.New("core: SubmitTx requires a transaction from this engine's BeginTx")

// errEngineClosed completes submissions that reach a closed engine and the
// requests still queued when it closes.
var errEngineClosed = errors.New("core: engine closed")

// errRequestAbandoned completes results whose waiter cancelled before the
// request was drafted into a generation (nobody is usually waiting — it
// keeps a late Wait well-defined).
var errRequestAbandoned = errors.New("core: request abandoned before dispatch")
