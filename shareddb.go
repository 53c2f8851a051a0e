// Package shareddb is a main-memory relational database engine built around
// batched, shared query execution — a from-scratch reproduction of
// "SharedDB: Killing One Thousand Queries With One Stone" (Giannikis,
// Alonso, Kossmann; VLDB 2012).
//
// Instead of planning and running each query separately, SharedDB compiles
// the whole workload into a single always-on global plan of shared
// operators. Queries and updates are batched into generations; one big
// join/sort/group per generation serves every concurrent query, and results
// are routed back through set-valued query-id annotations (the data-query
// model). Work per generation is bounded by data size — not by the number
// of concurrent queries — which is what gives SharedDB robust latency under
// extreme load.
//
// Generations pipeline through the always-on plan: up to
// Config.MaxInFlightGenerations generations execute concurrently (default
// 4), so while one batch sits in the shared join, the next is already
// scanning. Each generation's updates apply in strict generation order and
// its reads run at the snapshot published after its own updates, so
// pipelining never changes results — set MaxInFlightGenerations to 1 for
// strictly serial generations.
//
// Within a generation every shared operator — each table's ClockScan, each
// join, sort and group-by — runs once, serially, on its own operator
// goroutine: parallelism comes from the operators of one generation
// running side by side and from pipelined generations, never from splitting
// one operator's work.
//
// Basic usage:
//
//	db, _ := shareddb.Open(shareddb.Config{})
//	defer db.Close()
//	db.Exec(`CREATE TABLE users (id INT, name VARCHAR, PRIMARY KEY (id))`)
//	db.Exec(`INSERT INTO users VALUES (1, 'Ada')`)
//	stmt, _ := db.Prepare(`SELECT name FROM users WHERE id = ?`)
//	rows, _ := stmt.Query(1)
//	for rows.Next() {
//	    var name string
//	    rows.Scan(&name)
//	}
package shareddb

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"shareddb/internal/core"
	"shareddb/internal/dbapi"
	"shareddb/internal/plan"
	"shareddb/internal/shard"
	"shareddb/internal/sql"
	"shareddb/internal/storage"
	"shareddb/internal/types"
)

// Config tunes a DB instance.
type Config struct {
	// Heartbeat is the minimum spacing between execution generations
	// (paper §3.2). Zero runs back-to-back generations: lowest latency,
	// batches form naturally from concurrent arrivals.
	Heartbeat time.Duration
	// MaxInFlightGenerations bounds how many generations execute
	// concurrently in the always-on plan (the generation pipeline). 0
	// selects the engine default (4); 1 restores strictly serial
	// generations; negative values are rejected by Open. Updates always
	// apply in generation order; only read phases overlap, each at its
	// own snapshot.
	MaxInFlightGenerations int
	// Deprecated: ignored, always on. Shared table scans always read the
	// delta-maintained columnar mirror; when the mirror cannot apply a
	// snapshot's delta it rebuilds itself from the visible rows (README
	// "Fallbacks"). The field is still declared only because the frozen
	// repository benchmark reads it.
	ColumnarScan bool
	// MaxGenerationDelay is the per-generation latency SLO (the paper's
	// response-time limit). When set, batch formation caps each generation
	// at the size predicted — from observed cycle times — to finish within
	// it, and the slow-query circuit breaker quarantines statements whose
	// generations repeatedly exceed it: 3 consecutive over-SLO generations
	// quarantine a statement, whose submissions are then rejected with
	// ErrOverloaded until a probe after a cooldown of 8×MaxGenerationDelay
	// meets the SLO again. 0 disables both; non-zero values below 1ms are
	// rejected by Open (the generation timer cannot enforce them).
	MaxGenerationDelay time.Duration
	// QueueDepthLimit caps how many submissions may wait for a generation
	// (per shard on sharded deployments). Submissions beyond the cap fail
	// immediately with a *OverloadError carrying a retry hint instead of
	// queueing unboundedly. 0 = unlimited.
	QueueDepthLimit int
	// StatementQuota caps how many activations of any single statement one
	// generation admits; excess activations are shed to later generations
	// in arrival order (they wait longer, but one statement's burst cannot
	// monopolize a cycle). 0 = unlimited.
	StatementQuota int
	// Deprecated: ignored, always on. Concurrent reads with identical SQL
	// text and bit-identical parameters that land in the same generation
	// always collapse to one engine activation (README "Result folding").
	// The field is still declared only because the frozen repository
	// benchmark reads it.
	FoldQueries bool
	// Shards splits the database into that many shard engines, each
	// owning a hash partition (on primary key) of every table with its
	// own always-on global plan and generation loop. A scatter-gather
	// router speaks the same API: point writes and primary-key reads go
	// to the owning shard, everything else fans out and merges
	// deterministically (ORDER BY via k-way merge, GROUP BY via
	// partial-aggregate recombination). 0 or 1 runs the classic single
	// engine — byte-identical to pre-sharding behavior. Negative values
	// are rejected by Open.
	Shards int
	// ReplicatedTables lists tables fully copied to every shard instead of
	// partitioned (dimension tables every shard joins against). Tables
	// without a primary key always replicate. Ignored when Shards <= 1.
	ReplicatedTables []string
	// PartitionKeys overrides the partition key of a table (default: its
	// primary key) — e.g. co-partitioning a detail table with its parent
	// on the parent's id so their join stays shard-local. Ignored when
	// Shards <= 1.
	PartitionKeys map[string][]string
	// WALDir enables the write-ahead log: each generation's commits are
	// appended to it once, as one batch. Nothing checkpoints or recovers
	// automatically: checkpointing is a manual call to
	// Storage().Checkpoint(), and recovery a manual call to
	// Storage().Recover() after re-creating the schema on a fresh DB
	// opened over the same directory (ROADMAP item 14 makes both engine
	// work). Sharded deployments log each shard under WALDir/shard-<i>;
	// use Storages() to reach every shard.
	WALDir string
	// SyncWAL fsyncs the log on every commit batch.
	SyncWAL bool
}

// Validate rejects configurations that previously defaulted silently.
// Negative MaxInFlightGenerations and Shards are errors (zero
// keeps selecting each knob's documented default), as are negative
// admission limits and a non-zero MaxGenerationDelay below the 1ms timer
// resolution.
func (c Config) Validate() error {
	if c.Shards < 0 {
		return fmt.Errorf("shareddb: Shards must be >= 0, got %d (0 or 1 = single engine)", c.Shards)
	}
	return c.coreConfig().Validate()
}

func (c Config) coreConfig() core.Config {
	return core.Config{
		Heartbeat:              c.Heartbeat,
		MaxInFlightGenerations: c.MaxInFlightGenerations,
		MaxGenerationDelay:     c.MaxGenerationDelay,
		QueueDepthLimit:        c.QueueDepthLimit,
		StatementQuota:         c.StatementQuota,
	}
}

// ErrOverloaded is the sentinel every admission-control rejection wraps:
// when the submission queue is at QueueDepthLimit, or a statement is
// quarantined by the slow-query breaker, Query/Exec fail fast with an error
// matching errors.Is(err, shareddb.ErrOverloaded) instead of queueing. Use
// errors.As with *OverloadError to recover the retry hint. Package client
// returns the same error for a server's BUSY reply.
var ErrOverloaded = dbapi.ErrOverloaded

// OverloadError is the typed admission rejection: the reason a submission
// was refused plus RetryAfter, the suggested client back-off.
type OverloadError = dbapi.OverloadError

// Subscription is a standing query handle returned by DB.Subscribe: the
// statement joins every subsequent generation's query set and result changes
// arrive on Updates. See SubscriptionUpdate for the delivery contract.
type Subscription = core.Subscription

// SubscriptionUpdate is one delivery on a Subscription's Updates channel:
// an initial full result, then per-generation Added/Removed deltas
// (generations that leave the result unchanged deliver nothing). A
// subscriber that falls a full buffer behind is resynced with a fresh full
// result instead of a gapped delta stream.
type SubscriptionUpdate = core.SubscriptionUpdate

// DB is a SharedDB database handle. It is safe for concurrent use.
type DB struct {
	stores []*storage.Database
	plan   *plan.GlobalPlan // single-engine deployments only
	router *shard.Router    // sharded deployments only
	exec   core.Executor
}

// Open creates a new database. With Config.Shards <= 1 this is the classic
// single engine; otherwise the tables are hash-partitioned across
// Config.Shards shard engines behind a scatter-gather router.
func Open(cfg Config) (*DB, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Shards <= 1 {
		store, err := storage.Open(storage.Options{WALDir: cfg.WALDir, SyncWAL: cfg.SyncWAL})
		if err != nil {
			return nil, err
		}
		gp := plan.New(store)
		eng := core.New(store, gp, cfg.coreConfig())
		return &DB{stores: []*storage.Database{store}, plan: gp, exec: eng}, nil
	}
	stores := make([]*storage.Database, cfg.Shards)
	for i := range stores {
		opts := storage.Options{SyncWAL: cfg.SyncWAL,
			Shard: storage.ShardInfo{Index: i, Count: cfg.Shards}}
		if cfg.WALDir != "" {
			opts.WALDir = filepath.Join(cfg.WALDir, fmt.Sprintf("shard-%d", i))
		}
		store, err := storage.Open(opts)
		if err != nil {
			for _, s := range stores[:i] {
				s.Close()
			}
			return nil, err
		}
		stores[i] = store
	}
	router, err := shard.New(stores, cfg.coreConfig(),
		shard.Placement{Replicated: cfg.ReplicatedTables, PartitionKeys: cfg.PartitionKeys})
	if err != nil {
		for _, s := range stores {
			s.Close()
		}
		return nil, err
	}
	return &DB{stores: stores, router: router, exec: router}, nil
}

// Close stops the engine(s) and releases storage resources.
func (db *DB) Close() error {
	db.exec.Close()
	var firstErr error
	for _, s := range db.stores {
		if err := s.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Storage exposes the underlying storage manager (checkpointing, recovery,
// direct table access for bulk loading). Sharded deployments return the
// first shard; use Storages for all partitions.
func (db *DB) Storage() *storage.Database { return db.stores[0] }

// Storages returns every shard's storage manager (one entry when
// unsharded).
func (db *DB) Storages() []*storage.Database { return db.stores }

// Engine exposes the execution backend (statistics, transaction
// submission): the single engine, or the shard router. Prefer Stats for
// observability — Engine remains for advanced integrations that submit
// through core types directly.
func (db *DB) Engine() core.Executor { return db.exec }

// Stats is a point-in-time snapshot of the database's execution counters,
// summed across shards. Package client reads the same type from a server.
type Stats = dbapi.Stats

// Stats returns the database's typed execution counters.
func (db *DB) Stats() Stats { return db.exec.Stats() }

// DescribePlan renders the current global operator plan (shard 0's plan on
// sharded deployments — all shards compile the same statements).
func (db *DB) DescribePlan() string {
	if db.router != nil {
		return db.router.Describe()
	}
	return db.plan.Describe()
}

// Result reports the outcome of a write.
type Result = dbapi.Result

// Exec runs a statement outside the prepared path. DDL (CREATE TABLE /
// CREATE INDEX) applies immediately; reads and writes are enqueued for the
// next generation and waited on. It is ExecContext with
// context.Background().
func (db *DB) Exec(sqlText string, args ...interface{}) (Result, error) {
	return db.ExecContext(context.Background(), sqlText, args...)
}

// createTable applies DDL to every shard (tables exist on all partitions;
// rows are distributed by primary-key hash).
func (db *DB) createTable(s *sql.CreateTableStmt) error {
	cols := make([]types.Column, len(s.Columns))
	for i, c := range s.Columns {
		cols[i] = types.Column{Qualifier: s.Table, Name: c.Name, Kind: c.Kind}
	}
	for _, store := range db.stores {
		t, err := store.CreateTable(s.Table, types.NewSchema(cols...))
		if err != nil {
			return err
		}
		if len(s.Primary) > 0 {
			if _, err := t.SetPrimaryKey(s.Primary...); err != nil {
				return err
			}
		}
	}
	if db.router != nil {
		// Surface typo'd Config.PartitionKeys overrides now, not as a
		// silent primary-key fallback at routing time.
		return db.router.ValidateTable(s.Table)
	}
	return nil
}

func (db *DB) createIndex(s *sql.CreateIndexStmt) error {
	for _, store := range db.stores {
		t := store.Table(s.Table)
		if t == nil {
			return fmt.Errorf("shareddb: unknown table %q", s.Table)
		}
		if _, err := t.AddIndex(s.Name, s.Unique, s.Columns...); err != nil {
			return err
		}
	}
	return nil
}

// Stmt is a prepared statement registered in the global plan. Statements
// are the unit of sharing: every concurrent activation of every statement
// with a matching shape runs on the same shared operators.
type Stmt struct {
	db   *DB
	stmt *plan.Statement
}

// Prepare registers a statement, once per SQL text. Like JDBC
// PreparedStatements in the paper's TPC-W setup, statements are typically
// prepared once at startup; preparing at runtime is the ad-hoc query path.
// Only the first Prepare of a text compiles it into the global plan, which
// quiesces the generation pipeline; later calls with the same text (every
// repeated DB.Query, DB.Exec and Tx.Exec) return a Stmt over the same
// statement without stalling anyone, and a quarantined one is rejected when
// it is submitted.
func (db *DB) Prepare(sqlText string) (*Stmt, error) {
	ps, err := db.exec.Prepare(sqlText)
	if err != nil {
		return nil, err
	}
	return &Stmt{db: db, stmt: ps}, nil
}

// SQL returns the statement text.
func (s *Stmt) SQL() string { return s.stmt.SQL }

// Query enqueues a read for the next generation and blocks for its results.
// It is QueryContext with context.Background().
func (s *Stmt) Query(args ...interface{}) (*Rows, error) {
	return s.QueryContext(context.Background(), args...)
}

// Exec enqueues a write for the next generation and blocks for its outcome.
// It is ExecContext with context.Background().
func (s *Stmt) Exec(args ...interface{}) (Result, error) {
	return s.ExecContext(context.Background(), args...)
}

// Query is the ad-hoc path: the statement joins the global plan (sharing
// whatever operators match) and runs once. It is QueryContext with
// context.Background().
func (db *DB) Query(sqlText string, args ...interface{}) (*Rows, error) {
	return db.QueryContext(context.Background(), sqlText, args...)
}

// Subscribe registers stmt with the given arguments as a standing query.
// The statement becomes a permanent member of every subsequent generation's
// query set: the first delivery on the subscription's Updates channel is the
// full result at the next generation's snapshot, and each later generation
// that changes the result delivers the Added/Removed rows.
//
// Cancelling ctx closes the subscription, as does Subscription.Close;
// either way the engine drops it at the next batch formation without
// perturbing in-flight generations. On sharded deployments the feed merges
// per-shard updates in generation order (scatter statements must be plain
// concatenations — no cross-shard ORDER BY, GROUP BY, DISTINCT or LIMIT).
func (db *DB) Subscribe(ctx context.Context, stmt *Stmt, args ...interface{}) (*Subscription, error) {
	params, err := types.FromGo(args)
	if err != nil {
		return nil, err
	}
	sub, err := db.exec.Subscribe(stmt.stmt, params)
	if err != nil {
		return nil, err
	}
	if ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				sub.Close()
			case <-sub.Done():
			}
		}()
	}
	return sub, nil
}

// Rows is a materialized, iterable result set.
//
// The materialized-result contract: the generation that served the query
// has already completed by the time Query returns, so Rows holds the full
// result in memory — iteration never blocks, never fails, and Len is known
// up front. Err and Close exist for database/sql-shaped callers (loops
// ending in rows.Err(), deferred rows.Close()): Err always returns nil and
// Close only releases the reference, because there is no cursor to fail or
// connection to return.
//
// Rows are read-only. Callers that issued identical concurrent queries
// receive results backed by the same row storage (result folding) —
// mutating a row through Row or All would corrupt another caller's result.
type Rows struct {
	schema *types.Schema
	rows   []types.Row
	pos    int
}

// Columns returns the result column names.
func (r *Rows) Columns() []string {
	out := make([]string, r.schema.Len())
	for i, c := range r.schema.Cols {
		out[i] = c.Name
	}
	return out
}

// Len returns the number of rows.
func (r *Rows) Len() int { return len(r.rows) }

// Next advances the cursor; it must be called before the first Scan.
func (r *Rows) Next() bool {
	r.pos++
	return r.pos < len(r.rows)
}

// Row returns the current row's raw values.
func (r *Rows) Row() types.Row {
	if r.pos < 0 || r.pos >= len(r.rows) {
		return nil
	}
	return r.rows[r.pos]
}

// All returns every row. The returned rows are shared, read-only storage
// (see the type comment); copy before mutating.
func (r *Rows) All() []types.Row { return r.rows }

// Err reports the error, if any, encountered during iteration. Results are
// fully materialized before Query returns (execution errors surface from
// Query itself), so Err always returns nil; it exists so database/sql-style
// loops port without edits.
func (r *Rows) Err() error { return nil }

// Close releases the result set's row storage reference. It is never
// required — there is no cursor or connection behind Rows — but it is safe
// to defer in database/sql style; subsequent Next/Row calls return no rows.
func (r *Rows) Close() error {
	r.rows = nil
	r.pos = -1
	return nil
}

// Scan copies the current row into dest pointers (*int64, *int, *float64,
// *string, *bool, *time.Time or *types.Value). Destinations bind to the
// row's leading columns: Scan errors when given more destinations than the
// row has columns, while trailing row columns beyond len(dest) are simply
// not scanned (handy with SELECT * when only a prefix matters).
func (r *Rows) Scan(dest ...interface{}) error {
	return r.Row().Scan(dest...)
}

// Tx is a snapshot-isolated write transaction. Reads issued while the
// transaction is open run as ordinary statements at the latest snapshot
// (read committed — the isolation TPC-W requires, §5.2); buffered writes
// apply atomically at Commit in the next generation's update batch. On a
// sharded deployment each write routes to the owning shard; commit
// validation runs per shard (cross-shard commits are not atomic).
type Tx struct {
	db   *DB
	tx   core.Tx
	done bool
}

// Begin opens a transaction.
func (db *DB) Begin() *Tx {
	return &Tx{db: db, tx: db.exec.BeginTx()}
}

// Exec buffers a write statement in the transaction. It is ExecContext
// with context.Background().
func (tx *Tx) Exec(sqlText string, args ...interface{}) error {
	return tx.ExecContext(context.Background(), sqlText, args...)
}

// ExecContext buffers a write statement in the transaction. The text
// resolves through PrepareContext, so a repeated write text is a registry
// hit; on a sharded deployment a write assigning a partition-key column
// fails here. Buffering is local (no generation is involved until Commit).
func (tx *Tx) ExecContext(ctx context.Context, sqlText string, args ...interface{}) error {
	if tx.done {
		return storage.ErrTxDone
	}
	stmt, err := tx.db.PrepareContext(ctx, sqlText)
	if err != nil {
		return err
	}
	if !stmt.stmt.IsWrite() {
		return errors.New("shareddb: only writes may run inside Tx.Exec")
	}
	params, err := types.FromGo(args)
	if err != nil {
		return err
	}
	op, err := core.BindWriteForTx(stmt.stmt.Write, params)
	if err != nil {
		return err
	}
	switch op.Kind {
	case storage.WInsert:
		tx.tx.Insert(op.Table, op.Row)
	case storage.WUpdate:
		tx.tx.Update(op.Table, op.Pred, op.Set)
	case storage.WDelete:
		tx.tx.Delete(op.Table, op.Pred)
	}
	return nil
}

// Commit submits the transaction to the next generation's update batch and
// waits. Snapshot-isolation conflicts surface as storage.ErrConflict. It is
// CommitContext with context.Background().
func (tx *Tx) Commit() error {
	return tx.CommitContext(context.Background())
}

// CommitContext is Commit with cancellation: on ctx expiry the wait is
// abandoned and ctx.Err() returned, but the commit itself is NOT undone —
// it was already submitted and will apply (or conflict) in its generation,
// exactly as if the cancellation had arrived a moment later. Callers that
// must know the outcome should not cancel a commit wait.
func (tx *Tx) CommitContext(ctx context.Context) error {
	if tx.done {
		return storage.ErrTxDone
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	tx.done = true
	return awaitResult(ctx, tx.db.exec.SubmitTx(tx.tx))
}

// Rollback abandons the transaction.
func (tx *Tx) Rollback() {
	tx.done = true
	tx.tx.Rollback()
}
