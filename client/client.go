// Package client is the Go client for shareddb-server's binary wire
// protocol (internal/wire). Its surface deliberately mirrors the
// in-process shareddb package — DB, Stmt, Rows, Stats, Subscribe, the
// same Context-suffixed entry points, the same Scan destinations — so
// code written against the embedded engine ports to the network with an
// import swap and an address.
//
// The differences that remain are the ones the network forces:
//
//   - Rows is a streaming cursor, not a materialized result. Iteration
//     can fail mid-stream — a connection lost between batches surfaces
//     from Rows.Err, which in-process always returned nil.
//   - One DB multiplexes every call over a single pipelined connection
//     with a bounded in-flight window (Config.Window). Goroutines
//     calling concurrently fill the window; the server completes out of
//     order and the demultiplexer matches responses by request id.
//     Pipelined duplicates land in the same engine generation, so with
//     server-side folding a window of identical queries costs one
//     activation — the same behavior a thousand in-process goroutines
//     get, delivered over one socket.
//   - Admission rejections arrive as typed BUSY frames. With
//     Config.RetryOverloaded > 0 the client sleeps the server's
//     RetryAfter hint and resubmits (the same back-off loop the
//     in-process TPC-W driver runs); otherwise the *OverloadError is
//     returned for the caller's own policy, matching
//     errors.Is(err, ErrOverloaded).
package client

import (
	"context"
	"errors"
	"fmt"
	"time"

	"shareddb/internal/types"
	"shareddb/internal/wire"
)

// Config tunes a client connection.
type Config struct {
	// Addr is the server's TCP address ("host:5843").
	Addr string
	// Window is the client-side in-flight request window: how many
	// Query/Exec calls may be awaiting completion on the connection at
	// once. Further calls block until a slot frees. 0 selects 32; the
	// server enforces its own window independently.
	Window int
	// DialTimeout bounds the TCP dial + protocol handshake (0 = no limit).
	DialTimeout time.Duration
	// RetryOverloaded is how many times Query/Exec resubmit after a BUSY
	// rejection, sleeping the server's RetryAfter hint between attempts.
	// 0 disables retries: the *OverloadError is returned to the caller.
	RetryOverloaded int
	// SubscriptionBuffer is the per-subscription update channel capacity
	// (0 selects 16). A subscriber that falls a full buffer behind drops
	// updates: the demultiplexer never blocks on a slow consumer.
	SubscriptionBuffer int
}

// DB is a client handle: one multiplexed, pipelined connection to a
// shareddb-server. It is safe for concurrent use; concurrent calls share
// the connection's in-flight window.
type DB struct {
	cfg Config
	c   *conn
}

// Open dials addr with default configuration.
func Open(addr string) (*DB, error) { return OpenConfig(Config{Addr: addr}) }

// OpenConfig dials cfg.Addr and performs the protocol handshake.
func OpenConfig(cfg Config) (*DB, error) {
	if cfg.Window <= 0 {
		cfg.Window = 32
	}
	if cfg.SubscriptionBuffer <= 0 {
		cfg.SubscriptionBuffer = 16
	}
	c, err := dial(cfg)
	if err != nil {
		return nil, err
	}
	return &DB{cfg: cfg, c: c}, nil
}

// Close sends an orderly QUIT and closes the connection. Outstanding
// calls fail with ErrClosed.
func (db *DB) Close() error { return db.c.close() }

// Ping round-trips a liveness probe.
func (db *DB) Ping(ctx context.Context) error { return db.c.ping(ctx) }

// Prepare registers sqlText server-side and returns a statement handle.
// It is PrepareContext with context.Background().
func (db *DB) Prepare(sqlText string) (*Stmt, error) {
	return db.PrepareContext(context.Background(), sqlText)
}

// PrepareContext registers sqlText server-side. The handle is backed by
// the engine's statement registry: a thousand clients preparing the same
// SQL pay the engine's registration quiesce once.
func (db *DB) PrepareContext(ctx context.Context, sqlText string) (*Stmt, error) {
	ok, err := db.c.prepare(ctx, sqlText)
	if err != nil {
		return nil, err
	}
	return &Stmt{db: db, handle: ok.Stmt, sqlText: sqlText,
		numParams: int(ok.NumParams), isWrite: ok.IsWrite, cols: ok.Columns}, nil
}

// Query runs an ad-hoc read. It is QueryContext with context.Background().
func (db *DB) Query(sqlText string, args ...interface{}) (*Rows, error) {
	return db.QueryContext(context.Background(), sqlText, args...)
}

// QueryContext runs an ad-hoc read and returns its streaming cursor.
func (db *DB) QueryContext(ctx context.Context, sqlText string, args ...interface{}) (*Rows, error) {
	params, err := types.FromGo(args)
	if err != nil {
		return nil, err
	}
	return retryBusy(ctx, db, func() (*Rows, error) {
		return db.c.startQuery(ctx, request{typ: wire.TQuerySQL, sql: sqlText, params: params})
	})
}

// Exec runs an ad-hoc write (or DDL). It is ExecContext with
// context.Background().
func (db *DB) Exec(sqlText string, args ...interface{}) (Result, error) {
	return db.ExecContext(context.Background(), sqlText, args...)
}

// ExecContext runs an ad-hoc write or DDL statement.
func (db *DB) ExecContext(ctx context.Context, sqlText string, args ...interface{}) (Result, error) {
	params, err := types.FromGo(args)
	if err != nil {
		return Result{}, err
	}
	return retryBusy(ctx, db, func() (Result, error) {
		return db.c.exec(ctx, request{typ: wire.TExecSQL, sql: sqlText, params: params})
	})
}

// Subscribe registers stmt with the given arguments as a standing query.
// Updates stream as push frames on the shared connection; a subscriber
// that falls Config.SubscriptionBuffer updates behind drops further
// updates (the connection never blocks on a slow consumer). Cancelling
// ctx closes the subscription, as does Subscription.Close.
func (db *DB) Subscribe(ctx context.Context, stmt *Stmt, args ...interface{}) (*Subscription, error) {
	params, err := types.FromGo(args)
	if err != nil {
		return nil, err
	}
	sub, err := db.c.subscribe(ctx, stmt.sqlText, params, db.cfg.SubscriptionBuffer)
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

// Stats fetches the server engine's counter snapshot.
func (db *DB) Stats() (Stats, error) {
	return db.c.stats(context.Background())
}

// Result reports the outcome of a write.
type Result struct {
	RowsAffected int
}

// Stmt is a prepared statement handle bound to the server's shared plan.
// Statements are the unit of sharing: every concurrent activation of the
// same shape — from this client or any other — runs on the same shared
// operators.
type Stmt struct {
	db        *DB
	handle    uint64
	sqlText   string
	numParams int
	isWrite   bool
	cols      []string
}

// SQL returns the statement text.
func (s *Stmt) SQL() string { return s.sqlText }

// NumParams returns the statement's parameter arity.
func (s *Stmt) NumParams() int { return s.numParams }

// IsWrite reports whether the statement modifies data.
func (s *Stmt) IsWrite() bool { return s.isWrite }

// Columns returns the result column names (empty for writes).
func (s *Stmt) Columns() []string { return append([]string(nil), s.cols...) }

// Close releases the session's handle. The statement stays registered in
// the server's shared plan (it is shared with every other client).
func (s *Stmt) Close() error { return s.db.c.closeStmt(s.handle) }

// Query enqueues a read and returns its streaming cursor. It is
// QueryContext with context.Background().
func (s *Stmt) Query(args ...interface{}) (*Rows, error) {
	return s.QueryContext(context.Background(), args...)
}

// QueryContext enqueues a read over the pipelined connection. It returns
// as soon as the result header arrives; rows stream through the cursor.
func (s *Stmt) QueryContext(ctx context.Context, args ...interface{}) (*Rows, error) {
	if s.isWrite {
		return nil, errors.New("client: Query on a write statement")
	}
	params, err := types.FromGo(args)
	if err != nil {
		return nil, err
	}
	return retryBusy(ctx, s.db, func() (*Rows, error) {
		return s.db.c.startQuery(ctx, request{typ: wire.TQuery, stmt: s.handle, params: params})
	})
}

// Exec enqueues a write and blocks for its outcome. It is ExecContext
// with context.Background().
func (s *Stmt) Exec(args ...interface{}) (Result, error) {
	return s.ExecContext(context.Background(), args...)
}

// ExecContext enqueues a write over the pipelined connection.
func (s *Stmt) ExecContext(ctx context.Context, args ...interface{}) (Result, error) {
	params, err := types.FromGo(args)
	if err != nil {
		return Result{}, err
	}
	return retryBusy(ctx, s.db, func() (Result, error) {
		return s.db.c.exec(ctx, request{typ: wire.TExec, stmt: s.handle, params: params})
	})
}

// retryBusy runs fn, resubmitting after BUSY rejections up to
// Config.RetryOverloaded times, sleeping the server's RetryAfter hint
// (context-aware) between attempts.
func retryBusy[T any](ctx context.Context, db *DB, fn func() (T, error)) (T, error) {
	attempts := db.cfg.RetryOverloaded
	for {
		v, err := fn()
		var oe *OverloadError
		if err == nil || attempts <= 0 || !errors.As(err, &oe) {
			return v, err
		}
		attempts--
		wait := oe.RetryAfter
		if wait <= 0 {
			wait = time.Millisecond
		}
		t := time.NewTimer(wait)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			var zero T
			return zero, ctx.Err()
		}
	}
}

// ErrOverloaded is the sentinel every BUSY rejection wraps, mirroring
// shareddb.ErrOverloaded: errors.Is(err, client.ErrOverloaded) matches
// any admission rejection.
var ErrOverloaded = errors.New("client: server overloaded")

// ErrClosed is returned by calls on a closed or failed connection; the
// underlying cause (if any) is wrapped alongside it.
var ErrClosed = errors.New("client: connection closed")

// OverloadError is the typed admission rejection from the server: the
// reason plus RetryAfter, the suggested back-off before resubmitting.
type OverloadError struct {
	Reason     string
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("client: server overloaded: %s (retry after %v)", e.Reason, e.RetryAfter)
}

// Unwrap makes errors.Is(err, ErrOverloaded) match.
func (e *OverloadError) Unwrap() error { return ErrOverloaded }

// ServerError is a typed failure reply (wire ERR frame).
type ServerError struct {
	Code uint64
	Msg  string
}

func (e *ServerError) Error() string {
	return fmt.Sprintf("client: server error %d: %s", e.Code, e.Msg)
}

// Stats is the server engine's counter snapshot, mirroring
// shareddb.Stats field for field. Counters are cumulative since the
// server opened its database; QueueDepth and InFlightGenerations are
// live gauges.
type Stats struct {
	Generations         uint64
	QueriesRun          uint64
	WritesApplied       uint64
	FoldedQueries       uint64
	InFlightGenerations int
	QueueDepth          int
	Shed                uint64
	Rejected            uint64
	BreakerTrips        uint64
	SubscriptionsActive int
	SubscriptionUpdates uint64
}

// FoldHitRate is the fraction of client-visible reads served by folding:
// FoldedQueries / (QueriesRun + FoldedQueries). Zero when no reads ran.
func (s Stats) FoldHitRate() float64 {
	total := s.QueriesRun + s.FoldedQueries
	if total == 0 {
		return 0
	}
	return float64(s.FoldedQueries) / float64(total)
}

// statsFromFields maps wire counter names onto the typed snapshot,
// ignoring unknown names (the field list is extensible by contract).
func statsFromFields(fields []wire.StatField) Stats {
	var st Stats
	for _, f := range fields {
		switch f.Name {
		case "generations":
			st.Generations = f.Value
		case "queries_run":
			st.QueriesRun = f.Value
		case "writes_applied":
			st.WritesApplied = f.Value
		case "folded_queries":
			st.FoldedQueries = f.Value
		case "in_flight_generations":
			st.InFlightGenerations = int(f.Value)
		case "queue_depth":
			st.QueueDepth = int(f.Value)
		case "shed":
			st.Shed = f.Value
		case "rejected":
			st.Rejected = f.Value
		case "breaker_trips":
			st.BreakerTrips = f.Value
		case "subscriptions_active":
			st.SubscriptionsActive = int(f.Value)
		case "subscription_updates":
			st.SubscriptionUpdates = f.Value
		}
	}
	return st
}
