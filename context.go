// Context-aware entry points. Every blocking call on DB, Stmt and Tx has a
// Context variant; the classic methods delegate with context.Background().
//
// Cancellation semantics: the shared generation is never perturbed. A
// SharedDB submission is a subscription to a batch — cancelling one
// subscriber must not slow down, reorder or resize the batch serving
// everyone else. On ctx expiry the caller's wait is abandoned: a fold
// subscriber its lead has not delivered to yet completes with ctx.Err()
// (the lead and its other subscribers are untouched), a still-queued request vacates the queue at
// the next batch formation (releasing its queue-depth slot), and a request
// already drafted into a generation completes normally, unobserved.
package shareddb

import (
	"context"
	"errors"

	"shareddb/internal/core"
	"shareddb/internal/sql"
	"shareddb/internal/types"
)

// awaitResult waits for res honoring ctx. On cancellation the wait is
// abandoned (Result.Abandon) and ctx.Err() returned.
func awaitResult(ctx context.Context, res *core.Result) error {
	if ctx.Done() == nil {
		return res.Wait()
	}
	select {
	case <-res.Done():
		return res.Err
	case <-ctx.Done():
		res.Abandon(ctx.Err())
		return ctx.Err()
	}
}

// QueryContext is Stmt.Query with cancellation: on ctx expiry it abandons
// the wait and returns ctx.Err() without disturbing the generation (or the
// fold lead) serving any other caller.
func (s *Stmt) QueryContext(ctx context.Context, args ...interface{}) (*Rows, error) {
	if s.stmt.IsWrite() {
		return nil, errors.New("shareddb: Query on a write statement")
	}
	params, err := types.FromGo(args)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res := s.db.exec.Submit(s.stmt, params)
	if err := awaitResult(ctx, res); err != nil {
		return nil, err
	}
	return &Rows{schema: res.Schema, rows: res.Rows, pos: -1}, nil
}

// ExecContext is Stmt.Exec with cancellation. Like CommitContext, a write
// whose wait is abandoned after submission is not undone: it applies in
// its generation as if the cancellation had arrived a moment later, while
// a write still queued at the next batch formation is dropped unapplied.
func (s *Stmt) ExecContext(ctx context.Context, args ...interface{}) (Result, error) {
	params, err := types.FromGo(args)
	if err != nil {
		return Result{}, err
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	res := s.db.exec.Submit(s.stmt, params)
	if err := awaitResult(ctx, res); err != nil {
		return Result{}, err
	}
	return Result{RowsAffected: res.RowsAffected}, nil
}

// PrepareContext is Prepare with cancellation. Statement registration
// quiesces the generation pipeline, which can take a while under load; on
// ctx expiry the wait is abandoned and ctx.Err() returned. The
// registration itself may still complete in the background — preparing the
// same SQL again later returns the statement it registered.
func (db *DB) PrepareContext(ctx context.Context, sqlText string) (*Stmt, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if ctx.Done() == nil {
		return db.Prepare(sqlText)
	}
	type prepared struct {
		stmt *Stmt
		err  error
	}
	ch := make(chan prepared, 1)
	go func() {
		s, err := db.Prepare(sqlText)
		ch <- prepared{stmt: s, err: err}
	}()
	select {
	case p := <-ch:
		return p.stmt, p.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// QueryContext is DB.Query with cancellation (ad-hoc path: prepare, then
// query).
func (db *DB) QueryContext(ctx context.Context, sqlText string, args ...interface{}) (*Rows, error) {
	stmt, err := db.PrepareContext(ctx, sqlText)
	if err != nil {
		return nil, err
	}
	return stmt.QueryContext(ctx, args...)
}

// ExecContext is DB.Exec with cancellation. DDL applies immediately (it is
// not generation-scheduled) and only honors an already-expired context.
func (db *DB) ExecContext(ctx context.Context, sqlText string, args ...interface{}) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	ast, err := sql.Parse(sqlText)
	if err != nil {
		return Result{}, err
	}
	switch s := ast.(type) {
	case *sql.CreateTableStmt:
		return Result{}, db.createTable(s)
	case *sql.CreateIndexStmt:
		return Result{}, db.createIndex(s)
	}
	stmt, err := db.PrepareContext(ctx, sqlText)
	if err != nil {
		return Result{}, err
	}
	return stmt.ExecContext(ctx, args...)
}

// BeginContext is Begin honoring an already-expired context (opening a
// transaction takes a snapshot but never blocks on a generation).
func (db *DB) BeginContext(ctx context.Context) (*Tx, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return db.Begin(), nil
}
