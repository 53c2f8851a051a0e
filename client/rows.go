package client

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"shareddb/internal/types"
	"shareddb/internal/wire"
)

// Rows is a streaming result cursor, mirroring the in-process Rows
// iteration API (Columns/Next/Row/Scan/All/Err/Close) over wire frames.
//
// Unlike the in-process package — where results are fully materialized
// before Query returns and Err is always nil — a network cursor can fail
// mid-stream: if the connection is lost between batches, Next returns
// false and Err reports the cause. Loops written in database/sql style
// (iterate, then check Err) are therefore correct against both packages;
// loops that skip the Err check silently mistake a dead connection for
// end-of-result — which is exactly the bug this cursor's Err contract
// exists to prevent.
type Rows struct {
	cl    *call
	cols  []string
	batch []types.Row
	pos   int
	total int
	done  bool
	err   error
}

// Columns returns the result column names.
func (r *Rows) Columns() []string { return append([]string(nil), r.cols...) }

// Next advances the cursor, fetching the next batch frame when the
// current one is exhausted; it must be called before the first Scan. It
// returns false at end of result or on error — check Err to tell the two
// apart.
func (r *Rows) Next() bool {
	if r.done || r.err != nil {
		return false
	}
	r.pos++
	if r.pos < len(r.batch) {
		return true
	}
	for {
		m, err := r.cl.next(context.Background())
		if err != nil {
			r.err = err
			r.batch, r.pos = nil, -1
			return false
		}
		switch m := m.(type) {
		case wire.RowBatch:
			if len(m.Rows) == 0 {
				continue
			}
			r.batch, r.pos = m.Rows, 0
			return true
		case wire.RowsDone:
			r.total = int(m.Total)
			r.done = true
			r.batch, r.pos = nil, -1
			return false
		case wire.Error:
			r.err = &ServerError{Code: m.Code, Msg: m.Msg}
			r.batch, r.pos = nil, -1
			return false
		default:
			r.err = fmt.Errorf("client: unexpected cursor frame %T", m)
			r.batch, r.pos = nil, -1
			return false
		}
	}
}

// Row returns the current row's raw values.
func (r *Rows) Row() types.Row {
	if r.pos < 0 || r.pos >= len(r.batch) {
		return nil
	}
	return r.batch[r.pos]
}

// All drains the cursor and returns every remaining row. Check Err
// afterwards: a mid-stream connection loss truncates the slice.
func (r *Rows) All() []types.Row {
	var out []types.Row
	for r.Next() {
		// Take the rest of the batch in one append.
		out = append(out, r.batch[r.pos:]...)
		r.pos = len(r.batch) - 1
	}
	return out
}

// Total returns the server-reported row count, valid once the cursor is
// exhausted cleanly.
func (r *Rows) Total() int { return r.total }

// Err reports the error, if any, encountered during iteration — a
// connection lost mid-cursor, a server-side failure frame, or a protocol
// violation. It returns nil after a clean end of result.
func (r *Rows) Err() error {
	if r.err == nil || errors.Is(r.err, errRowsClosed) {
		return nil
	}
	return r.err
}

// errRowsClosed marks a cursor abandoned by Close rather than failed;
// Err filters it out so a deliberate early Close does not read as a
// connection error.
var errRowsClosed = errors.New("client: rows closed")

// Close abandons the cursor. The connection keeps draining the result's
// remaining frames in the background (retiring the request id and its
// window slot); iteration after Close returns no rows. Safe to defer in
// database/sql style and to call more than once.
func (r *Rows) Close() error {
	if r.done || r.err != nil {
		return nil
	}
	r.err = errRowsClosed
	r.batch, r.pos = nil, -1
	r.cl.abandon()
	return nil
}

// Scan copies the current row into dest pointers (*int64, *int,
// *float64, *string, *bool, *time.Time or *types.Value), binding
// destinations to the row's leading columns (types.Row.Scan, the in-process
// Rows.Scan's rule).
func (r *Rows) Scan(dest ...interface{}) error {
	return r.Row().Scan(dest...)
}

// SubscriptionUpdate is one standing-query delivery: an initial full
// result (Full set, Rows populated), then per-generation Added/Removed
// deltas — the wire form of the in-process contract.
type SubscriptionUpdate struct {
	Gen     uint64
	Full    bool
	Rows    []types.Row
	Added   []types.Row
	Removed []types.Row
}

// Subscription is a standing query registered over the connection.
// Updates arrive as push frames demultiplexed onto Updates; the channel
// closes when the subscription ends (Close, context cancellation, or
// connection loss).
type Subscription struct {
	c    *conn
	id   uint64 // set by the demultiplexer on SUB_OK
	ch   chan SubscriptionUpdate
	done chan struct{}
	once sync.Once
}

// Updates returns the delivery channel; ranging over it terminates when
// the subscription closes.
func (s *Subscription) Updates() <-chan SubscriptionUpdate { return s.ch }

// Done is closed when the subscription is detached.
func (s *Subscription) Done() <-chan struct{} { return s.done }

// Close detaches the standing query: the server is told to unsubscribe
// (best-effort) and the Updates channel closes. Safe to call more than
// once and after connection loss.
func (s *Subscription) Close() error {
	s.once.Do(func() {
		s.c.mu.Lock()
		delete(s.c.subs, s.id)
		close(s.ch)
		close(s.done)
		s.c.mu.Unlock()
		// Fire-and-forget: the server also reaps subscriptions when the
		// connection ends, so a lost UNSUB only delays cleanup.
		s.c.sendNoReply(wire.Ref{Ref: s.id}.Append(nil, wire.TUnsubscribe))
	})
	return nil
}

// shutdown closes the channels without the UNSUB round trip; called by
// the demultiplexer when the connection dies (the subscription is
// already unregistered).
func (s *Subscription) shutdown() {
	s.once.Do(func() {
		s.c.mu.Lock()
		close(s.ch)
		close(s.done)
		s.c.mu.Unlock()
	})
}
