package server

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"

	"shareddb"
	"shareddb/internal/core"
	"shareddb/internal/plan"
	"shareddb/internal/sql"
	"shareddb/internal/types"
	"shareddb/internal/wire"
)

// conn is one binary-protocol session.
//
// Concurrency shape: the reader goroutine owns all dispatch and the
// handle/subscription tables below; waiter and pusher goroutines only
// touch the engine result they wait on and the outbox. The sole
// reader-vs-waiter shared state is the window semaphore.
type conn struct {
	srv *Server
	nc  net.Conn
	out *outbox

	// sem is the in-flight window: acquired by the reader before each
	// QUERY/EXEC submission, released by the waiter after the terminal
	// frame is enqueued. A full window parks the reader — TCP back-
	// pressure is the flow control.
	sem chan struct{}

	// Reader-owned session state (no locks).
	stmts    map[uint64]*plan.Statement
	nextStmt uint64
	subs     map[uint64]*core.Subscription
	nextSub  uint64
}

func newConn(s *Server, nc net.Conn) *conn {
	return &conn{
		srv:   s,
		nc:    nc,
		out:   newOutbox(nc),
		sem:   make(chan struct{}, s.opts.Window),
		stmts: map[uint64]*plan.Statement{},
		subs:  map[uint64]*core.Subscription{},
	}
}

// readLoop is the connection's lifetime: handshake, then frame dispatch
// until the peer goes away, misbehaves, or says QUIT. Malformed input is
// answered with a BAD_REQUEST error frame and the connection is closed —
// deliberately without any recover(): the fuzz suite's no-panic property
// is only meaningful if a panic would actually crash the test.
func (c *conn) readLoop() {
	defer c.teardown()

	var buf []byte
	typ, payload, buf, err := wire.ReadFrame(c.nc, buf)
	if err != nil {
		c.protocolError(0, err)
		return
	}
	if typ != wire.THello {
		c.protocolError(0, fmt.Errorf("first frame must be HELLO, got %v", typ))
		return
	}
	hello, err := wire.DecodeHello(payload)
	if err != nil {
		c.protocolError(0, err)
		return
	}
	if hello.Version != wire.Version {
		c.out.send(wire.Error{Code: wire.CodeVersion,
			Msg: fmt.Sprintf("protocol version %d not supported (server speaks %d)", hello.Version, wire.Version)}.Append(nil))
		c.out.closeWhenDrained()
		return
	}
	c.out.send(wire.HelloOK{Version: wire.Version, Window: uint64(c.srv.opts.Window)}.Append(nil))

	for {
		typ, payload, buf, err = wire.ReadFrame(c.nc, buf)
		if err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				c.protocolError(0, err)
			}
			return
		}
		if !c.dispatch(typ, payload) {
			return
		}
	}
}

// dispatch handles one frame; false ends the session.
func (c *conn) dispatch(typ wire.Type, payload []byte) bool {
	switch typ {
	case wire.TPrepare:
		m, err := wire.DecodePrepare(payload)
		if err != nil {
			c.protocolError(0, err)
			return false
		}
		c.handlePrepare(m)
	case wire.TQuery, wire.TExec:
		m, err := wire.DecodeStmtCall(payload)
		if err != nil {
			c.protocolError(0, err)
			return false
		}
		c.handleStmtCall(m, typ == wire.TQuery)
	case wire.TQuerySQL, wire.TExecSQL:
		m, err := wire.DecodeSQLCall(payload)
		if err != nil {
			c.protocolError(0, err)
			return false
		}
		c.handleSQLCall(m, typ == wire.TQuerySQL)
	case wire.TCloseStmt:
		m, err := wire.DecodeRef(payload)
		if err != nil {
			c.protocolError(0, err)
			return false
		}
		// Handles are session-local names for registry statements; closing
		// forgets the name (the registry keeps the statement — it is shared).
		delete(c.stmts, m.Ref)
	case wire.TSubscribe:
		m, err := wire.DecodeSQLCall(payload)
		if err != nil {
			c.protocolError(0, err)
			return false
		}
		c.handleSubscribe(m)
	case wire.TUnsubscribe:
		m, err := wire.DecodeRef(payload)
		if err != nil {
			c.protocolError(0, err)
			return false
		}
		sub, ok := c.subs[m.Ref]
		if !ok {
			c.out.send(wire.Error{ID: m.ID, Code: wire.CodeUnknownSub,
				Msg: fmt.Sprintf("no subscription %d", m.Ref)}.Append(nil))
			return true
		}
		sub.Close()
		delete(c.subs, m.Ref)
		c.out.send(wire.ExecOK{ID: m.ID}.Append(nil))
	case wire.TStats:
		m, err := wire.DecodeSimple(payload)
		if err != nil {
			c.protocolError(0, err)
			return false
		}
		c.out.send(statsFrame(m.ID, c.srv.db.Stats()))
	case wire.TPing:
		m, err := wire.DecodeSimple(payload)
		if err != nil {
			c.protocolError(0, err)
			return false
		}
		c.out.send(wire.Simple{ID: m.ID}.Append(nil, wire.TPong))
	case wire.TQuit:
		if err := wire.DecodeEmpty(payload); err != nil {
			c.protocolError(0, err)
			return false
		}
		c.out.send(wire.AppendEmpty(nil, wire.TBye))
		c.out.closeWhenDrained()
		return false
	default:
		c.protocolError(0, fmt.Errorf("unexpected frame %v", typ))
		return false
	}
	return true
}

func (c *conn) handlePrepare(m wire.Prepare) {
	st, err := c.srv.prepare(m.SQL)
	if err != nil {
		c.fail(m.ID, err)
		return
	}
	c.nextStmt++
	h := c.nextStmt
	c.stmts[h] = st
	c.out.send(wire.PrepareOK{ID: m.ID, Stmt: h, NumParams: uint64(st.NumParams),
		IsWrite: st.IsWrite(), Columns: schemaColumns(st.OutSchema)}.Append(nil))
}

// handleStmtCall is the pipelined hot path: resolve the handle, submit
// asynchronously, hand the pending result to a waiter goroutine, and go
// straight back to reading. A window of identical queries is therefore
// pending in the engine simultaneously — which is what lets the fold index
// collapse them into one activation.
func (c *conn) handleStmtCall(m wire.StmtCall, isQuery bool) {
	st, ok := c.stmts[m.Stmt]
	if !ok {
		c.out.send(wire.Error{ID: m.ID, Code: wire.CodeUnknownStmt,
			Msg: fmt.Sprintf("no prepared statement %d", m.Stmt)}.Append(nil))
		return
	}
	c.submit(m.ID, st, m.Params, isQuery)
}

// handleSQLCall is the ad-hoc path: DDL applies synchronously (it is not
// generation-scheduled), EXPLAIN PLAN renders the global operator DAG as a
// one-column row set (one row per node; it never enters a generation),
// everything else resolves through the registry and submits like a handle
// call.
func (c *conn) handleSQLCall(m wire.SQLCall, isQuery bool) {
	if isQuery && isExplainPlan(m.SQL) {
		var rows []types.Row
		for _, l := range strings.Split(c.srv.db.DescribePlan(), "\n") {
			if l != "" {
				rows = append(rows, types.Row{types.NewString(l)})
			}
		}
		c.out.send(rowFrames(m.ID, []string{"plan"}, rows))
		return
	}
	if !isQuery {
		ast, err := sql.Parse(m.SQL)
		if err != nil {
			c.fail(m.ID, err)
			return
		}
		switch ast.(type) {
		case *sql.CreateTableStmt, *sql.CreateIndexStmt:
			if _, err := c.srv.db.Exec(m.SQL); err != nil {
				c.fail(m.ID, err)
				return
			}
			c.out.send(wire.ExecOK{ID: m.ID}.Append(nil))
			return
		}
	}
	st, err := c.srv.prepare(m.SQL)
	if err != nil {
		c.fail(m.ID, err)
		return
	}
	c.submit(m.ID, st, m.Params, isQuery)
}

// isExplainPlan matches "EXPLAIN PLAN" in any case and spacing, without
// allocating (it runs on every ad-hoc query).
func isExplainPlan(sqlText string) bool {
	t := strings.TrimSpace(sqlText)
	return len(t) > 7 && strings.EqualFold(t[:7], "EXPLAIN") &&
		t[7] <= ' ' && strings.EqualFold(strings.TrimSpace(t[7:]), "PLAN")
}

func (c *conn) submit(id uint64, st *plan.Statement, params []types.Value, isQuery bool) {
	if isQuery && st.IsWrite() {
		c.out.send(wire.Error{ID: id, Code: wire.CodeBadRequest,
			Msg: "QUERY on a write statement"}.Append(nil))
		return
	}
	if len(params) != st.NumParams {
		c.out.send(wire.Error{ID: id, Code: wire.CodeBadRequest,
			Msg: fmt.Sprintf("statement wants %d params, got %d", st.NumParams, len(params))}.Append(nil))
		return
	}
	c.sem <- struct{}{} // acquire window slot; parks the reader when full
	res := c.srv.exec.Submit(st, params)
	c.srv.wg.Add(1)
	go func() {
		defer c.srv.wg.Done()
		defer func() { <-c.sem }()
		c.await(id, res, isQuery)
	}()
}

// await is the waiter: it blocks on the engine result and enqueues the
// response frames. Waiters finish in engine-completion order, not request
// order — that is the protocol's out-of-order completion.
func (c *conn) await(id uint64, res *core.Result, isQuery bool) {
	if err := res.Wait(); err != nil {
		c.fail(id, err)
		return
	}
	if !isQuery {
		c.out.send(wire.ExecOK{ID: id, RowsAffected: uint64(res.RowsAffected)}.Append(nil))
		return
	}
	c.out.send(rowFrames(id, schemaColumns(res.Schema), res.Rows))
}

// rowFrames encodes one streamed cursor: header, batches of at most
// rowsPerBatch rows and the terminal frame, in one buffer that is enqueued as a unit so
// frames from concurrent waiters never interleave inside a response.
func rowFrames(id uint64, columns []string, rows []types.Row) []byte {
	frames := wire.RowsHeader{ID: id, Columns: columns}.Append(nil)
	for off := 0; off < len(rows); off += rowsPerBatch {
		end := min(off+rowsPerBatch, len(rows))
		frames = wire.RowBatch{ID: id, Rows: rows[off:end]}.Append(frames)
	}
	return wire.RowsDone{ID: id, Total: uint64(len(rows))}.Append(frames)
}

func (c *conn) handleSubscribe(m wire.SQLCall) {
	st, err := c.srv.prepare(m.SQL)
	if err != nil {
		c.fail(m.ID, err)
		return
	}
	sub, err := c.srv.exec.Subscribe(st, m.Params)
	if err != nil {
		c.fail(m.ID, err)
		return
	}
	c.nextSub++
	id := c.nextSub
	c.subs[id] = sub
	c.out.send(wire.SubOK{ID: m.ID, Sub: id}.Append(nil))
	c.srv.wg.Add(1)
	go func() {
		defer c.srv.wg.Done()
		for u := range sub.Updates() {
			c.out.send(wire.SubPush{Sub: id, Gen: u.Gen, Full: u.Full,
				Rows: u.Rows, Added: u.Added, Removed: u.Removed}.Append(nil))
		}
	}()
}

// fail translates an engine error: admission rejections become BUSY frames
// carrying the RetryAfter hint, everything else an INTERNAL error frame.
func (c *conn) fail(id uint64, err error) {
	var oe *shareddb.OverloadError
	if errors.As(err, &oe) {
		retry := oe.RetryAfter
		if retry <= 0 {
			retry = 1
		}
		c.out.send(wire.Busy{ID: id, RetryAfterNs: uint64(retry), Reason: oe.Reason}.Append(nil))
		return
	}
	c.out.send(wire.Error{ID: id, Code: wire.CodeInternal, Msg: err.Error()}.Append(nil))
}

// protocolError reports malformed input and ends the session.
func (c *conn) protocolError(id uint64, err error) {
	c.out.send(wire.Error{ID: id, Code: wire.CodeBadRequest, Msg: err.Error()}.Append(nil))
	c.out.closeWhenDrained()
}

// teardown closes the session's standing queries and the socket. Waiters
// still in flight drain into the dead outbox harmlessly.
func (c *conn) teardown() {
	for _, sub := range c.subs {
		sub.Close()
	}
	c.out.closeWhenDrained()
}

func schemaColumns(s *types.Schema) []string {
	if s == nil {
		return nil
	}
	out := make([]string, s.Len())
	for i, col := range s.Cols {
		out[i] = col.Name
	}
	return out
}

// statsFrame renders the engine counter snapshot. Names are the wire
// contract (clients match by name; unknown names are ignored), mirroring
// shareddb.Stats minus the derived rate — clients compute FoldHitRate from
// the counters.
func statsFrame(id uint64, st shareddb.Stats) []byte {
	return wire.StatsOK{ID: id, Fields: []wire.StatField{
		{Name: "generations", Value: st.Generations},
		{Name: "queries_run", Value: st.QueriesRun},
		{Name: "writes_applied", Value: st.WritesApplied},
		{Name: "folded_queries", Value: st.FoldedQueries},
		{Name: "subsumed_queries", Value: st.SubsumedQueries},
		{Name: "in_flight_generations", Value: uint64(st.InFlightGenerations)},
		{Name: "queue_depth", Value: uint64(st.QueueDepth)},
		{Name: "shed", Value: st.Shed},
		{Name: "rejected", Value: st.Rejected},
		{Name: "breaker_trips", Value: st.BreakerTrips},
		{Name: "subscriptions_active", Value: uint64(st.SubscriptionsActive)},
		{Name: "subscription_updates", Value: st.SubscriptionUpdates},
	}}.Append(nil)
}

// outbox is the connection's coalescing write path. Senders append
// complete frames under the lock; the first sender finding no flusher
// running starts one. While a flush syscall is in flight every other
// completion lands in the pending buffer and ships in the next syscall —
// under fan-in load, response writes amortize across completions instead
// of costing one syscall each.
type outbox struct {
	nc net.Conn

	mu       sync.Mutex
	queue    []byte
	spare    []byte // recycled flush buffer
	flushing bool
	closing  bool // close nc once the queue drains
	err      error
}

func newOutbox(nc net.Conn) *outbox { return &outbox{nc: nc} }

// send enqueues one or more complete frames for writing.
func (o *outbox) send(frames []byte) {
	o.mu.Lock()
	if o.err != nil || o.closing {
		o.mu.Unlock()
		return
	}
	o.queue = append(o.queue, frames...)
	if !o.flushing {
		o.flushing = true
		go o.flushLoop()
	}
	o.mu.Unlock()
}

// closeWhenDrained closes the socket after everything already enqueued has
// been written (or immediately when the outbox is idle or dead). Frames
// sent after this are dropped.
func (o *outbox) closeWhenDrained() {
	o.mu.Lock()
	if o.closing {
		o.mu.Unlock()
		return
	}
	o.closing = true
	idle := !o.flushing
	o.mu.Unlock()
	if idle {
		o.nc.Close()
	}
}

func (o *outbox) flushLoop() {
	for {
		o.mu.Lock()
		if len(o.queue) == 0 || o.err != nil {
			closing := o.closing
			o.flushing = false
			o.mu.Unlock()
			if closing {
				o.nc.Close()
			}
			return
		}
		buf := o.queue
		o.queue = o.spare[:0]
		o.mu.Unlock()

		_, err := o.nc.Write(buf)

		o.mu.Lock()
		o.spare = buf[:0]
		if err != nil && o.err == nil {
			o.err = err
			o.queue = nil
		}
		o.mu.Unlock()
		if err != nil {
			// The peer is gone; unblock the reader too.
			o.nc.Close()
		}
	}
}
