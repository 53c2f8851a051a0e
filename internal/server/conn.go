package server

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync/atomic"

	"shareddb"
	"shareddb/internal/core"
	"shareddb/internal/dbapi"
	"shareddb/internal/plan"
	"shareddb/internal/sql"
	"shareddb/internal/types"
	"shareddb/internal/wire"
)

// conn is one binary-protocol session.
//
// Concurrency shape: the reader goroutine owns all dispatch, the burst under
// construction and the handle/subscription tables below. A request's reply
// slot is handed from the reader (acquire, fill in) to the engine (the
// completion hook enqueues it on the outbox) to the outbox's flusher
// (encode, release); the free channel is the only state all three share.
type conn struct {
	srv *Server
	nc  net.Conn
	rd  *wire.Reader
	out *wire.Outbox

	// free is the in-flight window: it holds the reply slots no request
	// occupies. The reader takes one per QUERY/EXEC; the flusher returns it
	// once the response is encoded. With the whole window in flight an
	// empty channel parks the reader — TCP back-pressure is the flow
	// control. slots is every slot made so far: they are made on demand, so
	// a connection's memory follows the depth it pipelines to, not the
	// window it may use.
	free  chan *reply
	slots []*reply

	// Reader-owned session state (no locks).
	burst    []core.Call // decoded from the current read burst, not yet submitted
	stmts    map[uint64]*stmtHandle
	nextStmt uint64
	subs     map[uint64]*core.Subscription
	nextSub  uint64
}

// stmtHandle is a registry statement plus what every reply to it repeats.
type stmtHandle struct {
	st   *plan.Statement
	cols []string // result column names
}

func newConn(s *Server, nc net.Conn) *conn {
	return &conn{
		srv:   s,
		nc:    nc,
		rd:    wire.NewReader(nc),
		out:   wire.NewOutbox(nc),
		free:  make(chan *reply, s.opts.Window),
		stmts: map[uint64]*stmtHandle{},
		subs:  map[uint64]*core.Subscription{},
	}
}

// reply is one slot of the in-flight window: what a submitted request needs
// to become response frames. It is the request's completion hook and the
// outbox message that encodes the response, so a request in flight costs no
// goroutine and no allocation beyond its engine result.
type reply struct {
	c     *conn
	id    uint64
	cols  []string
	query bool // QUERY (row cursor) or EXEC (affected count)
	// res is the request's pending result while the slot is occupied; the
	// reader reads it at teardown to abandon what the peer will never see.
	res atomic.Pointer[core.Result]
}

// Completed is the engine's completion hook: it runs on whichever goroutine
// finished the result and only queues the slot for the flusher.
func (r *reply) Completed(*core.Result) {
	if !r.c.out.Enqueue(r) {
		r.release() // connection gone: nothing to encode
	}
}

// AppendFrames encodes the response on the outbox's flusher, straight into
// the buffer the next write sends, and frees the window slot. Responses are
// encoded in engine-completion order, not request order — that is the
// protocol's out-of-order completion.
func (r *reply) AppendFrames(dst []byte) []byte {
	res := r.res.Load()
	switch {
	case res.Err != nil:
		dst = appendFailure(dst, r.id, res.Err)
	case r.query:
		dst = appendCursor(dst, r.id, r.cols, res.Rows)
	default:
		dst = wire.ExecOK{ID: r.id, RowsAffected: uint64(res.RowsAffected)}.Append(dst)
	}
	r.release()
	return dst
}

func (r *reply) release() {
	r.res.Store(nil)
	r.c.free <- r
}

// readLoop is the connection's lifetime: handshake, then frame dispatch
// until the peer goes away, misbehaves, or says QUIT. A read burst — every
// frame one read syscall delivered — is the unit of work: its QUERY/EXEC
// frames collect into c.burst and enter the engine with one SubmitBatch
// when the buffer runs dry. Malformed input is answered with a BAD_REQUEST
// error frame and the connection is closed — deliberately without any
// recover(): the fuzz suite's no-panic property is only meaningful if a
// panic would actually crash the test.
func (c *conn) readLoop() {
	defer c.teardown()

	typ, payload, err := c.rd.Next()
	if err != nil {
		c.protocolError(err)
		return
	}
	if typ != wire.THello {
		c.protocolError(fmt.Errorf("first frame must be HELLO, got %v", typ))
		return
	}
	hello, err := wire.DecodeHello(payload)
	if err != nil {
		c.protocolError(err)
		return
	}
	if hello.Version != wire.Version {
		c.finish(wire.Error{Code: wire.CodeVersion,
			Msg: fmt.Sprintf("protocol version %d not supported (server speaks %d)", hello.Version, wire.Version)}.Append(nil))
		return
	}
	c.out.Send(wire.HelloOK{Version: wire.Version, Window: uint64(c.srv.opts.Window)}.Append(nil))

	for {
		typ, payload, err = c.rd.Next()
		if err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				c.protocolError(err)
			}
			return
		}
		if !c.dispatch(typ, payload) {
			return
		}
		if !c.rd.Buffered() {
			c.flush()
		}
	}
}

// flush submits the burst collected so far as one batch.
func (c *conn) flush() {
	if len(c.burst) == 0 {
		return
	}
	c.srv.exec.SubmitBatch(c.burst)
	clear(c.burst)
	c.burst = c.burst[:0]
}

// dispatch handles one frame; false ends the session. QUERY/EXEC frames only
// join the burst; every other frame first submits the burst collected so
// far, so frames take effect in the order the peer sent them and nothing
// waits unsubmitted behind a PREPARE's pipeline quiesce.
func (c *conn) dispatch(typ wire.Type, payload []byte) bool {
	if typ != wire.TQuery && typ != wire.TExec {
		c.flush()
	}
	switch typ {
	case wire.TPrepare:
		m, err := wire.DecodePrepare(payload)
		if err != nil {
			c.protocolError(err)
			return false
		}
		c.handlePrepare(m)
	case wire.TQuery, wire.TExec:
		m, err := wire.DecodeStmtCall(payload)
		if err != nil {
			c.protocolError(err)
			return false
		}
		c.handleStmtCall(m, typ == wire.TQuery)
	case wire.TQuerySQL, wire.TExecSQL:
		m, err := wire.DecodeSQLCall(payload)
		if err != nil {
			c.protocolError(err)
			return false
		}
		c.handleSQLCall(m, typ == wire.TQuerySQL)
	case wire.TCloseStmt:
		m, err := wire.DecodeRef(payload)
		if err != nil {
			c.protocolError(err)
			return false
		}
		// Handles are session-local names for registry statements; closing
		// forgets the name (the registry keeps the statement — it is shared).
		delete(c.stmts, m.Ref)
	case wire.TSubscribe:
		m, err := wire.DecodeSQLCall(payload)
		if err != nil {
			c.protocolError(err)
			return false
		}
		c.handleSubscribe(m)
	case wire.TUnsubscribe:
		m, err := wire.DecodeRef(payload)
		if err != nil {
			c.protocolError(err)
			return false
		}
		sub, ok := c.subs[m.Ref]
		if !ok {
			c.out.Send(wire.Error{ID: m.ID, Code: wire.CodeUnknownSub,
				Msg: fmt.Sprintf("no subscription %d", m.Ref)}.Append(nil))
			return true
		}
		sub.Close()
		delete(c.subs, m.Ref)
		c.out.Send(wire.ExecOK{ID: m.ID}.Append(nil))
	case wire.TStats:
		m, err := wire.DecodeSimple(payload)
		if err != nil {
			c.protocolError(err)
			return false
		}
		c.out.Send(statsFrame(m.ID, c.srv.db.Stats()))
	case wire.TPing:
		m, err := wire.DecodeSimple(payload)
		if err != nil {
			c.protocolError(err)
			return false
		}
		c.out.Send(wire.Simple{ID: m.ID}.Append(nil, wire.TPong))
	case wire.TQuit:
		if err := wire.DecodeEmpty(payload); err != nil {
			c.protocolError(err)
			return false
		}
		c.finish(wire.AppendEmpty(nil, wire.TBye))
		return false
	default:
		c.protocolError(fmt.Errorf("unexpected frame %v", typ))
		return false
	}
	return true
}

func (c *conn) handlePrepare(m wire.Prepare) {
	st, err := c.srv.exec.Prepare(m.SQL)
	if err != nil {
		c.fail(m.ID, err)
		return
	}
	h := &stmtHandle{st: st, cols: schemaColumns(st.OutSchema)}
	c.nextStmt++
	c.stmts[c.nextStmt] = h
	c.out.Send(wire.PrepareOK{ID: m.ID, Stmt: c.nextStmt, NumParams: uint64(st.NumParams),
		IsWrite: st.IsWrite(), Columns: h.cols}.Append(nil))
}

// handleStmtCall is the pipelined hot path: resolve the handle, add the call
// to the burst, and go straight back to decoding. A window of identical
// queries therefore enters the engine in one SubmitBatch — which is what
// lets the fold index collapse them into one activation.
func (c *conn) handleStmtCall(m wire.StmtCall, isQuery bool) {
	h, ok := c.stmts[m.Stmt]
	if !ok {
		c.out.Send(wire.Error{ID: m.ID, Code: wire.CodeUnknownStmt,
			Msg: fmt.Sprintf("no prepared statement %d", m.Stmt)}.Append(nil))
		return
	}
	c.submit(m.ID, h.st, h.cols, m.Params, isQuery)
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
		c.out.Send(appendCursor(nil, m.ID, []string{"plan"}, rows))
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
			c.out.Send(wire.ExecOK{ID: m.ID}.Append(nil))
			return
		}
	}
	st, err := c.srv.exec.Prepare(m.SQL)
	if err != nil {
		c.fail(m.ID, err)
		return
	}
	c.submit(m.ID, st, schemaColumns(st.OutSchema), m.Params, isQuery)
}

// isExplainPlan matches "EXPLAIN PLAN" in any case and spacing, without
// allocating (it runs on every ad-hoc query).
func isExplainPlan(sqlText string) bool {
	t := strings.TrimSpace(sqlText)
	return len(t) > 7 && strings.EqualFold(t[:7], "EXPLAIN") &&
		t[7] <= ' ' && strings.EqualFold(strings.TrimSpace(t[7:]), "PLAN")
}

// submit validates one call, takes a window slot for it and adds it to the
// burst.
func (c *conn) submit(id uint64, st *plan.Statement, cols []string, params []types.Value, isQuery bool) {
	if isQuery && st.IsWrite() {
		c.out.Send(wire.Error{ID: id, Code: wire.CodeBadRequest,
			Msg: "QUERY on a write statement"}.Append(nil))
		return
	}
	if len(params) != st.NumParams {
		c.out.Send(wire.Error{ID: id, Code: wire.CodeBadRequest,
			Msg: fmt.Sprintf("statement wants %d params, got %d", st.NumParams, len(params))}.Append(nil))
		return
	}
	r := c.acquire()
	r.id, r.cols, r.query = id, cols, isQuery
	res := core.NewHookedResult(r)
	r.res.Store(res)
	c.burst = append(c.burst, core.Call{Stmt: st, Params: params, Result: res})
}

// acquire takes a window slot: a free one, else a new one while the window
// has room. With the whole window in flight it submits the burst collected
// so far — only submitted requests ever free a slot — and parks until the
// flusher releases one.
func (c *conn) acquire() *reply {
	select {
	case r := <-c.free:
		return r
	default:
	}
	if len(c.slots) < cap(c.free) {
		r := &reply{c: c}
		c.slots = append(c.slots, r)
		return r
	}
	c.flush()
	return <-c.free
}

// appendCursor encodes one streamed result: header, batches of at most
// rowsPerBatch rows and the terminal frame, contiguously, so frames of
// different responses never interleave.
func appendCursor(dst []byte, id uint64, columns []string, rows []types.Row) []byte {
	dst = wire.RowsHeader{ID: id, Columns: columns}.Append(dst)
	for off := 0; off < len(rows); off += rowsPerBatch {
		end := min(off+rowsPerBatch, len(rows))
		dst = wire.RowBatch{ID: id, Rows: rows[off:end]}.Append(dst)
	}
	return wire.RowsDone{ID: id, Total: uint64(len(rows))}.Append(dst)
}

func (c *conn) handleSubscribe(m wire.SQLCall) {
	st, err := c.srv.exec.Prepare(m.SQL)
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
	c.out.Send(wire.SubOK{ID: m.ID, Sub: id}.Append(nil))
	c.srv.wg.Add(1)
	go func() {
		defer c.srv.wg.Done()
		for u := range sub.Updates() {
			c.out.Send(wire.SubPush{Sub: id, Gen: u.Gen, Full: u.Full,
				Rows: u.Rows, Added: u.Added, Removed: u.Removed}.Append(nil))
		}
	}()
}

// fail answers a request the engine never saw with its error.
func (c *conn) fail(id uint64, err error) {
	c.out.Send(appendFailure(nil, id, err))
}

// appendFailure translates an engine error: admission rejections become BUSY
// frames carrying the RetryAfter hint, everything else an INTERNAL error
// frame.
func appendFailure(dst []byte, id uint64, err error) []byte {
	var oe *shareddb.OverloadError
	if errors.As(err, &oe) {
		retry := oe.RetryAfter
		if retry <= 0 {
			retry = 1
		}
		return wire.Busy{ID: id, RetryAfterNs: uint64(retry), Reason: oe.Reason}.Append(dst)
	}
	return wire.Error{ID: id, Code: wire.CodeInternal, Msg: err.Error()}.Append(dst)
}

// protocolError reports malformed input and ends the session.
func (c *conn) protocolError(err error) {
	c.finish(wire.Error{Code: wire.CodeBadRequest, Msg: err.Error()}.Append(nil))
}

// finish ends the session in order: everything decoded before the final
// frame is submitted and answered first — the reader collects every slot it
// ever made, which the flusher frees only after encoding the slot's
// response — then last goes out and the connection closes behind it.
func (c *conn) finish(last []byte) {
	c.flush()
	for range c.slots {
		<-c.free
	}
	c.out.Send(last)
	c.out.CloseWhenDrained()
}

// errPeerGone abandons the requests of a connection that went away.
var errPeerGone = errors.New("server: connection closed")

// teardown closes the session's standing queries and the socket, and
// abandons whatever is still in flight: nobody will read those responses,
// so requests still queued vacate at the next batch formation instead of
// costing a generation their activations (a lead other connections folded
// into still runs). After an orderly finish nothing is in flight.
func (c *conn) teardown() {
	for _, r := range c.slots {
		if res := r.res.Load(); res != nil {
			res.Abandon(errPeerGone)
		}
	}
	for _, sub := range c.subs {
		sub.Close()
	}
	c.out.CloseWhenDrained()
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

// statsFrame renders the engine counter snapshot, one field per counter in
// dbapi.StatNames order. Clients match by name and skip names they do not
// know; they compute FoldHitRate from the counters.
func statsFrame(id uint64, st shareddb.Stats) []byte {
	fields := make([]wire.StatField, len(dbapi.StatNames))
	for i, v := range st.Values() {
		fields[i] = wire.StatField{Name: dbapi.StatNames[i], Value: v}
	}
	return wire.StatsOK{ID: id, Fields: fields}.Append(nil)
}
