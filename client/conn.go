package client

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"shareddb/internal/types"
	"shareddb/internal/wire"
)

// conn is the single multiplexed connection behind a DB.
//
// Concurrency shape: callers queue their requests on the coalescing outbox
// (whose flusher encodes and writes everything queued while the previous
// write was in flight) and park on per-call queues; one reader goroutine
// demultiplexes every inbound frame by request id. The window semaphore
// bounds how many Query/Exec calls are in flight; prepare/stats/ping/
// subscribe ride outside the window (they are not generation work).
type conn struct {
	cfg Config
	nc  net.Conn
	rd  *wire.Reader // owned by the reader goroutine after the handshake
	out *wire.Outbox

	// sem is the in-flight window: buffered sends acquire, the reader
	// releases as terminal frames arrive.
	sem chan struct{}

	mu         sync.Mutex
	nextID     uint64
	calls      map[uint64]*call
	subs       map[uint64]*Subscription
	err        error // terminal connection error; nil while healthy
	closed     bool  // orderly close requested
	readerDone chan struct{}
}

// request is what a call asks of the server; the outbox's flusher encodes it
// (call.AppendFrames) straight into the buffer it writes.
type request struct {
	typ    wire.Type
	stmt   uint64 // QUERY / EXEC
	sql    string // PREPARE / QUERY_SQL / EXEC_SQL / SUBSCRIBE
	params []types.Value
}

// call is one pending request: the demultiplexer appends decoded response
// frames to queue — all the frames of the response that one read delivered
// at a time — and the caller pops them. notify has capacity 1 — a delivery
// always leaves either a queued frame or a pending notification, so a
// waiting caller never misses a wake-up.
type call struct {
	id       uint64
	req      request
	windowed bool
	sub      *Subscription // subscribe calls: registered by the reader on SUB_OK

	mu      sync.Mutex
	queue   []interface{}
	head    int // queue[:head] is consumed
	notify  chan struct{}
	done    bool
	err     error
	discard bool // abandoned: drop frames, keep consuming to the terminal
}

// AppendFrames encodes the call's request frame (wire.Encoder).
func (cl *call) AppendFrames(dst []byte) []byte {
	switch cl.req.typ {
	case wire.TQuery, wire.TExec:
		return wire.StmtCall{ID: cl.id, Stmt: cl.req.stmt, Params: cl.req.params}.Append(dst, cl.req.typ)
	case wire.TPrepare:
		return wire.Prepare{ID: cl.id, SQL: cl.req.sql}.Append(dst)
	case wire.TStats, wire.TPing:
		return wire.Simple{ID: cl.id}.Append(dst, cl.req.typ)
	default: // QUERY_SQL, EXEC_SQL, SUBSCRIBE
		return wire.SQLCall{ID: cl.id, SQL: cl.req.sql, Params: cl.req.params}.Append(dst, cl.req.typ)
	}
}

// deliver hands the caller a run of response frames with one wake-up.
func (cl *call) deliver(msgs []interface{}, terminal bool) {
	cl.mu.Lock()
	if !cl.discard {
		cl.queue = append(cl.queue, msgs...)
	}
	if terminal {
		cl.done = true
	}
	cl.mu.Unlock()
	select {
	case cl.notify <- struct{}{}:
	default:
	}
}

func (cl *call) fail(err error) {
	cl.mu.Lock()
	if cl.err == nil {
		cl.err = err
	}
	cl.done = true
	cl.mu.Unlock()
	select {
	case cl.notify <- struct{}{}:
	default:
	}
}

// next blocks for the call's next response frame.
func (cl *call) next(ctx context.Context) (interface{}, error) {
	for {
		cl.mu.Lock()
		if cl.head < len(cl.queue) {
			m := cl.queue[cl.head]
			cl.queue[cl.head] = nil
			if cl.head++; cl.head == len(cl.queue) {
				cl.queue, cl.head = cl.queue[:0], 0
			}
			cl.mu.Unlock()
			return m, nil
		}
		err, done := cl.err, cl.done
		cl.mu.Unlock()
		if err != nil {
			return nil, err
		}
		if done {
			return nil, fmt.Errorf("%w: response stream ended unexpectedly", ErrClosed)
		}
		select {
		case <-cl.notify:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// abandon detaches the caller: frames already queued are dropped and
// future ones discarded, but the demultiplexer keeps consuming to the
// terminal frame so the request id retires and its window slot frees.
func (cl *call) abandon() {
	cl.mu.Lock()
	cl.discard = true
	cl.queue, cl.head = nil, 0
	cl.mu.Unlock()
}

// dial connects and performs the HELLO handshake synchronously, then
// starts the demultiplexer.
func dial(cfg Config) (*conn, error) {
	d := net.Dialer{Timeout: cfg.DialTimeout}
	nc, err := d.Dial("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	return handshake(nc, cfg)
}

// handshake runs the HELLO exchange over an established transport and
// returns the live conn. Split from dial so tests can drive net.Pipe ends.
func handshake(nc net.Conn, cfg Config) (*conn, error) {
	if cfg.DialTimeout > 0 {
		nc.SetDeadline(time.Now().Add(cfg.DialTimeout))
	}
	if _, err := nc.Write(wire.Hello{Version: wire.Version, Window: uint64(cfg.Window)}.Append(nil)); err != nil {
		nc.Close()
		return nil, fmt.Errorf("client: handshake: %w", err)
	}
	rd := wire.NewReader(nc)
	typ, payload, err := rd.Next()
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("client: handshake: %w", err)
	}
	switch typ {
	case wire.THelloOK:
		if _, err := wire.DecodeHelloOK(payload); err != nil {
			nc.Close()
			return nil, fmt.Errorf("client: handshake: %w", err)
		}
	case wire.TErr:
		m, derr := wire.DecodeError(payload)
		nc.Close()
		if derr != nil {
			return nil, fmt.Errorf("client: handshake: %w", derr)
		}
		return nil, &ServerError{Code: m.Code, Msg: m.Msg}
	default:
		nc.Close()
		return nil, fmt.Errorf("client: handshake: unexpected frame %v", typ)
	}
	if cfg.DialTimeout > 0 {
		nc.SetDeadline(time.Time{})
	}
	c := &conn{
		cfg:        cfg,
		nc:         nc,
		rd:         rd,
		out:        wire.NewOutbox(nc),
		sem:        make(chan struct{}, cfg.Window),
		calls:      map[uint64]*call{},
		subs:       map[uint64]*Subscription{},
		readerDone: make(chan struct{}),
	}
	go c.readLoop()
	return c, nil
}

// readLoop is the demultiplexer: every inbound frame routes to its
// pending call (by request id) or subscription (by subscription id). The
// server writes a response's frames contiguously, so the frames of one
// response that a single read delivered reach their call as one group — one
// table lookup, one wake-up — instead of frame by frame. A read or protocol
// error fails every pending call — which is how a connection lost
// mid-cursor surfaces from Rows.Err.
func (c *conn) readLoop() {
	defer close(c.readerDone)
	var g group
	for {
		typ, payload, err := c.rd.Next()
		if err == nil {
			err = c.route(&g, typ, payload)
		}
		if err != nil {
			c.deliver(&g)
			c.fail(err)
			return
		}
		if !c.rd.Buffered() {
			c.deliver(&g)
		}
	}
}

// group is a run of consecutive response frames for one request id,
// collected from the current read burst.
type group struct {
	id       uint64
	msgs     []interface{}
	terminal bool
}

// add appends one response frame, first delivering the group collected so
// far when it belongs to another request; a terminal frame closes the group.
func (c *conn) add(g *group, id uint64, msg interface{}, terminal bool) {
	if len(g.msgs) > 0 && g.id != id {
		c.deliver(g)
	}
	g.id, g.terminal = id, terminal
	g.msgs = append(g.msgs, msg)
	if terminal {
		c.deliver(g)
	}
}

func (c *conn) route(g *group, typ wire.Type, payload []byte) error {
	switch typ {
	case wire.TPrepareOK:
		m, err := wire.DecodePrepareOK(payload)
		if err != nil {
			return err
		}
		c.add(g, m.ID, m, true)
	case wire.TRowsHeader:
		m, err := wire.DecodeRowsHeader(payload)
		if err != nil {
			return err
		}
		c.add(g, m.ID, m, false)
	case wire.TRowBatch:
		m, err := wire.DecodeRowBatch(payload)
		if err != nil {
			return err
		}
		c.add(g, m.ID, m, false)
	case wire.TRowsDone:
		m, err := wire.DecodeRowsDone(payload)
		if err != nil {
			return err
		}
		c.add(g, m.ID, m, true)
	case wire.TExecOK:
		m, err := wire.DecodeExecOK(payload)
		if err != nil {
			return err
		}
		c.add(g, m.ID, m, true)
	case wire.TErr:
		m, err := wire.DecodeError(payload)
		if err != nil {
			return err
		}
		c.add(g, m.ID, m, true)
	case wire.TBusy:
		m, err := wire.DecodeBusy(payload)
		if err != nil {
			return err
		}
		c.add(g, m.ID, m, true)
	case wire.TStatsOK:
		m, err := wire.DecodeStatsOK(payload)
		if err != nil {
			return err
		}
		c.add(g, m.ID, m, true)
	case wire.TPong:
		m, err := wire.DecodeSimple(payload)
		if err != nil {
			return err
		}
		c.add(g, m.ID, m, true)
	case wire.TSubOK:
		m, err := wire.DecodeSubOK(payload)
		if err != nil {
			return err
		}
		// Register the subscription before delivering the ack: a push
		// frame may follow SUB_OK on the very next read.
		c.mu.Lock()
		if cl := c.calls[m.ID]; cl != nil && cl.sub != nil {
			cl.sub.id = m.Sub
			c.subs[m.Sub] = cl.sub
		}
		c.mu.Unlock()
		c.add(g, m.ID, m, true)
	case wire.TSubPush:
		m, err := wire.DecodeSubPush(payload)
		if err != nil {
			return err
		}
		c.mu.Lock()
		if s := c.subs[m.Sub]; s != nil {
			// Non-blocking under the lock: a full subscriber drops the
			// update rather than stalling the demultiplexer.
			select {
			case s.ch <- SubscriptionUpdate{Gen: m.Gen, Full: m.Full,
				Rows: m.Rows, Added: m.Added, Removed: m.Removed}:
			default:
			}
		}
		c.mu.Unlock()
	case wire.TBye:
		// Orderly server goodbye; the read loop ends at EOF next.
	default:
		return fmt.Errorf("client: unexpected frame %v", typ)
	}
	return nil
}

// deliver hands a group of response frames to its pending call and empties
// the group. A terminal frame retires the request id and releases the
// call's window slot.
func (c *conn) deliver(g *group) {
	if len(g.msgs) == 0 {
		return
	}
	c.mu.Lock()
	cl := c.calls[g.id]
	if g.terminal {
		delete(c.calls, g.id)
	}
	c.mu.Unlock()
	// A response for an id we never issued is tolerated like an unknown stat.
	if cl != nil {
		if g.terminal && cl.windowed {
			<-c.sem
		}
		cl.deliver(g.msgs, g.terminal)
	}
	clear(g.msgs)
	g.msgs = g.msgs[:0]
}

// fail tears the connection down: every pending call and subscription
// learns the cause, window slots release, later calls fail fast.
func (c *conn) fail(cause error) {
	c.mu.Lock()
	if c.err == nil {
		if c.closed {
			c.err = ErrClosed
		} else {
			c.err = fmt.Errorf("%w: %v", ErrClosed, cause)
		}
	}
	err := c.err
	calls := c.calls
	subs := c.subs
	c.calls = map[uint64]*call{}
	c.subs = map[uint64]*Subscription{}
	c.mu.Unlock()
	c.nc.Close()
	for _, cl := range calls {
		if cl.windowed {
			<-c.sem
		}
		cl.fail(err)
	}
	for _, s := range subs {
		s.shutdown()
	}
}

func (c *conn) errNow() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	if c.closed {
		return ErrClosed
	}
	return nil
}

// acquire takes a window slot, honoring cancellation and connection death.
func (c *conn) acquire(ctx context.Context) error {
	select {
	case c.sem <- struct{}{}:
		return nil
	case <-c.readerDone:
		return c.errNow()
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (c *conn) newCall(req request, windowed bool, sub *Subscription) (*call, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return nil, c.err
	}
	if c.closed {
		return nil, ErrClosed
	}
	c.nextID++
	cl := &call{id: c.nextID, req: req, windowed: windowed, sub: sub, notify: make(chan struct{}, 1)}
	c.calls[cl.id] = cl
	return cl, nil
}

// start registers a call for req and queues its request frame, taking a
// window slot first for windowed calls. Once it returns a call, the reader
// owns retiring it (and its slot): on the terminal frame, or when the
// connection fails.
func (c *conn) start(ctx context.Context, req request, windowed bool, sub *Subscription) (*call, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if windowed {
		if err := c.acquire(ctx); err != nil {
			return nil, err
		}
	}
	cl, err := c.newCall(req, windowed, sub)
	if err != nil {
		if windowed {
			<-c.sem
		}
		return nil, err
	}
	if !c.out.Enqueue(cl) {
		// The connection is closing or its writer failed; the reader is
		// about to fail every registered call, this one included.
		return nil, c.closedErr()
	}
	return cl, nil
}

// closedErr is the error of a connection known to be going down.
func (c *conn) closedErr() error {
	if err := c.errNow(); err != nil {
		return err
	}
	return ErrClosed
}

// sendNoReply queues a frame the server does not answer.
func (c *conn) sendNoReply(frame []byte) error {
	if !c.out.Send(frame) {
		return c.closedErr()
	}
	return nil
}

// roundTrip issues one request and returns its call and first response
// frame with BUSY/ERR already translated. Cancellation abandons the call —
// the demultiplexer still drains it to the terminal frame.
func (c *conn) roundTrip(ctx context.Context, req request, windowed bool, sub *Subscription) (*call, interface{}, error) {
	cl, err := c.start(ctx, req, windowed, sub)
	if err != nil {
		return nil, nil, err
	}
	m, err := cl.next(ctx)
	if err != nil {
		if ctx.Err() != nil {
			cl.abandon()
		}
		return nil, nil, err
	}
	switch m := m.(type) {
	case wire.Error:
		return nil, nil, &ServerError{Code: m.Code, Msg: m.Msg}
	case wire.Busy:
		return nil, nil, &OverloadError{Reason: m.Reason, RetryAfter: time.Duration(m.RetryAfterNs)}
	}
	return cl, m, nil
}

func (c *conn) prepare(ctx context.Context, sqlText string) (wire.PrepareOK, error) {
	_, m, err := c.roundTrip(ctx, request{typ: wire.TPrepare, sql: sqlText}, false, nil)
	if err != nil {
		return wire.PrepareOK{}, err
	}
	ok, isOK := m.(wire.PrepareOK)
	if !isOK {
		return wire.PrepareOK{}, fmt.Errorf("client: unexpected PREPARE response %T", m)
	}
	return ok, nil
}

// exec issues a windowed request whose response is a single EXEC_OK.
func (c *conn) exec(ctx context.Context, req request) (Result, error) {
	_, m, err := c.roundTrip(ctx, req, true, nil)
	if err != nil {
		return Result{}, err
	}
	ok, isOK := m.(wire.ExecOK)
	if !isOK {
		return Result{}, fmt.Errorf("client: unexpected EXEC response %T", m)
	}
	return Result{RowsAffected: int(ok.RowsAffected)}, nil
}

// startQuery issues a windowed read and returns its cursor once the
// result header arrives. The window slot stays held until the cursor's
// terminal frame — a streaming result is in-flight work.
func (c *conn) startQuery(ctx context.Context, req request) (*Rows, error) {
	cl, m, err := c.roundTrip(ctx, req, true, nil)
	if err != nil {
		return nil, err
	}
	if h, isHeader := m.(wire.RowsHeader); isHeader {
		return &Rows{cl: cl, cols: h.Columns, pos: -1}, nil
	}
	cl.abandon()
	return nil, fmt.Errorf("client: unexpected QUERY response %T", m)
}

func (c *conn) stats(ctx context.Context) (Stats, error) {
	_, m, err := c.roundTrip(ctx, request{typ: wire.TStats}, false, nil)
	if err != nil {
		return Stats{}, err
	}
	ok, isOK := m.(wire.StatsOK)
	if !isOK {
		return Stats{}, fmt.Errorf("client: unexpected STATS response %T", m)
	}
	return statsFromFields(ok.Fields), nil
}

func (c *conn) ping(ctx context.Context) error {
	_, m, err := c.roundTrip(ctx, request{typ: wire.TPing}, false, nil)
	if err != nil {
		return err
	}
	if _, isOK := m.(wire.Simple); !isOK {
		return fmt.Errorf("client: unexpected PING response %T", m)
	}
	return nil
}

// subscribe registers a standing query. The Subscription is created
// first and handed to the call so the demultiplexer can register it the
// moment SUB_OK arrives — a push frame may follow on the very next read,
// before this goroutine even observes the ack.
func (c *conn) subscribe(ctx context.Context, sqlText string, params []types.Value, bufCap int) (*Subscription, error) {
	sub := &Subscription{c: c, ch: make(chan SubscriptionUpdate, bufCap), done: make(chan struct{})}
	_, m, err := c.roundTrip(ctx, request{typ: wire.TSubscribe, sql: sqlText, params: params}, false, sub)
	if err != nil {
		return nil, err
	}
	if _, isOK := m.(wire.SubOK); !isOK {
		return nil, fmt.Errorf("client: unexpected SUBSCRIBE response %T", m)
	}
	return sub, nil
}

func (c *conn) closeStmt(handle uint64) error {
	// CLOSE_STMT has no reply: handles are session-local names and the
	// server forgets them silently.
	return c.sendNoReply(wire.Ref{Ref: handle}.Append(nil, wire.TCloseStmt))
}

// close is the orderly shutdown: a QUIT behind whatever is already queued,
// then the socket closes once the flusher has written it.
func (c *conn) close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		<-c.readerDone
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	c.out.Send(wire.AppendEmpty(nil, wire.TQuit))
	c.out.CloseWhenDrained()
	<-c.readerDone
	return nil
}
