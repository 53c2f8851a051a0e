package server

import (
	"errors"
	"fmt"
	"net"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"shareddb"
	"shareddb/internal/core"
	"shareddb/internal/types"
	"shareddb/internal/wire"
)

// The tests in this file count what the program itself does — reads, writes,
// submissions, generations, goroutines — on a real loopback socket whose
// server end is wrapped in a counting net.Conn. Nothing is timed: where a
// test needs requests to sit in the engine's queue it holds dispatch with a
// long heartbeat and waits for the queue-depth counter, and where it needs
// completions to pile up behind a write it gates that write itself.

// countingConn counts the reads that returned data and the writes, and can
// hold writes at a gate.
type countingConn struct {
	net.Conn
	reads, writes atomic.Int64
	gate          atomic.Pointer[chan struct{}] // non-nil: writes wait for it to close
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.reads.Add(1)
	}
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	if g := c.gate.Load(); g != nil {
		<-*g
	}
	c.writes.Add(1)
	return c.Conn.Write(p)
}

func (c *countingConn) reset() { c.reads.Store(0); c.writes.Store(0) }

// countingExec counts SubmitBatch calls and the calls they carried.
type countingExec struct {
	core.Executor
	batches, calls atomic.Int64
}

func (e *countingExec) SubmitBatch(calls []core.Call) {
	e.batches.Add(1)
	e.calls.Add(int64(len(calls)))
	e.Executor.SubmitBatch(calls)
}

// harness is a server over a seeded DB whose connections' server ends are
// wrapped in countingConns.
type harness struct {
	t    *testing.T
	db   *shareddb.DB
	srv  *Server
	exec *countingExec
	ln   net.Listener
}

func newHarness(t *testing.T, cfg shareddb.Config, opts Options, rows int) *harness {
	t.Helper()
	db, err := shareddb.Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { db.Close() })
	// Seeded concurrently so the inserts share generations: under the long
	// heartbeats some tests hold dispatch with, one insert per generation
	// would take a heartbeat per row.
	mustExec(db, `CREATE TABLE item (i_id INT, i_title VARCHAR, i_stock INT, PRIMARY KEY (i_id))`)
	var wg sync.WaitGroup
	for i := 0; i < rows; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			mustExec(db, `INSERT INTO item VALUES (?, ?, ?)`, i, fmt.Sprintf("Title %02d", i%10), 10+i)
		}(i)
	}
	wg.Wait()
	if opts.Logf == nil {
		opts.Logf = func(string, ...interface{}) {}
	}
	srv := New(db, opts)
	exec := &countingExec{Executor: srv.exec}
	srv.exec = exec
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { ln.Close(); srv.Close() })
	return &harness{t: t, db: db, srv: srv, exec: exec, ln: ln}
}

// peer is the client end of one harness connection: a raw socket the test
// writes bytes to, and a frame reader over what comes back.
type peer struct {
	t      *testing.T
	nc     net.Conn
	rd     *wire.Reader
	server *countingConn
}

// connect dials the harness, hands the accepted end to the server wrapped
// in a countingConn, and completes the HELLO exchange.
func (h *harness) connect() *peer {
	h.t.Helper()
	nc, err := net.Dial("tcp", h.ln.Addr().String())
	if err != nil {
		h.t.Fatalf("dial: %v", err)
	}
	h.t.Cleanup(func() { nc.Close() })
	accepted, err := h.ln.Accept()
	if err != nil {
		h.t.Fatalf("accept: %v", err)
	}
	cc := &countingConn{Conn: accepted}
	h.srv.ServeConn(cc)
	p := &peer{t: h.t, nc: nc, rd: wire.NewReader(nc), server: cc}
	p.write(wire.Hello{Version: wire.Version, Window: 64}.Append(nil))
	if typ, _ := p.next(); typ != wire.THelloOK {
		h.t.Fatalf("handshake answered %v", typ)
	}
	return p
}

func (p *peer) write(b []byte) {
	p.t.Helper()
	if _, err := p.nc.Write(b); err != nil {
		p.t.Fatalf("write: %v", err)
	}
}

// next reads one frame (the payload is copied: it outlives the next read).
func (p *peer) next() (wire.Type, []byte) {
	p.t.Helper()
	p.nc.SetReadDeadline(time.Now().Add(30 * time.Second))
	typ, payload, err := p.rd.Next()
	if err != nil {
		p.t.Fatalf("read: %v", err)
	}
	return typ, append([]byte(nil), payload...)
}

// prepare registers sqlText and returns its handle.
func (p *peer) prepare(id uint64, sqlText string) uint64 {
	p.t.Helper()
	p.write(wire.Prepare{ID: id, SQL: sqlText}.Append(nil))
	typ, payload := p.next()
	if typ != wire.TPrepareOK {
		p.t.Fatalf("PREPARE answered %v", typ)
	}
	m, err := wire.DecodePrepareOK(payload)
	if err != nil || m.ID != id {
		p.t.Fatalf("PREPARE_OK %+v, %v", m, err)
	}
	return m.Stmt
}

// answer is one request's response as the peer saw it.
type answer struct {
	frames []wire.Type // in arrival order
	rows   []types.Row
	code   uint64 // ERR code, 0 otherwise
	busy   bool
}

// collect reads frames until want requests have received their terminal
// frame, returning each request's answer and the order the terminal frames
// arrived in. It fails the test if a request's frames arrive out of order
// or interleaved with another response's.
func (p *peer) collect(want int) (map[uint64]*answer, []uint64) {
	p.t.Helper()
	answers := map[uint64]*answer{}
	var order []uint64
	open := uint64(0) // request whose cursor is mid-stream
	get := func(id uint64) *answer {
		if answers[id] == nil {
			answers[id] = &answer{}
		}
		return answers[id]
	}
	for len(order) < want {
		typ, payload := p.next()
		var id uint64
		terminal := true
		switch typ {
		case wire.TRowsHeader:
			m, err := wire.DecodeRowsHeader(payload)
			if err != nil {
				p.t.Fatal(err)
			}
			if open != 0 {
				p.t.Fatalf("response %d opened inside response %d", m.ID, open)
			}
			id, open, terminal = m.ID, m.ID, false
		case wire.TRowBatch:
			m, err := wire.DecodeRowBatch(payload)
			if err != nil {
				p.t.Fatal(err)
			}
			if open != m.ID {
				p.t.Fatalf("ROW_BATCH of %d while response %d is open", m.ID, open)
			}
			id, terminal = m.ID, false
			get(id).rows = append(get(id).rows, m.Rows...)
		case wire.TRowsDone:
			m, err := wire.DecodeRowsDone(payload)
			if err != nil {
				p.t.Fatal(err)
			}
			if open != m.ID || int(m.Total) != len(get(m.ID).rows) {
				p.t.Fatalf("ROWS_DONE of %d (total %d) while response %d is open with %d rows",
					m.ID, m.Total, open, len(get(m.ID).rows))
			}
			id, open = m.ID, 0
		case wire.TExecOK:
			m, err := wire.DecodeExecOK(payload)
			if err != nil {
				p.t.Fatal(err)
			}
			id = m.ID
		case wire.TErr:
			m, err := wire.DecodeError(payload)
			if err != nil {
				p.t.Fatal(err)
			}
			id = m.ID
			get(id).code = m.Code
		case wire.TBusy:
			m, err := wire.DecodeBusy(payload)
			if err != nil {
				p.t.Fatal(err)
			}
			id = m.ID
			get(id).busy = true
		case wire.TPong:
			m, err := wire.DecodeSimple(payload)
			if err != nil {
				p.t.Fatal(err)
			}
			id = m.ID
		case wire.TSubOK:
			m, err := wire.DecodeSubOK(payload)
			if err != nil {
				p.t.Fatal(err)
			}
			id = m.ID
		case wire.TSubPush:
			continue // not a response
		default:
			p.t.Fatalf("unexpected frame %v", typ)
		}
		a := get(id)
		a.frames = append(a.frames, typ)
		if terminal {
			order = append(order, id)
		}
	}
	return answers, order
}

// expectClosed reads to the end of the stream, failing on any further frame.
func (p *peer) expectClosed() {
	p.t.Helper()
	p.nc.SetReadDeadline(time.Now().Add(30 * time.Second))
	typ, _, err := p.rd.Next()
	var ne net.Error
	if err == nil {
		p.t.Fatalf("frame %v after the session's last", typ)
	} else if errors.As(err, &ne) && ne.Timeout() {
		p.t.Fatal("connection still open")
	}
}

func pointQueries(handle uint64, firstID uint64, keys ...int) []byte {
	var b []byte
	for i, k := range keys {
		b = wire.StmtCall{ID: firstID + uint64(i), Stmt: handle,
			Params: []types.Value{types.NewInt(int64(k))}}.Append(b, wire.TQuery)
	}
	return b
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// waitFor polls cond, which must become true: the tests wait on counters the
// engine publishes, not on elapsed time.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}

const pointSQL = `SELECT i_id, i_title, i_stock FROM item WHERE i_id = ?`

// TestBurstCounts is the tentpole's accounting: 64 pipelined QUERY frames
// that arrive as one segment cost the server one read, one SubmitBatch, one
// generation and at most two writes.
func TestBurstCounts(t *testing.T) {
	const n = 64
	h := newHarness(t, shareddb.Config{}, Options{Window: n}, n)
	p := h.connect()
	handle := p.prepare(1, pointSQL)

	// Hold the reply writes until every completion is queued behind them:
	// results of one generation complete in a loop on the sink goroutine, and
	// the sink's next cycle — the probe below — cannot finish before it.
	gate := make(chan struct{})
	p.server.gate.Store(&gate)
	p.server.reset()
	before := h.db.Stats()
	batchesBefore, callsBefore := h.exec.batches.Load(), h.exec.calls.Load()

	p.write(pointQueries(handle, 100, seq(n)...))
	waitFor(t, "the burst's generation", func() bool { return h.db.Stats().QueriesRun-before.QueriesRun == n })
	after := h.db.Stats()
	if _, err := h.db.Query(`SELECT i_id FROM item WHERE i_id = ?`, 0); err != nil {
		t.Fatal(err)
	}
	close(gate)

	answers, _ := p.collect(n)
	for i := 0; i < n; i++ {
		a := answers[uint64(100+i)]
		if a == nil || len(a.rows) != 1 || a.rows[0][0].AsInt() != int64(i) {
			t.Fatalf("request %d answered %+v", 100+i, a)
		}
	}
	if r := p.server.reads.Load(); r > 2 {
		t.Errorf("server read the burst in %d reads, want at most 2", r)
	}
	if b, c := h.exec.batches.Load()-batchesBefore, h.exec.calls.Load()-callsBefore; b != 1 || c != n {
		t.Errorf("burst entered the engine as %d SubmitBatch calls carrying %d requests, want 1 carrying %d", b, c, n)
	}
	if g := after.Generations - before.Generations; g > 2 {
		t.Errorf("burst took %d generations, want at most 2", g)
	}
	if w := p.server.writes.Load(); w > 2 {
		t.Errorf("server answered the burst in %d writes, want at most 2", w)
	}
}

// TestBurstGoroutinesIndependentOfWindow pins the absence of per-request
// goroutines: with a whole window queued in the engine the process runs no
// more goroutines than it ran with the connection idle — whatever the
// window.
func TestBurstGoroutinesIndependentOfWindow(t *testing.T) {
	for _, window := range []int{8, 64} {
		t.Run(fmt.Sprint("window ", window), func(t *testing.T) {
			h := newHarness(t, shareddb.Config{Heartbeat: time.Second}, Options{Window: window}, window)
			p := h.connect()
			handle := p.prepare(1, pointSQL)
			// One generation now, so the heartbeat holds the burst queued.
			p.write(pointQueries(handle, 2, 0))
			p.collect(1)
			idle := runtime.NumGoroutine() // may still count the reply's flusher

			p.write(pointQueries(handle, 100, seq(window)...))
			waitFor(t, "the window to queue", func() bool { return h.db.Stats().QueueDepth == window })
			if busy := runtime.NumGoroutine(); busy > idle {
				t.Errorf("%d goroutines with %d requests in flight, %d with the connection idle", busy, window, idle)
			}
			p.collect(window)
		})
	}
}

// TestSingleRequestConnections is the degenerate burst: 256 connections with
// one request each. Every request costs its connection one read, one
// submission of one call and one write, and is answered without waiting for
// a burst that never comes.
func TestSingleRequestConnections(t *testing.T) {
	const conns = 256
	h := newHarness(t, shareddb.Config{}, Options{}, conns)
	peers := make([]*peer, conns)
	for i := range peers {
		peers[i] = h.connect()
	}
	handle := peers[0].prepare(1, pointSQL)
	for _, p := range peers[1:] {
		if got := p.prepare(1, pointSQL); got != handle {
			t.Fatalf("session handle %d, want %d", got, handle)
		}
	}
	for _, p := range peers {
		p.server.reset()
	}
	batchesBefore, callsBefore := h.exec.batches.Load(), h.exec.calls.Load()

	var wg sync.WaitGroup
	for i, p := range peers {
		wg.Add(1)
		go func(i int, p *peer) {
			defer wg.Done()
			p.write(pointQueries(handle, 7, i))
			answers, _ := p.collect(1)
			if a := answers[7]; a == nil || len(a.rows) != 1 || a.rows[0][0].AsInt() != int64(i) {
				t.Errorf("connection %d answered %+v", i, a)
			}
		}(i, p)
	}
	wg.Wait()
	for i, p := range peers {
		if r, w := p.server.reads.Load(), p.server.writes.Load(); r != 1 || w != 1 {
			t.Errorf("connection %d: %d reads and %d writes for one request, want 1 and 1", i, r, w)
		}
	}
	if b, c := h.exec.batches.Load()-batchesBefore, h.exec.calls.Load()-callsBefore; b != conns || c != conns {
		t.Errorf("%d requests entered the engine as %d batches of %d calls, want one call each", conns, b, c)
	}
}

// TestDeadConnectionVacatesQueue pins teardown's abandon: a client that
// disconnects with a full window queued behind a held generation costs the
// engine none of those activations.
func TestDeadConnectionVacatesQueue(t *testing.T) {
	const window = 8
	h := newHarness(t, shareddb.Config{Heartbeat: time.Second}, Options{Window: window}, 2*window)
	p := h.connect()
	handle := p.prepare(1, pointSQL)
	p.write(pointQueries(handle, 2, 0))
	p.collect(1)

	// Another connection folds into one of the doomed requests: that lead
	// must still run for it.
	survivor := h.connect()
	shandle := survivor.prepare(1, pointSQL)

	before := h.db.Stats()
	p.write(pointQueries(handle, 100, seq(window)...))
	waitFor(t, "the window to queue", func() bool { return h.db.Stats().QueueDepth == window })
	survivor.write(pointQueries(shandle, 7, 3))
	waitFor(t, "the survivor to fold", func() bool { return h.db.Stats().FoldedQueries > before.FoldedQueries })
	p.nc.Close()

	answers, _ := survivor.collect(1)
	if a := answers[7]; len(a.rows) != 1 || a.rows[0][0].AsInt() != 3 {
		t.Fatalf("survivor answered %+v", a)
	}
	waitFor(t, "the queue to drain", func() bool { return h.db.Stats().QueueDepth == 0 })
	if ran := h.db.Stats().QueriesRun - before.QueriesRun; ran != 1 {
		t.Fatalf("a dead connection's %d queued requests cost %d activations, want 1 (the lead a live connection shares)",
			window, ran)
	}
}

// TestSplitAtEveryBoundary replays one session with its byte stream cut in
// two at every position: wherever a frame is torn across reads, the server
// answers exactly as it answers the whole stream.
func TestSplitAtEveryBoundary(t *testing.T) {
	h := newHarness(t, shareddb.Config{}, Options{Window: 4}, 8)
	stream := wire.Hello{Version: wire.Version, Window: 4}.Append(nil)
	stream = wire.Prepare{ID: 1, SQL: pointSQL}.Append(stream)
	stream = append(stream, pointQueries(1, 10, 3, 5, 3)...)
	stream = wire.Simple{ID: 20}.Append(stream, wire.TPing)
	stream = wire.AppendEmpty(stream, wire.TQuit)

	// session plays the stream in the given pieces over a synchronous pipe —
	// each piece is exactly one read on the server — and returns the frames
	// it was answered with, sorted (responses may legally reorder).
	session := func(pieces ...[]byte) []string {
		cli, srvEnd := net.Pipe()
		h.srv.ServeConn(srvEnd)
		go func() {
			for _, piece := range pieces {
				cli.Write(piece)
			}
		}()
		var got []string
		rd := wire.NewReader(cli)
		for {
			typ, payload, err := rd.Next()
			if err != nil {
				break
			}
			got = append(got, fmt.Sprintf("%v %x", typ, payload))
		}
		cli.Close()
		sort.Strings(got)
		return got
	}
	want := session(stream)
	if len(want) != 1+1+3*3+1+1 { // HELLO_OK, PREPARE_OK, three cursors, PONG, BYE
		t.Fatalf("whole stream answered with %d frames: %v", len(want), want)
	}
	for cut := 1; cut < len(stream); cut++ {
		if got := session(stream[:cut], stream[cut:]); !reflect.DeepEqual(got, want) {
			t.Fatalf("split at byte %d of %d answered\n%v\nwant\n%v", cut, len(stream), got, want)
		}
	}
}

// TestMalformedFrameAfterBurst: a burst's valid prefix is answered in full
// before the BAD_REQUEST that closes the session.
func TestMalformedFrameAfterBurst(t *testing.T) {
	h := newHarness(t, shareddb.Config{}, Options{Window: 8}, 8)
	p := h.connect()
	handle := p.prepare(1, pointSQL)
	p.write(append(pointQueries(handle, 10, 1, 2, 3), 0, 0, 0, 0)) // zero-length frame
	answers, order := p.collect(4)
	for id := uint64(10); id < 13; id++ {
		if a := answers[id]; a == nil || len(a.rows) != 1 {
			t.Fatalf("valid request %d answered %+v", id, a)
		}
	}
	if last := order[len(order)-1]; last != 0 || answers[0].code != wire.CodeBadRequest {
		t.Fatalf("session ended with %+v after %v, want BAD_REQUEST last", answers[last], order)
	}
	p.expectClosed()
}

// TestBurstLargerThanWindow: the reader parks mid-burst when the window
// fills, resumes as slots free, and every request is answered — each
// response's frames contiguous and in order (collect enforces that).
func TestBurstLargerThanWindow(t *testing.T) {
	const window, n = 4, 40
	h := newHarness(t, shareddb.Config{}, Options{Window: window}, n)
	p := h.connect()
	handle := p.prepare(1, pointSQL)
	batchesBefore := h.exec.batches.Load()
	p.write(pointQueries(handle, 100, seq(n)...))
	answers, _ := p.collect(n)
	for i := 0; i < n; i++ {
		a := answers[uint64(100+i)]
		if a == nil || len(a.rows) != 1 || a.rows[0][0].AsInt() != int64(i) {
			t.Fatalf("request %d answered %+v", 100+i, a)
		}
		if want := []wire.Type{wire.TRowsHeader, wire.TRowBatch, wire.TRowsDone}; !reflect.DeepEqual(a.frames, want) {
			t.Fatalf("request %d answered with frames %v", 100+i, a.frames)
		}
	}
	if b := h.exec.batches.Load() - batchesBefore; b < n/window {
		t.Fatalf("%d requests through a window of %d took %d submissions, want at least %d", n, window, b, n/window)
	}
}

// TestControlFramesInsideBurst interleaves CLOSE_STMT, SUBSCRIBE and QUIT
// with a burst's queries: frames take effect in stream order, and QUIT's
// BYE follows the answers to everything sent before it.
func TestControlFramesInsideBurst(t *testing.T) {
	h := newHarness(t, shareddb.Config{}, Options{Window: 8}, 8)
	p := h.connect()
	handle := p.prepare(1, pointSQL)

	burst := pointQueries(handle, 10, 1, 2)
	burst = wire.Ref{Ref: handle}.Append(burst, wire.TCloseStmt)
	burst = append(burst, pointQueries(handle, 12, 3)...) // handle is gone
	burst = wire.SQLCall{ID: 13, SQL: `SELECT i_id FROM item WHERE i_stock > ?`,
		Params: []types.Value{types.NewInt(0)}}.Append(burst, wire.TSubscribe)
	burst = wire.SQLCall{ID: 14, SQL: pointSQL, Params: []types.Value{types.NewInt(4)}}.Append(burst, wire.TQuerySQL)
	burst = wire.AppendEmpty(burst, wire.TQuit)
	p.write(burst)

	answers, _ := p.collect(5)
	for _, id := range []uint64{10, 11, 14} {
		if a := answers[id]; a == nil || len(a.rows) != 1 {
			t.Fatalf("query %d answered %+v", id, a)
		}
	}
	if a := answers[12]; a == nil || a.code != wire.CodeUnknownStmt {
		t.Fatalf("query on a closed handle answered %+v, want UNKNOWN_STMT", a)
	}
	if a := answers[13]; a == nil || !reflect.DeepEqual(a.frames, []wire.Type{wire.TSubOK}) {
		t.Fatalf("SUBSCRIBE answered %+v", a)
	}
	// Only pushes may precede BYE now; then the connection closes.
	for {
		typ, _ := p.next()
		if typ == wire.TBye {
			break
		}
		if typ != wire.TSubPush {
			t.Fatalf("frame %v between the burst's answers and BYE", typ)
		}
	}
	p.expectClosed()
}

// TestShedQueryDoesNotHoldItsBurst is out-of-order completion inside one
// burst: a query admission sheds to a later generation does not hold back
// the point reads that arrived with it.
func TestShedQueryDoesNotHoldItsBurst(t *testing.T) {
	h := newHarness(t, shareddb.Config{StatementQuota: 1, MaxInFlightGenerations: 1}, Options{Window: 8}, 40)
	p := h.connect()
	scan := p.prepare(1, `SELECT i_id, i_title, i_stock FROM item WHERE i_title LIKE ?`)
	point := p.prepare(2, pointSQL)

	like := func(id uint64, pattern string) []byte {
		return wire.StmtCall{ID: id, Stmt: scan, Params: []types.Value{types.NewString(pattern)}}.Append(nil, wire.TQuery)
	}
	// Two scans of one statement against a quota of one: the second is shed.
	// The three identical point reads fold into one activation of theirs.
	burst := append(like(10, "Title 03%"), like(11, "Title%")...)
	burst = append(burst, pointQueries(point, 20, 7, 7, 7)...)
	shedBefore := h.db.Stats().Shed
	p.write(burst)
	answers, order := p.collect(5)
	if h.db.Stats().Shed == shedBefore {
		t.Fatal("fixture: nothing was shed")
	}
	if last := order[len(order)-1]; last != 11 {
		t.Fatalf("completion order %v: the shed scan (11) must come last", order)
	}
	if len(answers[10].rows) != 4 || len(answers[11].rows) != 40 {
		t.Fatalf("scans returned %d and %d rows, want 4 and 40", len(answers[10].rows), len(answers[11].rows))
	}
	for id := uint64(20); id < 23; id++ {
		if a := answers[id]; len(a.rows) != 1 || a.rows[0][0].AsInt() != 7 {
			t.Fatalf("point read %d answered %+v", id, a)
		}
	}
}

// TestOldClientShape drives the server the way the previous client did —
// one write per frame, unbuffered two-reads-per-frame ReadFrame — through a
// prepare / pipelined query / exec / quit session.
func TestOldClientShape(t *testing.T) {
	h := newHarness(t, shareddb.Config{}, Options{}, 8)
	nc, err := net.Dial("tcp", h.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	accepted, err := h.ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	h.srv.ServeConn(accepted)

	var buf []byte
	read := func() (wire.Type, []byte) {
		t.Helper()
		nc.SetReadDeadline(time.Now().Add(30 * time.Second))
		typ, payload, b, err := wire.ReadFrame(nc, buf)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		buf = b
		return typ, payload
	}
	send := func(frame []byte) {
		t.Helper()
		if _, err := nc.Write(frame); err != nil {
			t.Fatal(err)
		}
	}
	send(wire.Hello{Version: wire.Version, Window: 4}.Append(nil))
	if typ, _ := read(); typ != wire.THelloOK {
		t.Fatalf("HELLO answered %v", typ)
	}
	send(wire.Prepare{ID: 1, SQL: pointSQL}.Append(nil))
	typ, payload := read()
	ok, err := wire.DecodePrepareOK(payload)
	if typ != wire.TPrepareOK || err != nil {
		t.Fatalf("PREPARE answered %v, %v", typ, err)
	}
	for i := 0; i < 4; i++ { // pipelined, one write each
		send(pointQueries(ok.Stmt, uint64(10+i), i))
	}
	done := map[uint64]bool{}
	for len(done) < 4 {
		typ, payload := read()
		if typ == wire.TRowsDone {
			m, _ := wire.DecodeRowsDone(payload)
			if m.Total != 1 {
				t.Fatalf("query %d returned %d rows", m.ID, m.Total)
			}
			done[m.ID] = true
		}
	}
	send(wire.SQLCall{ID: 30, SQL: `UPDATE item SET i_stock = ? WHERE i_id = ?`,
		Params: []types.Value{types.NewInt(1), types.NewInt(2)}}.Append(nil, wire.TExecSQL))
	typ, payload = read()
	if m, err := wire.DecodeExecOK(payload); typ != wire.TExecOK || err != nil || m.RowsAffected != 1 {
		t.Fatalf("EXEC answered %v %+v %v", typ, m, err)
	}
	send(wire.AppendEmpty(nil, wire.TQuit))
	if typ, _ := read(); typ != wire.TBye {
		t.Fatalf("QUIT answered %v", typ)
	}
}
