package client

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"shareddb"
	"shareddb/internal/server"
	"shareddb/internal/types"
	"shareddb/internal/wire"
)

// startBackend serves a seeded DB over loopback via the real front end.
func startBackend(t *testing.T) string {
	t.Helper()
	db, err := shareddb.Open(shareddb.Config{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { db.Close() })
	if _, err := db.Exec(`CREATE TABLE kv (k INT, v VARCHAR, PRIMARY KEY (k))`); err != nil {
		t.Fatalf("create: %v", err)
	}
	for i := 0; i < 10; i++ {
		if _, err := db.Exec(`INSERT INTO kv VALUES (?, ?)`, i, fmt.Sprintf("v%d", i)); err != nil {
			t.Fatalf("insert: %v", err)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := server.New(db, server.Options{})
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

// TestEndToEnd exercises the full mirrored surface against a real server:
// Ping, ad-hoc Query with Scan, Prepare/Query/Exec through a handle,
// Stats, and statement metadata.
func TestEndToEnd(t *testing.T) {
	db, err := Open(startBackend(t))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer db.Close()

	if err := db.Ping(context.Background()); err != nil {
		t.Fatalf("ping: %v", err)
	}

	rows, err := db.Query(`SELECT k, v FROM kv WHERE k < ?`, 3)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	var got []string
	for rows.Next() {
		var k int64
		var v string
		if err := rows.Scan(&k, &v); err != nil {
			t.Fatalf("scan: %v", err)
		}
		got = append(got, fmt.Sprintf("%d=%s", k, v))
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("rows: %v", err)
	}
	if len(got) != 3 || rows.Total() != 3 {
		t.Fatalf("got %v (total %d), want 3 rows", got, rows.Total())
	}
	if cols := rows.Columns(); len(cols) != 2 {
		t.Fatalf("columns = %v", cols)
	}

	stmt, err := db.Prepare(`SELECT v FROM kv WHERE k = ?`)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	if stmt.IsWrite() || stmt.NumParams() != 1 {
		t.Fatalf("statement metadata: write=%v params=%d", stmt.IsWrite(), stmt.NumParams())
	}
	r2, err := stmt.Query(7)
	if err != nil {
		t.Fatalf("stmt query: %v", err)
	}
	all := r2.All()
	if err := r2.Err(); err != nil {
		t.Fatalf("stmt rows: %v", err)
	}
	if len(all) != 1 || all[0][0].AsString() != "v7" {
		t.Fatalf("stmt result = %v", all)
	}
	if err := stmt.Close(); err != nil {
		t.Fatalf("stmt close: %v", err)
	}

	res, err := db.Exec(`INSERT INTO kv VALUES (?, ?)`, 50, "fifty")
	if err != nil {
		t.Fatalf("exec: %v", err)
	}
	if res.RowsAffected != 1 {
		t.Fatalf("rows affected = %d", res.RowsAffected)
	}

	st, err := db.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.QueriesRun == 0 || st.WritesApplied == 0 {
		t.Fatalf("stats look empty: %+v", st)
	}
}

// fakeServer runs script against the server end of a net.Pipe after
// completing the HELLO exchange, and returns a client conn speaking to it.
func fakeServer(t *testing.T, cfg Config, script func(nc net.Conn)) *conn {
	t.Helper()
	cliEnd, srvEnd := net.Pipe()
	go func() {
		typ, payload, _, err := wire.ReadFrame(srvEnd, nil)
		if err != nil || typ != wire.THello {
			srvEnd.Close()
			return
		}
		if _, err := wire.DecodeHello(payload); err != nil {
			srvEnd.Close()
			return
		}
		if _, err := srvEnd.Write(wire.HelloOK{Version: wire.Version, Window: 4}.Append(nil)); err != nil {
			return
		}
		script(srvEnd)
		// net.Pipe writes are synchronous: keep draining after the script
		// so the client's closing QUIT never blocks.
		io.Copy(io.Discard, srvEnd)
		srvEnd.Close()
	}()
	if cfg.Window <= 0 {
		cfg.Window = 4
	}
	c, err := handshake(cliEnd, cfg)
	if err != nil {
		t.Fatalf("handshake: %v", err)
	}
	t.Cleanup(func() { c.close() })
	return c
}

// readReq pulls the next client frame, failing the test on error.
func readReq(t *testing.T, nc net.Conn) (wire.Type, []byte) {
	t.Helper()
	typ, payload, _, err := wire.ReadFrame(nc, nil)
	if err != nil {
		t.Errorf("fake server read: %v", err)
		return 0, nil
	}
	return typ, append([]byte(nil), payload...)
}

func oneRow(v int64) []types.Row {
	return []types.Row{{types.NewInt(v)}}
}

// TestRowsErrSurfacesMidCursorLoss is the bugfix pin: a connection cut
// between a ROW_BATCH and ROWS_DONE must surface through Rows.Err — not
// read as a clean, truncated end-of-result.
func TestRowsErrSurfacesMidCursorLoss(t *testing.T) {
	c := fakeServer(t, Config{}, func(nc net.Conn) {
		typ, payload := readReq(t, nc)
		if typ != wire.TQuerySQL {
			t.Errorf("fake server: got %v, want QUERY_SQL", typ)
			return
		}
		q, err := wire.DecodeSQLCall(payload)
		if err != nil {
			t.Errorf("fake server decode: %v", err)
			return
		}
		buf := wire.RowsHeader{ID: q.ID, Columns: []string{"k"}}.Append(nil)
		buf = wire.RowBatch{ID: q.ID, Rows: oneRow(1)}.Append(buf)
		nc.Write(buf)
		nc.Close() // cut mid-cursor: header + one batch delivered, no ROWS_DONE
	})
	db := &DB{cfg: c.cfg, c: c}

	rows, err := db.Query(`SELECT k FROM kv`)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if !rows.Next() {
		t.Fatalf("first row should arrive before the cut (err %v)", rows.Err())
	}
	if rows.Next() {
		t.Fatal("second Next should fail: connection is gone")
	}
	err = rows.Err()
	if err == nil {
		t.Fatal("Rows.Err() == nil after mid-cursor connection loss")
	}
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("Rows.Err() = %v, want wrapped ErrClosed", err)
	}
	// The whole connection is dead, and says so.
	if _, qerr := db.Query(`SELECT k FROM kv`); !errors.Is(qerr, ErrClosed) {
		t.Fatalf("post-loss query error = %v, want ErrClosed", qerr)
	}
}

// TestRetryHonorsRetryAfter pins the client's back-off loop: two BUSY
// rejections with an explicit hint must delay the (successful) third
// attempt by at least the sum of the hints.
func TestRetryHonorsRetryAfter(t *testing.T) {
	const hint = 30 * time.Millisecond
	c := fakeServer(t, Config{RetryOverloaded: 3}, func(nc net.Conn) {
		for attempt := 0; ; attempt++ {
			typ, payload := readReq(t, nc)
			if typ == 0 {
				return
			}
			if typ != wire.TQuerySQL {
				t.Errorf("fake server: got %v, want QUERY_SQL", typ)
				return
			}
			q, err := wire.DecodeSQLCall(payload)
			if err != nil {
				t.Errorf("fake server decode: %v", err)
				return
			}
			if attempt < 2 {
				nc.Write(wire.Busy{ID: q.ID, RetryAfterNs: uint64(hint), Reason: "queue full"}.Append(nil))
				continue
			}
			buf := wire.RowsHeader{ID: q.ID, Columns: []string{"k"}}.Append(nil)
			buf = wire.RowBatch{ID: q.ID, Rows: oneRow(42)}.Append(buf)
			buf = wire.RowsDone{ID: q.ID, Total: 1}.Append(buf)
			nc.Write(buf)
			return
		}
	})
	db := &DB{cfg: c.cfg, c: c}

	start := time.Now()
	rows, err := db.Query(`SELECT k FROM kv`)
	if err != nil {
		t.Fatalf("query after retries: %v", err)
	}
	all := rows.All()
	if err := rows.Err(); err != nil {
		t.Fatalf("rows: %v", err)
	}
	if len(all) != 1 || all[0][0].AsInt() != 42 {
		t.Fatalf("result = %v", all)
	}
	if elapsed := time.Since(start); elapsed < 2*hint {
		t.Fatalf("retries took %v, want >= %v (two RetryAfter hints)", elapsed, 2*hint)
	}
}

// TestRetryDisabledReturnsOverloadError pins the zero-config behavior:
// without RetryOverloaded the typed rejection reaches the caller intact.
func TestRetryDisabledReturnsOverloadError(t *testing.T) {
	const hint = 5 * time.Millisecond
	c := fakeServer(t, Config{}, func(nc net.Conn) {
		typ, payload := readReq(t, nc)
		if typ != wire.TQuerySQL {
			return
		}
		q, err := wire.DecodeSQLCall(payload)
		if err != nil {
			return
		}
		nc.Write(wire.Busy{ID: q.ID, RetryAfterNs: uint64(hint), Reason: "shed"}.Append(nil))
	})
	db := &DB{cfg: c.cfg, c: c}

	_, err := db.Query(`SELECT k FROM kv`)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("err = %T, want *OverloadError", err)
	}
	if oe.RetryAfter != hint || oe.Reason != "shed" {
		t.Fatalf("OverloadError = %+v", oe)
	}
}

// TestRowsCloseDrainsCursor pins the abandon path: closing a cursor early
// must retire its request id and window slot in the background so the
// connection stays usable — even while the server is still streaming.
func TestRowsCloseDrainsCursor(t *testing.T) {
	c := fakeServer(t, Config{Window: 1}, func(nc net.Conn) {
		for {
			typ, payload := readReq(t, nc)
			switch typ {
			case wire.TQuerySQL:
				q, err := wire.DecodeSQLCall(payload)
				if err != nil {
					return
				}
				buf := wire.RowsHeader{ID: q.ID, Columns: []string{"k"}}.Append(nil)
				nc.Write(buf)
				// Stream slowly so Close happens mid-stream.
				for i := 0; i < 50; i++ {
					nc.Write(wire.RowBatch{ID: q.ID, Rows: oneRow(int64(i))}.Append(nil))
				}
				nc.Write(wire.RowsDone{ID: q.ID, Total: 50}.Append(nil))
			case wire.TPing:
				m, err := wire.DecodeSimple(payload)
				if err != nil {
					return
				}
				nc.Write(wire.Simple{ID: m.ID}.Append(nil, wire.TPong))
			case wire.TQuit, 0:
				nc.Close()
				return
			}
		}
	})
	db := &DB{cfg: c.cfg, c: c}

	rows, err := db.Query(`SELECT k FROM kv`)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if !rows.Next() {
		t.Fatalf("first row: %v", rows.Err())
	}
	if err := rows.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if rows.Next() {
		t.Fatal("Next after Close returned a row")
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("deliberate Close must not read as an error, got %v", err)
	}
	// Window is 1: Ping doesn't use the window, but a second Query does —
	// it can only proceed once the abandoned cursor's slot is released.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := db.Ping(ctx); err != nil {
		t.Fatalf("ping after close: %v", err)
	}
	r2, err := db.QueryContext(ctx, `SELECT k FROM kv`)
	if err != nil {
		t.Fatalf("second query after abandoned cursor: %v", err)
	}
	r2.Close()
}

// TestSubscriptionCloseIdempotent guards the teardown paths: Close twice,
// then connection loss, must neither panic nor deadlock.
func TestSubscriptionCloseIdempotent(t *testing.T) {
	unsubSeen := make(chan struct{})
	c := fakeServer(t, Config{}, func(nc net.Conn) {
		typ, payload := readReq(t, nc)
		if typ != wire.TSubscribe {
			return
		}
		q, err := wire.DecodeSQLCall(payload)
		if err != nil {
			return
		}
		buf := wire.SubOK{ID: q.ID, Sub: 1}.Append(nil)
		buf = wire.SubPush{Sub: 1, Gen: 1, Full: true, Rows: oneRow(1)}.Append(buf)
		nc.Write(buf)
		// Consume the UNSUB that Close sends, then hold the conn open.
		if typ, _ := readReq(t, nc); typ != wire.TUnsubscribe {
			t.Errorf("fake server: got %v, want UNSUBSCRIBE", typ)
		}
		close(unsubSeen)
	})
	sub, err := c.subscribe(context.Background(), `SELECT k FROM kv`, nil, 4)
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	select {
	case u := <-sub.Updates():
		if !u.Full || len(u.Rows) != 1 {
			t.Fatalf("unexpected update %+v", u)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no initial update")
	}
	sub.Close()
	sub.Close()
	select {
	case _, ok := <-sub.Updates():
		if ok {
			t.Fatal("update after Close")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("updates channel not closed")
	}
	<-sub.Done()
	// Close's UNSUB is written by the outbox's flusher, not by Close.
	<-unsubSeen
	c.fail(errors.New("synthetic loss")) // must not re-enter the closed subscription
}

// readCounter counts the reads that returned data.
type readCounter struct {
	net.Conn
	reads atomic.Int64
}

func (c *readCounter) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.reads.Add(1)
	}
	return n, err
}

// TestBurstDeliveredWithOneWakeup is the client half of the burst
// accounting, on a real loopback socket: 64 responses (three frames each)
// that arrive as one segment cost the demultiplexer one read, and each
// caller one wake-up — by the time a caller sees its result header, the rest
// of its response is already queued behind it.
func TestBurstDeliveredWithOneWakeup(t *testing.T) {
	const n = 64
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() { // the scripted server: collect n queries, answer them in one write
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		rd := wire.NewReader(nc)
		if typ, _, err := rd.Next(); err != nil || typ != wire.THello {
			return
		}
		nc.Write(wire.HelloOK{Version: wire.Version, Window: n}.Append(nil))
		var replies []byte
		for i := 0; i < n; i++ {
			typ, payload, err := rd.Next()
			if err != nil || typ != wire.TQuery {
				t.Errorf("scripted server: frame %v, err %v", typ, err)
				return
			}
			q, err := wire.DecodeStmtCall(payload)
			if err != nil {
				t.Errorf("scripted server: %v", err)
				return
			}
			replies = wire.RowsHeader{ID: q.ID, Columns: []string{"k"}}.Append(replies)
			replies = wire.RowBatch{ID: q.ID, Rows: []types.Row{{q.Params[0]}}}.Append(replies)
			replies = wire.RowsDone{ID: q.ID, Total: 1}.Append(replies)
		}
		nc.Write(replies)
		io.Copy(io.Discard, nc)
	}()

	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	counted := &readCounter{Conn: nc}
	c, err := handshake(counted, Config{Window: n})
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	counted.reads.Store(0)

	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rows, err := c.startQuery(context.Background(),
				request{typ: wire.TQuery, stmt: 1, params: []types.Value{types.NewInt(int64(i))}})
			if err != nil {
				t.Errorf("query %d: %v", i, err)
				return
			}
			cl := rows.cl
			cl.mu.Lock()
			queued, done := len(cl.queue)-cl.head, cl.done
			cl.mu.Unlock()
			if queued != 2 || !done {
				t.Errorf("query %d woke with %d frames queued behind its header (complete: %v), want its batch and terminal frame",
					i, queued, done)
			}
			if all := rows.All(); rows.Err() != nil || len(all) != 1 || all[0][0].AsInt() != int64(i) {
				t.Errorf("query %d returned %v (err %v)", i, all, rows.Err())
			}
		}(i)
	}
	wg.Wait()
	if r := counted.reads.Load(); r > 2 {
		t.Errorf("the client read the %d responses in %d reads, want at most 2", n, r)
	}
}
