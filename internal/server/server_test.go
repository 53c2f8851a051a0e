package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"shareddb"
	"shareddb/client"
	"shareddb/internal/dbapi"
	"shareddb/internal/types"
	"shareddb/internal/wire"
)

// startServer opens a DB, seeds it through cb, and serves it on loopback.
func startServer(t *testing.T, cfg shareddb.Config, opts Options, seed func(db *shareddb.DB)) (addr string, db *shareddb.DB) {
	t.Helper()
	db, err := shareddb.Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { db.Close() })
	if seed != nil {
		seed(db)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := New(db, opts)
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String(), db
}

func seedItems(n int) func(db *shareddb.DB) {
	return func(db *shareddb.DB) {
		mustExec(db, `CREATE TABLE item (i_id INT, i_title VARCHAR, i_stock INT, PRIMARY KEY (i_id))`)
		for i := 0; i < n; i++ {
			mustExec(db, `INSERT INTO item VALUES (?, ?, ?)`, i, fmt.Sprintf("Title %02d", i%10), 10+i)
		}
	}
}

func mustExec(db *shareddb.DB, sqlText string, args ...interface{}) {
	if _, err := db.Exec(sqlText, args...); err != nil {
		panic(fmt.Sprintf("seed %q: %v", sqlText, err))
	}
}

// TestPipelinedDifferential pins the protocol's core correctness claim:
// N queries pipelined on ONE connection return bit-identical rows to the
// same N queries issued over N sequential, separate connections. Out-of-
// order completion, window scheduling, burst submission and fold fan-out
// must never change what any individual caller sees — including when a
// whole-table scan shares its bursts with point reads, and when a statement
// quota sheds part of every burst to a later generation so the burst's
// answers come back out of order.
func TestPipelinedDifferential(t *testing.T) {
	for name, cfg := range map[string]shareddb.Config{
		"serial generations":   {MaxInFlightGenerations: 1},
		"quota sheds the scan": {MaxInFlightGenerations: 1, StatementQuota: 2},
	} {
		t.Run(name, func(t *testing.T) { pipelinedDifferential(t, cfg) })
	}
}

func pipelinedDifferential(t *testing.T, cfg shareddb.Config) {
	addr, _ := startServer(t, cfg, Options{Window: 8}, seedItems(40))

	const scan = `SELECT i_id, i_title, i_stock FROM item WHERE i_title LIKE ?`
	type query struct {
		sql   string
		param interface{}
	}
	var queries []query
	for i := 0; i < 24; i++ {
		queries = append(queries, query{scan, fmt.Sprintf("Title %02d%%", i%6)})
		if i%3 == 0 {
			queries = append(queries, query{pointSQL, i})
		}
		if i%8 == 0 {
			queries = append(queries, query{scan, "Title%"}) // the slow one: every row
		}
	}

	// Pipelined: one connection, all queries in flight concurrently.
	db, err := client.OpenConfig(client.Config{Addr: addr, Window: 8})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer db.Close()
	stmts := map[string]*client.Stmt{}
	for _, text := range []string{scan, pointSQL} {
		if stmts[text], err = db.Prepare(text); err != nil {
			t.Fatalf("prepare: %v", err)
		}
	}
	pipelined := make([][]types.Row, len(queries))
	var wg sync.WaitGroup
	errs := make([]error, len(queries))
	for i, q := range queries {
		wg.Add(1)
		go func(i int, q query) {
			defer wg.Done()
			rows, err := stmts[q.sql].Query(q.param)
			if err != nil {
				errs[i] = err
				return
			}
			pipelined[i] = rows.All()
			errs[i] = rows.Err()
		}(i, q)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("pipelined query %d: %v", i, err)
		}
	}

	// Sequential: a fresh connection per query.
	for i, q := range queries {
		one, err := client.Open(addr)
		if err != nil {
			t.Fatalf("sequential open %d: %v", i, err)
		}
		rows, err := one.Query(q.sql, q.param)
		if err != nil {
			one.Close()
			t.Fatalf("sequential query %d: %v", i, err)
		}
		got := rows.All()
		if err := rows.Err(); err != nil {
			one.Close()
			t.Fatalf("sequential rows %d: %v", i, err)
		}
		one.Close()
		if len(got) == 0 || !reflect.DeepEqual(got, pipelined[i]) {
			t.Fatalf("query %d (%v): pipelined and sequential results differ\npipelined: %v\nsequential: %v",
				i, q.param, pipelined[i], got)
		}
	}
}

// TestSameGenerationFold pins the fan-in payoff: a full pipeline window
// of IDENTICAL queries on one connection lands in the same pending queue
// and folds into one engine activation (FoldedQueries advances). The
// serial pipeline + heartbeat give duplicates time to accumulate, the
// same configuration the in-process folding benchmark uses.
func TestSameGenerationFold(t *testing.T) {
	const window = 16
	addr, sdb := startServer(t,
		shareddb.Config{MaxInFlightGenerations: 1, Heartbeat: 2 * time.Millisecond},
		Options{Window: window}, seedItems(40))

	db, err := client.OpenConfig(client.Config{Addr: addr, Window: window})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer db.Close()
	stmt, err := db.Prepare(`SELECT i_id FROM item WHERE i_title LIKE ?`)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}

	before := sdb.Stats()
	var wg sync.WaitGroup
	for round := 0; round < 4; round++ {
		for i := 0; i < window; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rows, err := stmt.Query("Title 03%")
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				rows.All()
				if err := rows.Err(); err != nil {
					t.Errorf("rows: %v", err)
				}
			}()
		}
		wg.Wait()
	}
	after := sdb.Stats()
	if folded := after.FoldedQueries - before.FoldedQueries; folded == 0 {
		t.Fatalf("no queries folded across 4 windows of %d identical pipelined queries (stats: %+v)", window, after)
	}

	// The client reads the engine's own snapshot, every counter of it.
	cst, err := db.Stats()
	if err != nil {
		t.Fatalf("client stats: %v", err)
	}
	if est := sdb.Stats(); cst != est {
		t.Fatalf("client stats %+v != engine %+v", cst, est)
	}
	if cst.FoldHitRate() <= 0 {
		t.Fatalf("client FoldHitRate = %v, want > 0", cst.FoldHitRate())
	}
}

// TestStatsFrameRoundTrip sets every counter to a distinct value and reads
// it back from the STATS_OK frame the way package client decodes it.
func TestStatsFrameRoundTrip(t *testing.T) {
	var st shareddb.Stats
	for i, name := range dbapi.StatNames {
		st.Set(name, uint64(10+i))
	}
	typ, payload, _, err := wire.ReadFrame(bytes.NewReader(statsFrame(7, st)), nil)
	if err != nil || typ != wire.TStatsOK {
		t.Fatalf("frame %v, err %v", typ, err)
	}
	m, err := wire.DecodeStatsOK(payload)
	if err != nil {
		t.Fatal(err)
	}
	var got shareddb.Stats
	for _, f := range m.Fields {
		if !got.Set(f.Name, f.Value) {
			t.Fatalf("frame carries unknown counter %q", f.Name)
		}
	}
	if m.ID != 7 || got != st {
		t.Fatalf("decoded id %d, %+v; want 7, %+v", m.ID, got, st)
	}
}

// TestMalformedInput throws protocol garbage at a live server: every case
// must end with the connection closed (an ERR frame is allowed first) and
// the server still serving new connections afterwards. No recover() exists
// in the read path, so a panic would fail the whole test binary.
func TestMalformedInput(t *testing.T) {
	addr, _ := startServer(t, shareddb.Config{}, Options{}, seedItems(4))

	oversized := make([]byte, 4)
	binary.LittleEndian.PutUint32(oversized, wire.MaxFrame+1)
	cases := map[string][]byte{
		"raw garbage":                  {0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03},
		"zero length frame":            {0, 0, 0, 0},
		"oversized frame":              oversized,
		"bad first frame":              wire.Simple{ID: 1}.Append(nil, wire.TPing),
		"bogus frame type":             {2, 0, 0, 0, 0x7F, 0x00},
		"truncated hello":              wire.Hello{Version: wire.Version, Window: 4}.Append(nil)[:5],
		"trailing payload":             append(wire.Hello{Version: wire.Version, Window: 4}.Append(nil), 9, 0, 0, 0, byte(wire.TPing), 1, 0xFF, 0xFF, 0xFF, 0xFF),
		"server-only frame":            append(wire.Hello{Version: wire.Version, Window: 4}.Append(nil), wire.ExecOK{ID: 1}.Append(nil)...),
		"wrong hello version":          wire.Hello{Version: 99, Window: 4}.Append(nil),
		"burst then zero length frame": append(helloPrepareAndQueries(6), 0, 0, 0, 0),
		"burst then bogus frame type":  append(helloPrepareAndQueries(3), 2, 0, 0, 0, 0x7F, 0x00),
	}
	for name, payload := range cases {
		t.Run(name, func(t *testing.T) {
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			defer nc.Close()
			if _, err := nc.Write(payload); err != nil {
				t.Fatalf("write: %v", err)
			}
			// The server must close the connection (after at most one ERR
			// frame): reads terminate rather than hang.
			nc.SetReadDeadline(time.Now().Add(5 * time.Second))
			buf := make([]byte, 1<<16)
			for {
				if _, err := nc.Read(buf); err != nil {
					break
				}
			}
		})
	}

	// The server survived all of it.
	db, err := client.Open(addr)
	if err != nil {
		t.Fatalf("server unusable after malformed input: %v", err)
	}
	defer db.Close()
	if err := db.Ping(context.Background()); err != nil {
		t.Fatalf("ping after malformed input: %v", err)
	}
}

// helloPrepareAndQueries is a well-formed session opening: HELLO, PREPARE of
// a point read (handle 1), then n pipelined queries on it.
func helloPrepareAndQueries(n int) []byte {
	b := wire.Hello{Version: wire.Version, Window: 4}.Append(nil)
	b = wire.Prepare{ID: 1, SQL: pointSQL}.Append(b)
	return append(b, pointQueries(1, 10, seq(n)...)...)
}

// TestSubscribePush drives the standing-query path end to end: SUB_OK,
// the initial full result, then a delta after a write.
func TestSubscribePush(t *testing.T) {
	addr, _ := startServer(t, shareddb.Config{}, Options{}, seedItems(4))

	db, err := client.Open(addr)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer db.Close()
	stmt, err := db.Prepare(`SELECT i_id FROM item WHERE i_stock > ?`)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sub, err := db.Subscribe(ctx, stmt, 11)
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	defer sub.Close()

	waitUpdate := func(what string) client.SubscriptionUpdate {
		t.Helper()
		select {
		case u, ok := <-sub.Updates():
			if !ok {
				t.Fatalf("updates channel closed waiting for %s", what)
			}
			return u
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out waiting for %s", what)
		}
		panic("unreachable")
	}

	first := waitUpdate("initial full result")
	if !first.Full {
		t.Fatalf("first update not full: %+v", first)
	}
	if len(first.Rows) != 2 { // stock values 12, 13 exceed 11
		t.Fatalf("initial result has %d rows, want 2: %+v", len(first.Rows), first.Rows)
	}
	if _, err := db.Exec(`INSERT INTO item VALUES (?, ?, ?)`, 100, "Title 99", 50); err != nil {
		t.Fatalf("insert: %v", err)
	}
	delta := waitUpdate("insert delta")
	if delta.Full || len(delta.Added) != 1 {
		t.Fatalf("unexpected delta after insert: %+v", delta)
	}
}

// TestExplainPlanOverQuerySQL pins the plan dump's wire shape: EXPLAIN PLAN
// sent as an ad-hoc query answers a one-column row set, one row per
// operator node, without a new frame type.
func TestExplainPlanOverQuerySQL(t *testing.T) {
	addr, db := startServer(t, shareddb.Config{}, Options{}, seedItems(3))
	cl, err := client.Open(addr)
	if err != nil {
		t.Fatalf("client.Open: %v", err)
	}
	defer cl.Close()
	if _, err := cl.Query(`SELECT i_id, i_title FROM item WHERE i_stock > ?`, 0); err != nil {
		t.Fatalf("query: %v", err)
	}
	rows, err := cl.Query("explain  plan")
	if err != nil {
		t.Fatalf("EXPLAIN PLAN: %v", err)
	}
	if cols := rows.Columns(); !reflect.DeepEqual(cols, []string{"plan"}) {
		t.Fatalf("columns = %v, want [plan]", cols)
	}
	var lines []string
	for _, row := range rows.All() {
		lines = append(lines, row[0].AsString())
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("rows: %v", err)
	}
	if got, want := strings.Join(lines, "\n")+"\n", db.DescribePlan(); got != want || len(lines) == 0 {
		t.Fatalf("plan over the wire:\n%s\nDescribePlan:\n%s", got, want)
	}
}

// TestQuitHandshake pins the orderly close: QUIT answers BYE and the
// server closes the connection after flushing it.
func TestQuitHandshake(t *testing.T) {
	addr, _ := startServer(t, shareddb.Config{}, Options{}, nil)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc.Close()
	if _, err := nc.Write(wire.Hello{Version: wire.Version, Window: 4}.Append(nil)); err != nil {
		t.Fatalf("hello: %v", err)
	}
	typ, _, buf, err := wire.ReadFrame(nc, nil)
	if err != nil || typ != wire.THelloOK {
		t.Fatalf("handshake: type %v err %v", typ, err)
	}
	if _, err := nc.Write(wire.AppendEmpty(nil, wire.TQuit)); err != nil {
		t.Fatalf("quit: %v", err)
	}
	typ, _, buf, err = wire.ReadFrame(nc, buf)
	if err != nil || typ != wire.TBye {
		t.Fatalf("quit reply: type %v err %v", typ, err)
	}
	if _, _, _, err := wire.ReadFrame(nc, buf); err == nil {
		t.Fatal("connection still open after BYE")
	}
}
