package server

import (
	"io"
	"net"
	"sync"
	"testing"

	"shareddb"
	"shareddb/internal/types"
	"shareddb/internal/wire"
)

func seedRow() []types.Value {
	return []types.Value{types.NewInt(2), types.NewString("two")}
}

// fuzzServer lazily opens one DB + Server shared by every fuzz execution
// in the process: the property under test is the connection read path, so
// the engine behind it can be shared.
var fuzzServer = struct {
	once sync.Once
	srv  *Server
}{}

func fuzzTarget(t testing.TB) *Server {
	fuzzServer.once.Do(func() {
		db, err := shareddb.Open(shareddb.Config{})
		if err != nil {
			panic(err)
		}
		if _, err := db.Exec(`CREATE TABLE fz (id INT, s VARCHAR, PRIMARY KEY (id))`); err != nil {
			panic(err)
		}
		if _, err := db.Exec(`INSERT INTO fz VALUES (?, ?)`, 1, "one"); err != nil {
			panic(err)
		}
		fuzzServer.srv = New(db, Options{Window: 4, Logf: func(string, ...interface{}) {}})
	})
	return fuzzServer.srv
}

// serverSeeds returns valid and near-valid byte streams so the fuzzer
// starts from frames that exercise deep dispatch paths, not just the
// length-prefix check.
func serverSeeds() [][]byte {
	hello := wire.Hello{Version: wire.Version, Window: 4}.Append(nil)
	withHello := func(rest []byte) []byte { return append(append([]byte(nil), hello...), rest...) }
	return [][]byte{
		hello,
		withHello(wire.AppendEmpty(nil, wire.TQuit)),
		withHello(wire.Simple{ID: 1}.Append(nil, wire.TPing)),
		withHello(wire.Simple{ID: 2}.Append(nil, wire.TStats)),
		withHello(wire.Prepare{ID: 3, SQL: "SELECT id, s FROM fz WHERE id = ?"}.Append(nil)),
		withHello(wire.SQLCall{ID: 4, SQL: "SELECT id FROM fz"}.Append(nil, wire.TQuerySQL)),
		withHello(wire.SQLCall{ID: 5, SQL: "INSERT INTO fz VALUES (?, ?)", Params: seedRow()}.Append(nil, wire.TExecSQL)),
		withHello(wire.StmtCall{ID: 6, Stmt: 999, Params: seedRow()}.Append(nil, wire.TQuery)),
		withHello(wire.Ref{ID: 7, Ref: 999}.Append(nil, wire.TUnsubscribe)),
		withHello(wire.Ref{ID: 8, Ref: 1}.Append(nil, wire.TCloseStmt)),
		// Bursts: a prepared handle queried past the window of 4, control
		// frames between the queries, and a valid prefix ahead of garbage.
		withHello(burstSeed(6, nil)),
		withHello(burstSeed(3, wire.AppendEmpty(nil, wire.TQuit))),
		withHello(burstSeed(2, []byte{0x00, 0x00, 0x00, 0x00})),
		withHello(burstSeed(5, wire.SQLCall{ID: 40, SQL: "SELECT id FROM fz WHERE id > ?",
			Params: []types.Value{types.NewInt(0)}}.Append(nil, wire.TSubscribe))),
		withHello([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF}),
		{0x00, 0x00, 0x00, 0x00},
		{0xde, 0xad, 0xbe, 0xef},
	}
}

// burstSeed is PREPARE, then n pipelined queries on the handle with a
// CLOSE_STMT of another handle and a PING between them, then tail.
func burstSeed(n int, tail []byte) []byte {
	b := wire.Prepare{ID: 1, SQL: "SELECT id, s FROM fz WHERE id = ?"}.Append(nil)
	for i := 0; i < n; i++ {
		b = wire.StmtCall{ID: uint64(10 + i), Stmt: 1, Params: []types.Value{types.NewInt(int64(i % 3))}}.Append(b, wire.TQuery)
		if i == 1 {
			b = wire.Ref{Ref: 7}.Append(b, wire.TCloseStmt)
			b = wire.Simple{ID: 30}.Append(b, wire.TPing)
		}
	}
	return append(b, tail...)
}

// FuzzServerBytes feeds arbitrary byte streams to a live connection, in two
// writes split at a fuzzed position (net.Pipe hands the server each write
// as one read, so the split lands frames and bursts across reads): the
// server must never panic and must always release the connection (the
// reader returning closes it). net.Pipe is synchronous, so a drain
// goroutine consumes whatever the server writes back.
func FuzzServerBytes(f *testing.F) {
	for i, seed := range serverSeeds() {
		f.Add(seed, uint16(0))
		f.Add(seed, uint16(7*i+5))
	}
	f.Fuzz(func(t *testing.T, data []byte, split uint16) {
		srv := fuzzTarget(t)
		cli, srvEnd := net.Pipe()
		srv.ServeConn(srvEnd)
		done := make(chan struct{})
		go func() {
			defer close(done)
			io.Copy(io.Discard, cli) // unblock the server's flusher
		}()
		cut := 0
		if len(data) > 0 {
			cut = int(split) % len(data)
		}
		cli.Write(data[:cut]) // error (server closed early) is a valid outcome
		cli.Write(data[cut:])
		cli.Close()
		<-done
	})
}
