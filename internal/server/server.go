// Package server is SharedDB's network front end: it serves the binary
// wire protocol (internal/wire) over a listener, translating frames into
// engine submissions.
//
// The design goal is massive fan-in — the paper's thousand concurrent
// queries arriving over a thousand sockets:
//
//   - Each connection costs one parked reader goroutine while idle (the
//     runtime netpoller holds the socket; no per-connection write or timer
//     goroutines exist until there is work to do).
//   - The reader dispatches QUERY/EXEC frames straight into the engine's
//     asynchronous Submit without waiting for results, bounded by a
//     per-connection in-flight window. A full pipeline window therefore
//     lands in the same pending queue, where identical queries from one
//     window (or a thousand windows) fold into one activation.
//   - Completions are written by short-lived waiter goroutines through a
//     coalescing outbox: while one flush syscall is in flight, every other
//     completion appends to the pending buffer and ships in the next
//     syscall, so response writes amortize exactly like the engine's
//     shared execution amortizes query work.
//   - Prepared statements live in a server-wide registry keyed by SQL
//     text. Statement registration quiesces the generation pipeline, so a
//     thousand clients preparing the same statement must pay that cost
//     once, not a thousand times.
package server

import (
	"log"
	"net"
	"sync"

	"shareddb"
	"shareddb/internal/core"
	"shareddb/internal/plan"
)

// Options tunes the front end.
type Options struct {
	// Window is the per-connection in-flight request window: how many
	// QUERY/EXEC frames one connection may have submitted without a
	// terminal response. The reader stops reading when the window is
	// full, back-pressuring the peer through TCP. 0 selects 64.
	Window int
	// Logf receives accept-loop diagnostics; nil uses log.Printf.
	Logf func(format string, args ...interface{})
}

const (
	// DefaultWindow is the per-connection in-flight window when
	// Options.Window is zero.
	DefaultWindow = 64
	// rowsPerBatch caps rows per ROW_BATCH frame in streamed results.
	rowsPerBatch = 256
)

// Server serves one DB over one or more listeners.
type Server struct {
	db   *shareddb.DB
	exec core.Executor
	opts Options

	mu     sync.Mutex
	stmts  map[string]*plan.Statement // shared registry, keyed by SQL text
	conns  map[*conn]struct{}
	lns    map[net.Listener]struct{}
	closed bool

	wg sync.WaitGroup // readers, waiters, pushers, flushers
}

// New builds a Server around an open DB. The caller keeps ownership of the
// DB: Close stops serving but does not close the database.
func New(db *shareddb.DB, opts Options) *Server {
	if opts.Window <= 0 {
		opts.Window = DefaultWindow
	}
	if opts.Logf == nil {
		opts.Logf = log.Printf
	}
	return &Server{
		db:    db,
		exec:  db.Engine(),
		opts:  opts,
		stmts: map[string]*plan.Statement{},
		conns: map[*conn]struct{}{},
		lns:   map[net.Listener]struct{}{},
	}
}

// Serve accepts connections on ln until the listener fails or the server
// closes. It blocks; run it in a goroutine to serve multiple listeners.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return net.ErrClosed
	}
	s.lns[ln] = struct{}{}
	s.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			delete(s.lns, ln)
			s.mu.Unlock()
			if closed {
				return net.ErrClosed
			}
			return err
		}
		s.ServeConn(nc)
	}
}

// ServeConn adopts one established connection (tests drive net.Pipe ends
// through here). It returns immediately; the connection is served by its
// reader goroutine.
func (s *Server) ServeConn(nc net.Conn) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		nc.Close()
		return
	}
	c := newConn(s, nc)
	s.conns[c] = struct{}{}
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		c.readLoop()
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
	}()
}

// Close stops accepting, closes every live connection and waits for all
// connection goroutines to drain. The DB stays open.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	for ln := range s.lns {
		ln.Close()
	}
	for c := range s.conns {
		c.nc.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

// prepare resolves SQL text to a shared statement handle, registering it at
// most once server-wide. Registration quiesces the generation pipeline, so
// the registry is what keeps a thousand clients preparing the same
// statement from stalling the engine a thousand times. The breaker peek
// (AdmitStatement) runs before registration exactly like the in-process
// ad-hoc path.
func (s *Server) prepare(sqlText string) (*plan.Statement, error) {
	s.mu.Lock()
	st, ok := s.stmts[sqlText]
	s.mu.Unlock()
	if ok {
		return st, nil
	}
	if err := s.exec.AdmitStatement(sqlText); err != nil {
		return nil, err
	}
	st, err := s.exec.Prepare(sqlText)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	// Two racers both prepared: keep the first registration (both handles
	// are valid; keeping one makes handle identity stable).
	if prior, ok := s.stmts[sqlText]; ok {
		st = prior
	} else {
		s.stmts[sqlText] = st
	}
	s.mu.Unlock()
	return st, nil
}
