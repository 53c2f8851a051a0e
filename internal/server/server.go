// Package server is SharedDB's network front end: it serves the binary
// wire protocol (internal/wire) over a listener, translating frames into
// engine submissions.
//
// The design goal is massive fan-in — the paper's thousand concurrent
// queries arriving over a thousand sockets — and the socket is run the way
// the engine is: whatever queued while the last unit of work was in flight
// is the next unit of work.
//
//   - A read burst is the unit of work. The reader goroutine reads through
//     a buffered frame reader (wire.Reader), so one read syscall delivers
//     every frame the peer had pipelined. It decodes all of them, takes a
//     window slot for each QUERY/EXEC, and hands the lot to the engine with
//     one SubmitBatch: one engine-lock acquisition, one dispatcher wake-up.
//     The burst's identical queries fold against each other and the whole
//     burst lands in one generation. A burst of one (a connection with one
//     request outstanding) is the same path with n = 1.
//   - Completion costs no goroutine. Each submitted request carries a
//     pre-allocated window slot as its result's completion hook; whichever
//     engine goroutine finishes the result queues the slot on the
//     connection's outbox. Responses therefore leave in engine-completion
//     order, not request order.
//   - One flush per burst of completions. The outbox's single flusher
//     encodes every response that completed while its previous write was in
//     flight straight into the buffer the next write sends, and frees each
//     slot as it is encoded: a generation's worth of answers is one write
//     syscall.
//   - The window is the flow control. A connection with every slot in
//     flight first submits what it has decoded, then stops reading until the
//     flusher frees a slot — TCP back-pressure reaches the peer without a
//     reject.
//   - An idle connection costs one parked reader goroutine and a 4 KiB read
//     buffer (the reader grows it to the largest frame it meets and decays
//     it when bursts shrink) — 8.6 KB of heap and stack in all, measured
//     over 1000 idle loopback connections with both socket ends in the
//     process. Window slots are made as the pipelining depth needs them;
//     no write or timer goroutine exists until there is something to
//     write. A connection that goes away abandons what it still has queued,
//     so dead clients cost no generation their activations.
//   - Statements resolve through the engine's registry: Prepare compiles a
//     SQL text once and hands every later caller the same statement.
//     Registration quiesces the generation pipeline, so a thousand clients
//     preparing the same statement, or sending it ad hoc, pay that cost
//     once, not a thousand times. A connection's statement handles are
//     session-local names for registry statements.
package server

import (
	"log"
	"net"
	"sync"

	"shareddb"
	"shareddb/internal/core"
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
	conns  map[*conn]struct{}
	lns    map[net.Listener]struct{}
	closed bool

	wg sync.WaitGroup // readers and subscription pushers
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
