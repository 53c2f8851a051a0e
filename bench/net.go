package main

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync"

	"shareddb"
	"shareddb/client"
	"shareddb/internal/server"
	"shareddb/internal/types"
)

// netSpec shapes the network fan-in workload.
type netSpec struct {
	rows       int     // table size; small enough to stay cached
	window     int     // lanes (pipelined requests) per client connection
	zipfS      float64 // skew of the title-search parameter
	zipfValues int     // distinct title-search parameters
	searchPct  int     // percent of requests that are title searches
	warmupOps  int
}

// The two request statements: a title search whose hot parameters fold
// across connections, and a primary-key point read that seldom folds.
var netSQL = []string{
	`SELECT i_id, i_title FROM item WHERE i_title LIKE ?`,
	`SELECT i_id, i_title, i_cost FROM item WHERE i_id = ?`,
}

const (
	netSearch = 0
	netPoint  = 1
)

// netSystem is internal/server on loopback in this process, in front of a
// database opened through the public API, with one client connection per
// processor. inproc holds the same statements prepared directly on the
// database, for the window that drives the same request stream without
// the network.
type netSystem struct {
	spec    netSpec
	cfg     shareddb.Config
	db      *shareddb.DB
	srv     *server.Server
	served  chan struct{} // closed when the accept loop has returned
	conns   []*client.DB
	inproc  []*shareddb.Stmt
	ls      []*netLane
	ignored []string

	// The requests, built once and shared by every lane: request i runs
	// with args[i] (params[i] is the same value as the engine sees it) and
	// must return want[i] rows.
	args   [][]interface{}
	params [][]types.Value
	want   []int
}

func setupNet(name string, spec netSpec, seed int64) (*netSystem, error) {
	cfg, ignored, err := engineConfig(name)
	if err != nil {
		return nil, err
	}
	s := &netSystem{spec: spec, cfg: cfg, ignored: ignored}
	if s.db, err = shareddb.Open(cfg); err != nil {
		return nil, err
	}
	if err := s.load(); err != nil {
		s.close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, err
	}
	s.srv = server.New(s.db, server.Options{Window: spec.window, Logf: func(string, ...interface{}) {}})
	s.served = make(chan struct{})
	go func() {
		defer close(s.served)
		s.srv.Serve(ln) // returns once close() has closed the server
	}()

	for _, text := range netSQL {
		st, err := s.db.Prepare(text)
		if err != nil {
			s.close()
			return nil, err
		}
		s.inproc = append(s.inproc, st)
	}

	s.buildRequests()

	for c := 0; c < runtime.GOMAXPROCS(0); c++ {
		conn, err := client.OpenConfig(client.Config{Addr: ln.Addr().String(), Window: spec.window})
		if err != nil {
			s.close()
			return nil, err
		}
		s.conns = append(s.conns, conn)
		var stmts []*client.Stmt
		for _, text := range netSQL {
			st, err := conn.Prepare(text)
			if err != nil {
				s.close()
				return nil, err
			}
			stmts = append(stmts, st)
		}
		for w := 0; w < spec.window; w++ {
			rng := rand.New(rand.NewSource(seed + int64(len(s.ls))*7919))
			s.ls = append(s.ls, &netLane{sys: s, remote: stmts, seq: s.requestSequence(rng)})
		}
	}
	if err := driveOps(s.lanes(), (spec.warmupOps+len(s.ls)-1)/len(s.ls)); err != nil {
		s.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return s, nil
}

// load creates and fills the table through DB.Exec and Stmt.Exec, with
// enough concurrent inserts for generations to batch them.
func (s *netSystem) load() error {
	if _, err := s.db.Exec(`CREATE TABLE item (i_id INT, i_title VARCHAR, i_cost FLOAT, PRIMARY KEY (i_id))`); err != nil {
		return err
	}
	ins, err := s.db.Prepare(`INSERT INTO item VALUES (?, ?, ?)`)
	if err != nil {
		return err
	}
	var wg sync.WaitGroup
	errs := make(chan error, 1)
	sem := make(chan struct{}, 128)
	for i := 0; i < s.spec.rows; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			if _, err := ins.Exec(i, fmt.Sprintf("Title %02d", i%100), float64(i%90)+1); err != nil {
				select {
				case errs <- err:
				default:
				}
			}
		}(i)
	}
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
		return nil
	}
}

// buildRequests lays out the request table: the Zipf domain of title
// prefixes (each matches rows/100 titles), then every primary key.
func (s *netSystem) buildRequests() {
	add := func(p types.Value, want int) {
		s.args = append(s.args, []interface{}{p})
		s.params = append(s.params, []types.Value{p})
		s.want = append(s.want, want)
	}
	for v := 0; v < s.spec.zipfValues; v++ {
		add(types.NewString(fmt.Sprintf("Title %02d%%", v)), s.spec.rows/100)
	}
	for id := 0; id < s.spec.rows; id++ {
		add(types.NewInt(int64(id)), 1)
	}
}

// requestSequence pre-draws a lane's requests as indices into args, so
// the timed loop does no sampling and no formatting.
func (s *netSystem) requestSequence(rng *rand.Rand) []uint16 {
	zipf := rand.NewZipf(rng, s.spec.zipfS, 1, uint64(s.spec.zipfValues-1))
	seq := make([]uint16, sequenceLen)
	for i := range seq {
		if rng.Intn(100) < s.spec.searchPct {
			seq[i] = uint16(zipf.Uint64())
		} else {
			seq[i] = uint16(s.spec.zipfValues + rng.Intn(s.spec.rows))
		}
	}
	return seq
}

func (s *netSystem) lanes() []lane {
	out := make([]lane, len(s.ls))
	for i, l := range s.ls {
		out[i] = l
	}
	return out
}

// setInProcess switches every lane between the network path and direct
// calls on the database; the request stream is the same either way.
func (s *netSystem) setInProcess(on bool) {
	for _, l := range s.ls {
		l.mode = viaClient
		if on {
			l.mode = inProcess
		}
	}
}

func (s *netSystem) setCapture(on bool) {
	for _, l := range s.ls {
		l.capturing = on
		if on {
			l.cap = nil
		}
	}
}

func (s *netSystem) captured() capture {
	var c capture
	for _, l := range s.ls {
		c.reads = append(c.reads, l.cap...)
	}
	return c
}

func (s *netSystem) configIgnored() []string { return s.ignored }

func (s *netSystem) counters() counters {
	c := counters{stats: s.db.Stats()}
	runtime.ReadMemStats(&c.mem)
	return c
}

// check replays captured requests over the first client connection and
// through the baseline. (Every reply's row count was already checked in
// the loop.)
func (s *netSystem) check(io.Writer) (int, []string, error) {
	oracles, err := newOracles(s.db, nil)
	if err != nil {
		return 0, nil, err
	}
	defer func() {
		for _, o := range oracles {
			o.done()
		}
	}()
	return checkReads(oracles, netSQL, s.captured().reads, s.queryRemote)
}

// queryRemote runs one captured request over the first client connection.
func (s *netSystem) queryRemote(c call) ([]types.Row, error) {
	rows, err := s.ls[0].remote[c.stmt].Query(toArgs(c.params)...)
	if err != nil {
		return nil, err
	}
	all := rows.All()
	return all, rows.Err()
}

func (s *netSystem) close() error {
	for _, c := range s.conns {
		c.Close()
	}
	if s.srv != nil {
		s.srv.Close()
		<-s.served
	}
	return s.db.Close()
}

// netLane is one slot of a client connection's pipeline window.
type netLane struct {
	sys       *netSystem
	remote    []*client.Stmt
	seq       []uint16
	pos       int
	mode      netMode
	capturing bool
	cap       []call
}

// netMode is how a lane delivers its requests.
type netMode uint8

const (
	viaClient netMode = iota // client.Stmt.Query + Rows.All over loopback
	inProcess                // shareddb.Stmt.Query on the same database
	noCall                   // nowhere: measures the generator alone
)

func (l *netLane) step(tr *laneTrace) error {
	req := l.seq[l.pos%len(l.seq)]
	l.pos++
	stmt := netSearch
	if int(req) >= l.sys.spec.zipfValues {
		stmt = netPoint
	}
	args := l.sys.args[req]
	if l.capturing && len(l.cap) < captureLimit {
		l.cap = append(l.cap, call{stmt: stmt, params: l.sys.params[req]})
	}
	sp := -1
	if tr != nil {
		tr.beginOp()
		name := uint8(spanClientQuery)
		if l.mode == inProcess {
			name = spanStmtQuery
		}
		sp = tr.begin(name)
	}
	var got []types.Row
	var err error
	switch l.mode {
	case viaClient:
		var rows *client.Rows
		if rows, err = l.remote[stmt].Query(args...); err == nil {
			got = rows.All()
			err = rows.Err()
		}
	case inProcess:
		var rows *shareddb.Rows
		if rows, err = l.sys.inproc[stmt].Query(args...); err == nil {
			got = rows.All()
		}
	case noCall:
		return nil
	}
	if tr != nil {
		tr.end(sp)
		tr.endOp()
	}
	// Every reply is checked: the row count, and for a point read that
	// the row is the one asked for (a reply routed to the wrong request
	// would otherwise pass).
	switch {
	case err != nil:
	case len(got) != l.sys.want[req]:
		err = fmt.Errorf("request %v returned %d rows, want %d", args[0], len(got), l.sys.want[req])
	case stmt == netPoint && !got[0][0].Equal(l.sys.params[req][0]):
		err = fmt.Errorf("point read of %v returned row %v", args[0], got[0][0])
	}
	return err
}
