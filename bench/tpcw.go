package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"

	"shareddb"
	"shareddb/internal/storage"
	"shareddb/internal/tpcw"
	"shareddb/internal/types"
)

// tpcwSpec is what distinguishes one TPC-W workload from another; the
// engine configuration comes from engine_config.json.
type tpcwSpec struct {
	mix       tpcw.Mix
	scale     tpcw.Scale
	inFlight  int  // emulated browsers, each a closed-loop lane
	warmupOps int  // fixed warm-up work, part of set-up
	wal       bool // log to a fresh directory under the scratch dir
}

// tpcwSystem is a TPC-W database opened, loaded and prepared through the
// public API: shareddb.Open, bulk load through DB.Storage (the documented
// bulk-loading door), DB.Prepare for every statement of the workload.
type tpcwSystem struct {
	cfg     shareddb.Config
	db      *shareddb.DB
	sqls    []string
	stmts   []*shareddb.Stmt
	ls      []*tpcwLane
	walDir  string
	ignored []string
	// baseRows is each table's row count after the load, before any lane
	// ran: the base of the inserts-equal-growth check.
	baseRows map[string]int
	closed   bool
}

// insertTables maps the insert statements whose tables are never deleted
// from to their table, for the "acknowledged inserts equal row-count
// growth" check. shopping_cart_line is left out: carts are cleared.
var insertTables = map[tpcw.StmtID]string{
	tpcw.StCreateEmptyCart:   "shopping_cart",
	tpcw.StCreateNewCustomer: "customer",
	tpcw.StEnterAddress:      "address",
	tpcw.StEnterOrder:        "orders",
	tpcw.StAddOrderLine:      "order_line",
	tpcw.StEnterCCXact:       "cc_xacts",
}

func setupTPCW(name string, spec tpcwSpec, seed int64, scratch string) (*tpcwSystem, error) {
	cfg, ignored, err := engineConfig(name)
	if err != nil {
		return nil, err
	}
	s := &tpcwSystem{ignored: ignored, sqls: tpcw.StatementSQL()}
	if spec.wal {
		if s.walDir, err = os.MkdirTemp(scratch, name+"-wal-"); err != nil {
			return nil, err
		}
		cfg.WALDir = s.walDir
	}
	if cfg.Shards > 1 {
		p := tpcw.ShardedPlacement()
		cfg.ReplicatedTables, cfg.PartitionKeys = p.Replicated, p.PartitionKeys
	}
	s.cfg = cfg
	if s.db, err = shareddb.Open(cfg); err != nil {
		return nil, err
	}
	var gen *tpcw.Generator
	if cfg.Shards > 1 {
		gen, err = tpcw.SetupSharded(s.db.Storages(), spec.scale, seed)
	} else {
		gen, err = tpcw.Setup(s.db.Storage(), spec.scale, seed)
	}
	if err != nil {
		s.close()
		return nil, err
	}
	s.baseRows = tableRows(s.db, cfg.ReplicatedTables)
	for id, text := range s.sqls {
		st, err := s.db.Prepare(text)
		if err != nil {
			s.close()
			return nil, fmt.Errorf("prepare statement %d: %w", id, err)
		}
		s.stmts = append(s.stmts, st)
	}
	ids := tpcw.NewIDAllocator(gen)
	for i := 0; i < spec.inFlight; i++ {
		l := &tpcwLane{sys: laneSystem{shared: s}}
		// The seeds are tpcw.RunDriver's, so a lane is the emulated
		// browser the repository's own driver would run.
		l.sess = tpcw.NewSession(&l.sys, spec.scale, ids, seed+int64(i)*7919)
		l.seq = interactionSequence(spec.mix, rand.New(rand.NewSource(seed+int64(i)*104729+1)))
		s.ls = append(s.ls, l)
	}
	if err := driveOps(s.lanes(), (spec.warmupOps+spec.inFlight-1)/spec.inFlight); err != nil {
		s.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return s, nil
}

func (s *tpcwSystem) lanes() []lane {
	out := make([]lane, len(s.ls))
	for i, l := range s.ls {
		out[i] = l
	}
	return out
}

func (s *tpcwSystem) setCapture(on bool) {
	for _, l := range s.ls {
		l.sys.capturing = on
		if on {
			l.sys.cap = capture{}
		}
	}
}

func (s *tpcwSystem) captured() capture {
	var c capture
	for _, l := range s.ls {
		c.reads = append(c.reads, l.sys.cap.reads...)
		c.writes = append(c.writes, l.sys.cap.writes...)
	}
	return c
}

func (s *tpcwSystem) configIgnored() []string { return s.ignored }

func (s *tpcwSystem) counters() counters {
	c := counters{stats: s.db.Stats()}
	runtime.ReadMemStats(&c.mem)
	for _, l := range s.ls {
		c.reads += l.sys.reads
	}
	if s.walDir != "" {
		if entries, err := os.ReadDir(s.walDir); err == nil {
			for _, e := range entries {
				if info, err := e.Info(); err == nil {
					c.walBytes += info.Size()
				}
			}
		}
	}
	return c
}

// check compares captured reads with the baseline and acknowledged
// inserts with row growth.
func (s *tpcwSystem) check(log io.Writer) (int, []string, error) {
	oracles, err := newOracles(s.db, s.cfg.ReplicatedTables)
	if err != nil {
		return 0, nil, err
	}
	defer func() {
		for _, o := range oracles {
			o.done()
		}
	}()
	checked, wrong, err := checkReads(oracles, s.sqls, s.captured().reads, func(c call) ([]types.Row, error) {
		rows, err := s.stmts[c.stmt].Query(toArgs(c.params)...)
		if err != nil {
			return nil, err
		}
		return rows.All(), nil
	})
	if err != nil {
		return 0, nil, err
	}
	lost, orphans := checkGrowth(s.baseRows, tableRows(s.db, s.cfg.ReplicatedTables), s.ackedInserts(), s.cfg.Shards > 1)
	if orphans > 0 {
		fmt.Fprintf(log, "%d rows left by cross-shard commits that failed on another shard\n", orphans)
	}
	return checked, append(wrong, lost...), nil
}

func (s *tpcwSystem) close() error {
	var err error
	if !s.closed {
		s.closed = true
		err = s.db.Close()
	}
	if s.walDir != "" {
		os.RemoveAll(s.walDir)
	}
	return err
}

// ackedInserts sums, per table, the inserts the engine acknowledged to
// any lane since set-up began.
func (s *tpcwSystem) ackedInserts() map[string]int {
	out := map[string]int{}
	for _, l := range s.ls {
		for id, table := range insertTables {
			out[table] += l.sys.acked[id]
		}
	}
	return out
}

// sequenceLen is how many interactions a lane pre-generates; a lane that
// runs through them wraps around.
const sequenceLen = 1 << 14

// interactionSequence draws a lane's interactions from the mix's
// stationary frequencies before the clock starts.
func interactionSequence(mix tpcw.Mix, rng *rand.Rand) []tpcw.Interaction {
	weights := mix.Weights()
	var cum [tpcw.NumInteractions]float64
	total := 0.0
	for i, w := range weights {
		total += w
		cum[i] = total
	}
	seq := make([]tpcw.Interaction, sequenceLen)
	for n := range seq {
		pick := rng.Float64() * total
		for i := tpcw.Interaction(0); i < tpcw.NumInteractions; i++ {
			if pick <= cum[i] {
				seq[n] = i
				break
			}
		}
	}
	return seq
}

// conflictRetries is how many times a lane runs an interaction that keeps
// ending in a write-write conflict.
const conflictRetries = 4

// tpcwLane is one emulated browser: the repository's tpcw.Session driven
// through a per-lane adapter onto the public API.
type tpcwLane struct {
	sess *tpcw.Session
	sys  laneSystem
	seq  []tpcw.Interaction
	pos  int
}

func (l *tpcwLane) step(tr *laneTrace) error {
	inter := l.seq[l.pos%len(l.seq)]
	l.pos++
	l.sys.tr = tr
	if tr != nil {
		tr.beginOp()
	}
	// A snapshot-isolation conflict aborts a purchase atomically; the
	// session itself retries three times, and like a browser resubmitting
	// the page the lane tries the interaction again before it counts the
	// operation as failed. The latency recorded covers every attempt.
	var err error
	for attempt := 0; attempt < conflictRetries; attempt++ {
		if err = l.sess.Run(inter); !errors.Is(err, storage.ErrConflict) {
			break
		}
	}
	if tr != nil {
		tr.endOp()
	}
	return err
}

// laneSystem implements tpcw.System for one lane over shareddb.Stmt and
// shareddb.Tx. Being per-lane it can count, capture and trace without
// locks.
type laneSystem struct {
	shared *tpcwSystem
	tr     *laneTrace

	acked     [tpcw.NumStatements]int // acknowledged rows per insert statement
	reads     int                     // Stmt.Query calls made
	capturing bool
	cap       capture
}

func (s *laneSystem) Name() string { return "shareddb" }
func (s *laneSystem) Close()       {}

func toArgs(params []types.Value) []interface{} {
	args := make([]interface{}, len(params))
	for i, p := range params {
		args[i] = p
	}
	return args
}

func (s *laneSystem) Query(id tpcw.StmtID, params ...types.Value) ([]types.Row, error) {
	s.reads++
	if s.capturing && len(s.cap.reads) < captureLimit {
		s.cap.reads = append(s.cap.reads, call{stmt: int(id), params: params})
	}
	sp := -1
	if s.tr != nil {
		sp = s.tr.begin(spanStmtQuery)
	}
	rows, err := s.shared.stmts[id].Query(toArgs(params)...)
	if sp >= 0 {
		s.tr.end(sp)
	}
	if err != nil {
		return nil, err
	}
	return rows.All(), nil
}

func (s *laneSystem) Exec(id tpcw.StmtID, params ...types.Value) (int, error) {
	sp := -1
	if s.tr != nil {
		sp = s.tr.begin(spanStmtExec)
	}
	res, err := s.shared.stmts[id].Exec(toArgs(params)...)
	if sp >= 0 {
		s.tr.end(sp)
	}
	if err != nil {
		return 0, err
	}
	s.acked[id] += res.RowsAffected
	if s.capturing && len(s.cap.writes) < captureLimit {
		s.cap.writes = append(s.cap.writes, call{stmt: int(id), params: params})
	}
	return res.RowsAffected, nil
}

// laneTx buffers a transaction's statements through shareddb.Tx.Exec,
// which takes SQL text: the public transaction API has no prepared form.
type laneTx struct {
	tx    *shareddb.Tx
	sqls  []string
	calls []call
}

func (t *laneTx) Exec(id tpcw.StmtID, params ...types.Value) error {
	t.calls = append(t.calls, call{stmt: int(id), params: params})
	return t.tx.Exec(t.sqls[id], toArgs(params)...)
}

func (s *laneSystem) ExecTx(fn func(tx tpcw.TxSink) error) error {
	sp := -1
	if s.tr != nil {
		sp = s.tr.begin(spanTx)
	}
	lt := &laneTx{tx: s.shared.db.Begin(), sqls: s.shared.sqls}
	err := fn(lt)
	if err != nil {
		lt.tx.Rollback()
	} else {
		err = lt.tx.Commit()
	}
	if sp >= 0 {
		s.tr.end(sp)
	}
	if err != nil {
		return err
	}
	for _, c := range lt.calls {
		if _, isInsert := insertTables[tpcw.StmtID(c.stmt)]; isInsert {
			s.acked[c.stmt]++
		}
	}
	if s.capturing && len(s.cap.writes) < captureLimit {
		s.cap.writes = append(s.cap.writes, lt.calls...)
	}
	return nil
}
