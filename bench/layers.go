package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"shareddb"
	"shareddb/internal/core"
	"shareddb/internal/expr"
	"shareddb/internal/operators"
	"shareddb/internal/plan"
	"shareddb/internal/queryset"
	"shareddb/internal/shard"
	"shareddb/internal/sql"
	"shareddb/internal/storage"
	"shareddb/internal/types"
	"shareddb/internal/wire"
)

// The layer probes replay a captured sample of a workload's inputs through
// one layer at a time, calling the layer's exported functions from here.
// They run on a replay store — a second database with the workload's
// schema and population and no engine — so they measure the layer alone,
// not the layer under the engine's queueing.

// layerInput is what the probes need from the traced run.
type layerInput struct {
	sqls         []string
	cap          capture
	cfg          shareddb.Config
	queriesPerGn int // engine-run reads per generation observed in the window
	writesPerGn  int // writes applied per generation observed in the window
	store        *storage.Database
}

// layerTimes is what the probes measured; zero where a layer was given
// nothing to do.
type layerTimes struct {
	parseUsPerStmt   float64
	prepareUsPerStmt float64
	planNodes        int
	generationMs     float64 // median wall time of one replayed generation
	activeMs         float64 // median summed operator-active time of one replayed generation
	scanRowsPerSec   float64
	applyUsPerWrite  float64
	deltaUsPerWrite  float64
	pinUs            float64
	writesReplayed   int
	writesFailed     int // could not be bound, or the store refused them
}

type storeCatalog struct{ db *storage.Database }

func (c storeCatalog) TableSchema(name string) (*types.Schema, bool) {
	t := c.db.Table(name)
	if t == nil {
		return nil, false
	}
	return t.Schema(), true
}

func probeLayers(in layerInput) (layerTimes, error) {
	var out layerTimes

	// internal/sql: parse every statement of the workload.
	const parseReps = 20
	asts := make([]sql.Statement, len(in.sqls))
	t0 := time.Now()
	for rep := 0; rep < parseReps; rep++ {
		for i, text := range in.sqls {
			ast, err := sql.Parse(text)
			if err != nil {
				return out, fmt.Errorf("parse statement %d: %w", i, err)
			}
			asts[i] = ast
		}
	}
	out.parseUsPerStmt = us(time.Since(t0)) / float64(parseReps*len(in.sqls))

	// internal/plan: compile every statement into one global plan, three
	// times over (one compile is a few hundred microseconds, so a single
	// collection or scheduling hiccup would otherwise be the number).
	var gp *plan.GlobalPlan
	stmts := make([]*plan.Statement, len(in.sqls))
	var prepareUs []float64
	for rep := 0; rep < 3; rep++ {
		gp = plan.New(in.store)
		t0 = time.Now()
		for i, text := range in.sqls {
			st, err := gp.Prepare(text)
			if err != nil {
				return out, fmt.Errorf("plan statement %d: %w", i, err)
			}
			stmts[i] = st
		}
		prepareUs = append(prepareUs, us(time.Since(t0))/float64(len(in.sqls)))
	}
	out.prepareUsPerStmt = median(prepareUs)
	out.planNodes = gp.NumNodes()

	workers := runtime.GOMAXPROCS(0)
	batches := generationBatches(in.cap.reads, max(1, in.queriesPerGn), in.cfg.FoldQueries)
	out.generationMs, out.activeMs = replayGenerations(gp, stmts, in.store, batches, workers, in.cfg.ColumnarScan)
	out.scanRowsPerSec = replayScan(in.store, asts, batches, workers, in.cfg.ColumnarScan)
	replayWrites(&out, in.store, stmts, in.cap.writes, max(1, in.writesPerGn))
	return out, nil
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// generationBatches cuts the captured reads into batches of size reads
// each, the size the engine was observed to run per generation. With
// folding on, a read identical to one already in its batch is dropped:
// the engine would have folded it, so it never reaches the plan.
func generationBatches(reads []call, size int, fold bool) [][]call {
	var batches [][]call
	var cur []call
	seen := map[string]bool{}
	for _, c := range reads {
		if fold {
			k := fmt.Sprint(c.stmt, c.params)
			if seen[k] {
				continue
			}
			seen[k] = true
		}
		if cur = append(cur, c); len(cur) == size {
			batches = append(batches, cur)
			cur = nil
			clear(seen)
		}
	}
	if len(cur) > 0 {
		batches = append(batches, cur)
	}
	return batches
}

// replayGenerations runs the captured reads through plan.RunGeneration in
// batches of the size the engine was observed to form, each at a pinned
// snapshot, with no engine in front: no queue, no write phase, no result
// delivery. The existing cost-observer hook reports each node's active
// time. Every batch runs twice and the first pass is discarded, so buffer
// pools and the column mirror are warm as they are in steady state.
func replayGenerations(gp *plan.GlobalPlan, stmts []*plan.Statement, store *storage.Database, batches [][]call, workers int, columnar bool) (genMs, activeMs float64) {
	if len(batches) == 0 {
		return 0, 0
	}
	gp.SetWorkers(workers)
	gp.SetColumnar(columnar)
	var activeNs atomic.Int64
	gp.SetCostObserver(func(_ uint64, _ []operators.Task, ns int64) { activeNs.Add(ns) })
	gp.Start()
	defer gp.Stop()

	var wall, active []float64
	gen := uint64(0)
	for pass := 0; pass < 2; pass++ {
		for _, chunk := range batches {
			acts := make([]plan.Activation, len(chunk))
			for i, c := range chunk {
				acts[i] = plan.Activation{QID: queryset.QueryID(i + 1), Stmt: stmts[c.stmt], Params: c.params}
			}
			gen++
			activeNs.Store(0)
			done := make(chan struct{})
			ts := store.PinCurrentSnapshot()
			t0 := time.Now()
			gp.RunGeneration(gen, ts, acts, nil, func(int, operators.Tuple) {}, func() { close(done) })
			<-done
			d := time.Since(t0)
			store.UnpinSnapshot(ts)
			if pass == 1 {
				wall = append(wall, ms(d))
				active = append(active, float64(activeNs.Load())/1e6)
			}
		}
	}
	return median(wall), median(active)
}

// planScans returns the base-table scans of a bound logical plan.
func planScans(lp sql.LogicalPlan, out []*sql.Scan) []*sql.Scan {
	switch n := lp.(type) {
	case nil:
		return out
	case *sql.Scan:
		return append(out, n)
	case *sql.Join:
		return planScans(n.Right, planScans(n.Left, out))
	default:
		return planScans(lp.Child(), out)
	}
}

// replayScan times the shared table scan alone: the captured reads' scan
// predicates on the table they scan most, bound and handed to the storage
// layer's scan entry point in batches of the observed generation size.
// Predicates the plan would serve by index probe are left out.
func replayScan(store *storage.Database, asts []sql.Statement, batches [][]call, workers int, columnar bool) float64 {
	scans := make([][]*sql.Scan, len(asts))
	for i, ast := range asts {
		bound, err := sql.PlanStatement(ast, storeCatalog{store})
		if err != nil {
			continue
		}
		if lp, ok := bound.(sql.LogicalPlan); ok {
			scans[i] = planScans(lp, nil)
		}
	}
	// Per table, the scan clients of each batch.
	clients := map[string][][]storage.ScanClient{}
	work := map[string]int{}
	for bi, b := range batches {
		for _, c := range b {
			for _, sc := range scans[c.stmt] {
				t := store.Table(sc.Table)
				if sc.Pred == nil || t == nil {
					continue
				}
				pred := expr.Bind(sc.Pred, c.params)
				if indexed(t, pred) {
					continue
				}
				if clients[sc.Table] == nil {
					clients[sc.Table] = make([][]storage.ScanClient, len(batches))
				}
				cs := &clients[sc.Table][bi]
				*cs = append(*cs, storage.ScanClient{ID: queryset.QueryID(len(*cs) + 1), Pred: pred})
				work[sc.Table] += t.NumSlots()
			}
		}
	}
	var table *storage.Table
	best := 0
	for name, w := range work {
		if w > best {
			table, best = store.Table(name), w
		}
	}
	if table == nil {
		return 0
	}
	ts := store.PinCurrentSnapshot()
	defer store.UnpinSnapshot(ts)
	rows := table.CountVisible(ts)
	var cbufs storage.ColScanBuffers
	var rbufs storage.ScanBuffers
	emit := func(storage.RowID, types.Row, queryset.Set) {}
	cycle := func(chunk []storage.ScanClient) {
		if columnar {
			table.SharedScanColumnar(ts, chunk, workers, &cbufs, emit)
		} else {
			table.SharedScanPooled(ts, chunk, workers, &rbufs, emit)
		}
	}
	cycles := 0
	var elapsed time.Duration
	for pass := 0; pass < 2; pass++ { // the first pass builds the column mirror
		cycles = 0
		t0 := time.Now()
		for _, chunk := range clients[table.Name()] {
			if len(chunk) > 0 {
				cycle(chunk)
				cycles++
			}
		}
		elapsed = time.Since(t0)
	}
	return float64(rows*cycles) / elapsed.Seconds()
}

// indexed reports whether the plan compiler would answer pred with an
// index probe: some index's leading column is pinned by equality.
func indexed(t *storage.Table, pred expr.Expr) bool {
	for _, conj := range expr.Conjuncts(pred) {
		col, _, ok := expr.EqualityMatch(conj)
		if !ok {
			continue
		}
		for _, ix := range t.Indexes() {
			if len(ix.Cols) > 0 && ix.Cols[0] == col {
				return true
			}
		}
	}
	return false
}

// replayWrites applies the captured writes to the replay store in batches
// of the observed write-phase size, timing the three storage calls a
// generation's write phase makes: ApplyOpsRecorded, BuildDelta and the
// snapshot pin. Writes the store refuses are counted; when more than one
// in a hundred fails the timings are of the error path, so they are left
// at zero.
func replayWrites(out *layerTimes, store *storage.Database, stmts []*plan.Statement, writes []call, batch int) {
	var ops []storage.WriteOp
	for _, c := range writes {
		if stmts[c.stmt].Write == nil {
			continue
		}
		out.writesReplayed++
		op, err := core.BindWriteForTx(stmts[c.stmt].Write, c.params)
		if err != nil {
			out.writesFailed++
			continue
		}
		ops = append(ops, op)
	}
	if len(ops) == 0 {
		return
	}
	var apply, delta, pin time.Duration
	pins := 0
	for off := 0; off < len(ops); off += batch {
		chunk := ops[off:min(off+batch, len(ops))]
		from := store.SnapshotTS()
		t0 := time.Now()
		results, _, recs := store.ApplyOpsRecorded(chunk)
		t1 := time.Now()
		ts := store.PinCurrentSnapshot()
		t2 := time.Now()
		store.BuildDelta(from, ts, recs)
		t3 := time.Now()
		store.UnpinSnapshot(ts)
		apply += t1.Sub(t0)
		pin += t2.Sub(t1)
		delta += t3.Sub(t2)
		pins++
		for _, r := range results {
			if r.Err != nil {
				out.writesFailed++
			}
		}
	}
	if out.writesFailed*100 > out.writesReplayed {
		return
	}
	n := float64(len(ops))
	out.applyUsPerWrite, out.deltaUsPerWrite, out.pinUs = us(apply)/n, us(delta)/n, us(pin)/float64(pins)
}

// --- internal/wire ---

type wireTimes struct {
	encodeNsPerFrame float64
	decodeNsPerFrame float64
	bytesPerOp       float64
}

// probeWire pushes the captured requests and their real responses through
// the frame encoders and decoders: per request one StmtCall, per response
// a RowsHeader, the RowBatches and a RowsDone, as internal/server frames
// them.
func probeWire(reads []call, query func(c call) ([]types.Row, error), cols [][]string) (wireTimes, error) {
	var out wireTimes
	if len(reads) == 0 {
		return out, nil
	}
	type exchange struct {
		c    call
		rows []types.Row
	}
	exchanges := make([]exchange, 0, len(reads))
	for _, c := range reads {
		rows, err := query(c)
		if err != nil {
			return out, err
		}
		exchanges = append(exchanges, exchange{c, rows})
	}
	const reps = 8
	var buf []byte // every frame of one pass, back to back
	var ends []int // where each frame ends in buf
	t0 := time.Now()
	for rep := 0; rep < reps; rep++ {
		buf, ends = buf[:0], ends[:0]
		for i, ex := range exchanges {
			id := uint64(i + 1)
			buf = wire.StmtCall{ID: id, Stmt: uint64(ex.c.stmt + 1), Params: ex.c.params}.Append(buf, wire.TQuery)
			ends = append(ends, len(buf))
			buf = wire.RowsHeader{ID: id, Columns: cols[ex.c.stmt]}.Append(buf)
			ends = append(ends, len(buf))
			buf = wire.RowBatch{ID: id, Rows: ex.rows}.Append(buf)
			ends = append(ends, len(buf))
			buf = wire.RowsDone{ID: id, Total: uint64(len(ex.rows))}.Append(buf)
			ends = append(ends, len(buf))
		}
	}
	encode := time.Since(t0)
	total := len(buf)
	frames := make([][]byte, len(ends))
	for i, end := range ends {
		start := 0
		if i > 0 {
			start = ends[i-1]
		}
		frames[i] = buf[start:end]
	}
	t0 = time.Now()
	for rep := 0; rep < reps; rep++ {
		for i, f := range frames {
			payload := f[5:] // after the 4-byte length and the type byte
			var err error
			switch i % 4 {
			case 0:
				_, err = wire.DecodeStmtCall(payload)
			case 1:
				_, err = wire.DecodeRowsHeader(payload)
			case 2:
				_, err = wire.DecodeRowBatch(payload)
			case 3:
				_, err = wire.DecodeRowsDone(payload)
			}
			if err != nil {
				return out, fmt.Errorf("wire: decode frame %d: %w", i, err)
			}
		}
	}
	decode := time.Since(t0)
	n := float64(reps * len(frames))
	out.encodeNsPerFrame = float64(encode.Nanoseconds()) / n
	out.decodeNsPerFrame = float64(decode.Nanoseconds()) / n
	out.bytesPerOp = float64(total) / float64(len(exchanges))
	return out, nil
}

// --- internal/shard ---

type shardTimes struct {
	mergeUsPerOp float64 // per read that scatters and merges
	scatterShare float64 // share of captured reads that do
}

type shardCatalog struct {
	storeCatalog
	placement shard.Placement
}

// TablePlacement restates shard.Placement's routing rule, which the shard
// package does not export: listed tables replicate, a PartitionKeys entry
// overrides, otherwise the primary key partitions and a table without one
// replicates. TestShardProbeRoutesLikeRouter holds this copy to the live
// router's behaviour; exporting the router's catalog and deleting the copy
// is a follow-up outside this directory.
func (c shardCatalog) TablePlacement(name string) ([]int, bool, bool) {
	t := c.db.Table(name)
	if t == nil {
		return nil, false, false
	}
	for _, r := range c.placement.Replicated {
		if r == name {
			return nil, true, true
		}
	}
	if names, ok := c.placement.PartitionKeys[name]; ok {
		cols := make([]int, len(names))
		for i, n := range names {
			ci, err := t.Schema().ColIndex(n)
			if err != nil {
				return nil, false, false
			}
			cols[i] = ci
		}
		return cols, false, true
	}
	if pk := t.PrimaryKey(); pk != nil {
		return pk.Cols, false, true
	}
	return nil, true, true
}

// shardPlan classifies one statement as the probe sees it.
func shardPlan(cat shardCatalog, sqlText string) (*sql.ShardStatement, error) {
	ast, err := sql.Parse(sqlText)
	if err != nil {
		return nil, err
	}
	return sql.PlanShards(ast, cat)
}

func probeCatalog(db *shareddb.DB, cfg shareddb.Config) shardCatalog {
	return shardCatalog{storeCatalog{db.Storage()},
		shard.Placement{Replicated: cfg.ReplicatedTables, PartitionKeys: cfg.PartitionKeys}}
}

// probeShardMerge times shard.MergeResults alone. For each captured read
// that scatters, the per-shard statement sql.PlanShards compiles is
// prepared on every shard engine of the live (now idle) database and run
// with the captured parameters; the per-shard rows it returns are then
// merged under the clock.
func probeShardMerge(db *shareddb.DB, cfg shareddb.Config, sqls []string, reads []call) (shardTimes, error) {
	var out shardTimes
	router, ok := db.Engine().(*shard.Router)
	if !ok || len(reads) == 0 {
		return out, nil
	}
	cat := probeCatalog(db, cfg)
	type scatter struct {
		spec     *sql.MergeSpec
		perShard []*plan.Statement
	}
	scatters := map[int]*scatter{}
	for _, c := range reads {
		if _, seen := scatters[c.stmt]; seen {
			continue
		}
		scatters[c.stmt] = nil
		ss, err := shardPlan(cat, sqls[c.stmt])
		if err != nil {
			return out, fmt.Errorf("shard plan statement %d: %w", c.stmt, err)
		}
		if ss.Route != sql.RouteBroadcast || ss.Merge == nil {
			continue
		}
		sc := &scatter{spec: ss.Merge}
		for _, e := range router.Engines() {
			st, err := e.PrepareParsed(sqls[c.stmt], ss.Exec)
			if err != nil {
				return out, fmt.Errorf("shard prepare statement %d: %w", c.stmt, err)
			}
			sc.perShard = append(sc.perShard, st)
		}
		scatters[c.stmt] = sc
	}
	var merge time.Duration
	merged := 0
	for _, c := range reads {
		sc := scatters[c.stmt]
		if sc == nil {
			continue
		}
		shardRows := make([][]types.Row, len(sc.perShard))
		for i, e := range router.Engines() {
			res := e.Submit(sc.perShard[i], c.params)
			if err := res.Wait(); err != nil {
				return out, fmt.Errorf("shard %d statement %d: %w", i, c.stmt, err)
			}
			shardRows[i] = res.Rows
		}
		t0 := time.Now()
		shard.MergeResults(shardRows, sc.spec, c.params)
		merge += time.Since(t0)
		merged++
	}
	if merged > 0 {
		out.mergeUsPerOp = us(merge) / float64(merged)
	}
	out.scatterShare = float64(merged) / float64(len(reads))
	return out, nil
}
