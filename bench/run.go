package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"shareddb/internal/storage"
	"shareddb/internal/tpcw"
	"shareddb/internal/types"
)

// workloadDef is one named workload: a TPC-W mix driven in process, or
// the network fan-in request stream.
type workloadDef struct {
	name string
	tpcw *tpcwSpec
	net  *netSpec
}

// workloadDefs lists the benchmark's workloads. tiny shrinks the
// populations and the warm-up so the package's test can run all four in
// seconds; the shapes stay the same.
func workloadDefs(tiny bool) []workloadDef {
	scale := tpcw.Scale{Items: 10000, Customers: 14400}
	warm, rows := 10000, 1000
	if tiny {
		scale = tpcw.Scale{Items: 300, Customers: 432}
		warm, rows = 512, 200
	}
	t := func(mix tpcw.Mix, wal bool) *tpcwSpec {
		return &tpcwSpec{mix: mix, scale: scale, inFlight: 128, warmupOps: warm, wal: wal}
	}
	return []workloadDef{
		{name: "tpcw_browsing", tpcw: t(tpcw.Browsing, false)},
		{name: "tpcw_ordering", tpcw: t(tpcw.Ordering, true)},
		{name: "net_fanin", net: &netSpec{rows: rows, window: 64, zipfS: 1.2, zipfValues: 16, searchPct: 80, warmupOps: warm}},
		{name: "sharded_shopping", tpcw: t(tpcw.Shopping, false)},
	}
}

type runOptions struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	setups   int    // set-ups per run; setup_s is their median
	tiny     bool   // test scale
	outDir   string // trace files and scratch space
	log      io.Writer
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one run's outcome. endToEnd is filled on every run, perLayer
// only on traced runs.
type report struct {
	correct   bool
	attempted int
	failed    int
	endToEnd  map[string]metric
	perLayer  map[string]metric
	problems  []string
}

func (d workloadDef) setup(seed int64, scratch string) (system, error) {
	if d.net != nil {
		return setupNet(d.name, *d.net, seed)
	}
	return setupTPCW(d.name, *d.tpcw, seed, scratch)
}

// laneCapacity preallocates a lane's sample buffer from a guess of its
// rate (operations per second per lane, about twice what this was written
// on); a low guess only costs an append-time growth. The buffers are kept
// close to what is used because the heap they add moves the collector's
// pacing of the system under test.
func (d workloadDef) laneCapacity(window time.Duration) int {
	perSec := 150.0
	if d.net != nil {
		perSec = 1200
	}
	return int(perSec*window.Seconds()) + 64
}

// spansPerOp is how many spans one operation records on average, for the
// same preallocation: the operation and its calls.
func (d workloadDef) spansPerOp() int {
	if d.net != nil {
		return 2
	}
	return 5
}

// timedWindow runs one closed-loop window and returns its merged samples
// with the counters read just before and just after it.
func timedWindow(def workloadDef, sys system, length time.Duration, traces []*laneTrace) (window, []*laneRecorder, counters, counters) {
	sys.setCapture(true)
	runtime.GC() // every window starts from a collected heap
	before := sys.counters()
	recs := driveFor(sys.lanes(), length, def.laneCapacity(length), traces)
	after := sys.counters()
	sys.setCapture(false)
	return mergeWindow(recs, length), recs, before, after
}

func runWorkload(o runOptions) (*report, error) {
	defs := workloadDefs(o.tiny)
	i := slices.IndexFunc(defs, func(d workloadDef) bool { return d.name == o.workload })
	if i < 0 {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	def := &defs[i]
	scratch := filepath.Join(o.outDir, "tmp")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}

	// Set-up, repeated: open, schema, load, prepare, fixed warm-up. Each
	// repetition builds the same system from the same seed; the last one
	// is measured.
	var sys system
	var setupSecs []float64
	for i := 0; i < max(1, o.setups); i++ {
		if sys != nil {
			if err := sys.close(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		s, err := def.setup(o.seed, scratch)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		sys = s
		setupSecs = append(setupSecs, time.Since(t0).Seconds())
	}
	defer func() { sys.close() }()
	if ig := sys.configIgnored(); len(ig) > 0 {
		fmt.Fprintf(o.log, "config_ignored %v\n", ig)
	}

	rep := &report{endToEnd: map[string]metric{}, perLayer: map[string]metric{}}
	w, recs, before, after := timedWindow(*def, sys, o.window, nil)
	rep.attempted, rep.failed = w.attempted, w.failed
	for _, r := range recs {
		if r.firstErr != nil {
			rep.problems = append(rep.problems, "operation failed: "+r.firstErr.Error())
			break
		}
	}
	rep.endToEnd["ops_s"] = metric{w.opsPerSecond(), "1/s"}
	rep.endToEnd["p95_ms"] = metric{w.quantile(0.95), "ms"}
	rep.endToEnd["setup_s"] = metric{median(setupSecs), "s"}
	fmt.Fprintf(o.log, "samples %d (highest supported percentile p%g)\n", len(w.durs), 100*highestSupported(len(w.durs)))

	var lt *layerReport
	if o.trace {
		var err error
		if lt, err = tracedRun(o, *def, sys, w, before, after); err != nil {
			return nil, err
		}
	}

	// Correctness, on the quiescent system: captured reads against the
	// baseline, acknowledged inserts against row growth, then (with a WAL)
	// close, reopen and recover.
	checked, wrong, err := sys.check(o.log)
	fmt.Fprintf(o.log, "checked %d reads against internal/baseline, %d wrong results\n", checked, len(wrong))
	if err != nil {
		return nil, fmt.Errorf("correctness check: %w", err)
	}
	rep.problems = append(rep.problems, wrong...)
	rep.failed += len(wrong)
	rep.correct = rep.failed == 0 && rep.attempted > 0

	if ts, ok := sys.(*tpcwSystem); ok && ts.walDir != "" {
		share, err := ts.recoveredShare()
		if err != nil {
			return nil, fmt.Errorf("recovery check: %w", err)
		}
		fmt.Fprintf(o.log, "storage.recovered_share %.6f\n", share)
		if lt != nil {
			lt.v["storage.recovered_share"] = share
		}
	}
	if lt != nil {
		lt.v["fail_share"] = float64(rep.failed) / float64(max(1, rep.attempted))
		lt.fill(rep.perLayer)
	}
	return rep, nil
}

// replayStore builds the layer probes' store: the workload's schema and
// population in a fresh storage database with no engine on it, logging to
// walDir when the workload logs. For a sharded workload it is shard 0 of
// the same placement, so a replayed generation scans what one shard
// engine scans; the other shards' stores are closed again.
func (d workloadDef) replayStore(seed int64, walDir string, shards int) (*storage.Database, error) {
	if shards > 1 {
		stores := make([]*storage.Database, shards)
		for i := range stores {
			st, err := storage.Open(storage.Options{Shard: storage.ShardInfo{Index: i, Count: shards}})
			if err != nil {
				return nil, err
			}
			stores[i] = st
		}
		_, err := tpcw.SetupSharded(stores, d.tpcw.scale, seed)
		for _, st := range stores[1:] {
			st.Close()
		}
		return stores[0], err
	}
	store, err := storage.Open(storage.Options{WALDir: walDir})
	if err != nil {
		return nil, err
	}
	if d.tpcw != nil {
		_, err = tpcw.Setup(store, d.tpcw.scale, seed)
		return store, err
	}
	col := func(name string, k types.Kind) types.Column {
		return types.Column{Qualifier: "item", Name: name, Kind: k}
	}
	t, err := store.CreateTable("item", types.NewSchema(
		col("i_id", types.KindInt), col("i_title", types.KindString), col("i_cost", types.KindFloat)))
	if err != nil {
		return nil, err
	}
	if _, err := t.SetPrimaryKey("i_id"); err != nil {
		return nil, err
	}
	ops := make([]storage.WriteOp, d.net.rows)
	for i := range ops {
		ops[i] = storage.WriteOp{Table: "item", Kind: storage.WInsert, Row: types.Row{
			types.NewInt(int64(i)), types.NewString(fmt.Sprintf("Title %02d", i%100)), types.NewFloat(float64(i%90) + 1)}}
	}
	results, _ := store.ApplyOps(ops)
	for _, r := range results {
		if r.Err != nil {
			return nil, r.Err
		}
	}
	return store, nil
}
