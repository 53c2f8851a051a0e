package main

// The -json mode: a machine-readable micro-benchmark baseline
// (BENCH_*.json) covering the shared engine's hot paths — scan, join, sort
// and the TPC-W interaction mix — with ops/sec, ns/op, B/op and allocs/op
// per bench. Future PRs diff their own run against the committed
// BENCH_baseline.json to keep a perf trajectory (see README "Memory
// discipline" for how to read the numbers).

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"shareddb/internal/core"
	"shareddb/internal/experiments"
	"shareddb/internal/harness"
	"shareddb/internal/plan"
	"shareddb/internal/storage"
	"shareddb/internal/tpcw"
	"shareddb/internal/types"
)

// benchRecord is one benchmark's measurements.
type benchRecord struct {
	Name        string  `json:"name"`
	Description string  `json:"description"`
	Ops         int     `json:"ops"`            // completed benchmark iterations
	Unit        string  `json:"unit"`           // what one iteration is
	NsPerOp     float64 `json:"ns_per_op"`      // wall time per iteration
	OpsPerSec   float64 `json:"ops_per_sec"`    // 1e9 / ns_per_op
	BytesPerOp  int64   `json:"b_per_op"`       // heap bytes allocated per iteration
	AllocsPerOp int64   `json:"allocs_per_op"`  // heap allocations per iteration
	QueriesPerX int     `json:"queries_per_op"` // queries executed per iteration (batch size; 1 for mix)

	// Overload-scenario extras (absent on the throughput benches): the
	// admitted-latency percentiles and the fraction of offered queries the
	// admission controller rejected with ErrOverloaded.
	P50Ns    float64 `json:"p50_ns,omitempty"`
	P99Ns    float64 `json:"p99_ns,omitempty"`
	P999Ns   float64 `json:"p999_ns,omitempty"`
	ShedRate float64 `json:"shed_rate,omitempty"`

	// Folding-scenario extras (absent elsewhere): the engine-work rate —
	// which must stay constant between fold_zipf_off and fold_zipf_on —
	// and the fraction of client queries served by fan-out.
	GenPerSec   float64 `json:"generations_per_sec,omitempty"`
	FoldHitRate float64 `json:"fold_hit_rate,omitempty"`
}

// benchReport is the file layout of BENCH_*.json.
type benchReport struct {
	Schema string `json:"schema"`
	Go     string `json:"go"`
	Procs  int    `json:"gomaxprocs"`
	Config struct {
		Items     int   `json:"items"`
		Customers int   `json:"customers"`
		Shards    int   `json:"shards"`
		Seed      int64 `json:"seed"`
	} `json:"config"`
	Results []benchRecord `json:"results"`
}

// jsonBatch is the batch size for the per-operator benches: large enough
// that sharing engages (one generation answers the whole batch).
const jsonBatch = 64

func record(name, description, unit string, queriesPerOp int, r testing.BenchmarkResult) benchRecord {
	ns := float64(r.NsPerOp())
	ops := 0.0
	if ns > 0 {
		ops = 1e9 / ns
	}
	return benchRecord{
		Name: name, Description: description, Ops: r.N, Unit: unit,
		NsPerOp: ns, OpsPerSec: ops,
		BytesPerOp: r.AllocedBytesPerOp(), AllocsPerOp: r.AllocsPerOp(),
		QueriesPerX: queriesPerOp,
	}
}

// benchStatement measures one prepared statement executed in concurrent
// batches of jsonBatch (one op = one batch = roughly one generation).
// warmup batches run untimed first (they grow the operator free lists, the
// batch pool and the table mirrors to steady-state shape); the bench then runs count times and the median-ns/op run is
// reported, so a GC pause or scheduler hiccup in one run cannot move the
// trajectory record. prof profiles each timed run, labelled name.
func benchStatement(prof *harness.CPUProfile, name string, e *core.Engine, s *plan.Statement, mkParams func(i int) []types.Value, warmup, count int) testing.BenchmarkResult {
	batch := func(fail func(error)) {
		var wg sync.WaitGroup
		results := make([]*core.Result, jsonBatch)
		for j := 0; j < jsonBatch; j++ {
			wg.Add(1)
			go func(j int) {
				defer wg.Done()
				res := e.Submit(s, mkParams(j))
				res.Wait()
				results[j] = res
			}(j)
		}
		wg.Wait()
		for _, res := range results {
			if res.Err != nil {
				fail(res.Err)
			}
		}
	}
	for w := 0; w < warmup; w++ {
		var err error
		batch(func(e error) { err = e })
		if err != nil {
			// Surface the error through the measured path's b.Fatal below.
			break
		}
	}
	if count < 1 {
		count = 1
	}
	runs := make([]testing.BenchmarkResult, count)
	for i := range runs {
		prof.Window(name, func() {
			runs[i] = testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					batch(func(err error) { b.Fatal(err) })
				}
			})
		})
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].NsPerOp() < runs[j].NsPerOp() })
	return runs[len(runs)/2]
}

// runJSONBench produces the benchmark report on stdout. warmup and count
// shape the per-statement benches (see benchStatement); the scenario
// benches (mix, subscribe, overload, fold) measure wall-clock
// protocols and run once regardless. kernelsOnly stops after the mix: the
// scenarios that follow are excluded from the ratio gate.
func runJSONBench(opts experiments.Options, warmup, count, loadClients, loadPipeline int, kernelsOnly bool) error {
	var report benchReport
	report.Schema = "shareddb-microbench/v1"
	report.Go = runtime.Version()
	report.Procs = runtime.GOMAXPROCS(0)
	report.Config.Items = opts.Scale.Items
	report.Config.Customers = opts.Scale.Customers
	report.Config.Shards = opts.Shards
	report.Config.Seed = opts.Seed

	// Per-operator benches on a dedicated engine over a fresh TPC-W load.
	db, err := storage.Open(storage.Options{})
	if err != nil {
		return err
	}
	defer db.Close()
	if _, err := tpcw.Setup(db, opts.Scale, opts.Seed); err != nil {
		return err
	}
	// The group/topn benches need a scan-dominated aggregation (the shape
	// the columnar pushdown targets): a sales table an order of magnitude
	// larger than item, grouped on a low-cardinality region key behind a
	// selective measure predicate.
	if err := setupSales(db); err != nil {
		return err
	}

	stmts := []struct {
		name, desc, sql string
		mkParams        func(i int) []types.Value
	}{
		{
			"scan", "shared ClockScan: LIKE predicate batch over item",
			`SELECT i_id, i_title FROM item WHERE i_title LIKE ?`,
			func(i int) []types.Value {
				return []types.Value{types.NewString(fmt.Sprintf("Title %02d%%", i%100))}
			},
		},
		{
			"join", "shared join: item ⋈ author with per-query range predicate",
			`SELECT item.i_id, author.a_lname FROM item, author
			 WHERE item.i_a_id = author.a_id AND item.i_cost > ?`,
			func(i int) []types.Value {
				return []types.Value{types.NewFloat(float64(i%80) + 10)}
			},
		},
		{
			"hash_join", "shared hash join, the best-sellers shape: order_line (per-query ol_o_id range over the newest third of the orders) ⋈hash item (per-query subject)",
			`SELECT order_line.ol_id, item.i_title FROM order_line, item
			 WHERE order_line.ol_i_id = item.i_id AND order_line.ol_o_id > ? AND item.i_subject = ?`,
			func(i int) []types.Value {
				subjects := tpcw.Subjects()
				return []types.Value{types.NewInt(int64(opts.Scale.Orders()*2/3 - i%8)), types.NewString(subjects[i%len(subjects)])}
			},
		},
		{
			"best_sellers", "TPC-W best sellers: order_line (per-query ol_o_id range) ⋈hash item (4 subjects, a sixth of item) grouped by item, Top-50 by quantity with authors looked up",
			tpcw.StatementSQL()[tpcw.StGetBestSellers],
			func(i int) []types.Value {
				subjects := tpcw.Subjects()
				return []types.Value{types.NewInt(int64(opts.Scale.Orders()*2/3 - i%8)), types.NewString(subjects[i%4])}
			},
		},
		{
			"sort", "shared sort/Top-N: full item scan ORDER BY title LIMIT 50",
			`SELECT i_id, i_title FROM item ORDER BY i_title LIMIT 50`,
			func(int) []types.Value { return nil },
		},
		{
			"group", fmt.Sprintf("shared grouped aggregation: selective range predicate GROUP BY region over %d sales rows", salesRows),
			`SELECT s_region, COUNT(*), SUM(s_qty) FROM sales WHERE s_val > ? GROUP BY s_region`,
			func(i int) []types.Value {
				return []types.Value{types.NewFloat(float64(i%8) + 85)}
			},
		},
		{
			"topn", fmt.Sprintf("shared grouped Top-N over %d sales rows: GROUP BY region ORDER BY aggregate LIMIT 5 (bounded per-query heaps)", salesRows),
			`SELECT s_region, SUM(s_val) AS v FROM sales WHERE s_val > ?
			 GROUP BY s_region ORDER BY v DESC, s_region LIMIT 5`,
			func(i int) []types.Value {
				return []types.Value{types.NewFloat(float64(i%8) + 85)}
			},
		},
	}
	// The per-operator records measure operator kernels on the production
	// scan and aggregation path (the columnar mirror; group/topn feed the
	// GroupOp straight from it). The engine does not fold: a batch of 64
	// would otherwise collapse to its distinct parameters.
	eng := core.New(db, plan.New(db), core.Config{NoFold: true})
	for _, sp := range stmts {
		stmt, err := eng.Prepare(sp.sql)
		if err != nil {
			eng.Close()
			return fmt.Errorf("prepare %s: %w", sp.name, err)
		}
		r := benchStatement(opts.Profile, sp.name, eng, stmt, sp.mkParams, warmup, count)
		report.Results = append(report.Results,
			record(sp.name, sp.desc, fmt.Sprintf("batch of %d queries", jsonBatch), jsonBatch, r))
	}
	eng.Close()

	ixRecs, err := benchIndexPath(db, opts, warmup, count)
	if err != nil {
		return err
	}
	report.Results = append(report.Results, ixRecs...)

	// TPC-W interaction mix on a fresh environment (its writes must not
	// skew the per-operator data above), then the same mix on a sharded
	// deployment — the scale-out trajectory entry.
	shardCounts := []int{1, 2}
	switch {
	case opts.Shards == 1:
		shardCounts = shardCounts[:1] // single-engine only
	case opts.Shards > 1:
		shardCounts[1] = opts.Shards
	}
	for _, shards := range shardCounts {
		r, err := benchMix(opts, shards)
		if err != nil {
			return err
		}
		name, desc := "tpcw_mix", "TPC-W Shopping mix, concurrent sessions"
		if shards > 1 {
			name = fmt.Sprintf("tpcw_mix_shards%d", shards)
			desc = fmt.Sprintf("TPC-W Shopping mix on %d shard engines (hash-partitioned tables, scatter-gather router)", shards)
		}
		report.Results = append(report.Results, record(name, desc, "interaction", 1, r))
	}
	if kernelsOnly {
		return writeReport(report)
	}
	// Standing-query feed: 64 subscribers on a TPC-W browsing query while a
	// writer updates items — updates delivered per second, end to end.
	subRec, err := benchSubscribeBrowsing(opts)
	if err != nil {
		return err
	}
	report.Results = append(report.Results, subRec)

	// Overload scenario: a saturating burst against a queue-capped,
	// SLO-bounded engine. The perf-trajectory quantities are the admitted
	// p50/p99 and the shed rate — whether backpressure keeps latency
	// bounded, not raw throughput (benchdiff excludes it from the ns gate).
	// Run twice: clients re-offering immediately, then clients honoring the
	// typed RetryAfter hint — the shed-rate drop at equal offered load is
	// the quantity of record for the back-off protocol.
	for _, backoff := range []bool{false, true} {
		ovRec, err := benchOverload(opts, backoff)
		if err != nil {
			return err
		}
		report.Results = append(report.Results, ovRec)
	}

	// Folding scenario: the same Zipfian-duplicate workload on the unfolded
	// reference engine, then with folding. The trajectory quantity is the ratio of client-visible
	// ops/sec at matching generations_per_sec — benchdiff excludes both
	// records from the ns gate (wall-clock scenarios, not micro-ops).
	for _, noFold := range []bool{true, false} {
		rec, err := benchFolding(opts, noFold)
		if err != nil {
			return err
		}
		report.Results = append(report.Results, rec)
	}

	// Network fan-in scenario: the fold workload arriving over real
	// loopback sockets. The trajectory quantities are RPS, tail percentiles
	// and shed rate — benchdiff excludes the record from the ns gate.
	loadRec, err := benchLoad1k(opts, loadClients, loadPipeline)
	if err != nil {
		return err
	}
	report.Results = append(report.Results, loadRec)
	return writeReport(report)
}

func writeReport(report benchReport) error {
	out := json.NewEncoder(os.Stdout)
	out.SetIndent("", "  ")
	return out.Encode(report)
}

// benchIndexPath measures the index access path on the per-operator
// fixture: one B-tree point seek through the storage layer, a shared index
// nested-loop join, a Top-N over a unique-index join, and a scalar MAX
// answered from the index edge. The two
// statement records run on the kernel engine configuration (columnar scan,
// state rebuilt each generation, no folding — a batch stays 64 activations).
func benchIndexPath(db *storage.Database, opts experiments.Options, warmup, count int) ([]benchRecord, error) {
	sales := db.Table("sales")
	pk, ts := sales.PrimaryKey(), db.SnapshotTS()
	key := make([]types.Value, 1)
	found := 0
	hit := func(storage.RowID, types.Row) bool { found++; return true }
	seek := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// a fixed odd stride visits the keys in a scattered order
			key[0] = types.NewInt(int64(uint64(i) * 2654435761 % salesRows))
			sales.IndexSeekAt(pk, key, ts, hit)
		}
		if found != b.N {
			b.Fatalf("%d of %d seeks found their row", found, b.N)
		}
		found = 0
	})
	recs := []benchRecord{record("index_seek",
		fmt.Sprintf("storage index point seek at a snapshot: scattered keys on the %d-row INT primary key of sales", salesRows),
		"seek", 1, seek)}

	eng := core.New(db, plan.New(db), core.Config{NoFold: true})
	defer eng.Close()
	for _, sp := range []struct {
		name, desc, sql string
		mkParams        func(i int) []types.Value
	}{
		{
			"index_join", "shared index nested-loop join: order_line (per-query range predicate, ~2k outer tuples a batch) ⋈ix item primary key",
			`SELECT order_line.ol_id, item.i_title FROM order_line, item
			 WHERE order_line.ol_i_id = item.i_id AND order_line.ol_discount > ?`,
			func(i int) []types.Value {
				return []types.Value{types.NewFloat(float64(i%8)/100 + 0.10)}
			},
		},
		{
			"topn_join", "shared Top-N over a unique-index join, the subject-search shape: probe(item by subject) ⋈ix author primary key, Top-50 by title",
			`SELECT i_id, i_title, a_fname, a_lname FROM item, author
			 WHERE item.i_a_id = author.a_id AND item.i_subject = ?
			 ORDER BY item.i_title LIMIT 50`,
			func(i int) []types.Value {
				subjects := tpcw.Subjects()
				return []types.Value{types.NewString(subjects[i%len(subjects)])}
			},
		},
		{
			"minmax_edge", fmt.Sprintf("scalar MAX over the primary key of the %d-row sales table (index-edge probe)", salesRows),
			`SELECT MAX(s_id) FROM sales`,
			func(int) []types.Value { return nil },
		},
	} {
		stmt, err := eng.Prepare(sp.sql)
		if err != nil {
			return nil, fmt.Errorf("prepare %s: %w", sp.name, err)
		}
		r := benchStatement(opts.Profile, sp.name, eng, stmt, sp.mkParams, warmup, count)
		recs = append(recs, record(sp.name, sp.desc, fmt.Sprintf("batch of %d queries", jsonBatch), jsonBatch, r))
	}
	return recs, nil
}

// Sales fixture shape for the group/topn benches: a fact table large
// enough that the shared scan dominates a grouped-aggregation generation,
// 32 region groups, and a measure whose high quantiles make the per-query
// predicates selective (~2-10% of rows).
const (
	salesRows    = 32768
	salesRegions = 32
)

// setupSales loads the grouped-aggregation fixture next to the TPC-W
// tables. Values come from a fixed multiplicative hash so the distribution
// is uniform but deterministic across runs.
func setupSales(db *storage.Database) error {
	sales, err := db.CreateTable("sales", types.NewSchema(
		types.Column{Qualifier: "sales", Name: "s_id", Kind: types.KindInt},
		types.Column{Qualifier: "sales", Name: "s_region", Kind: types.KindInt},
		types.Column{Qualifier: "sales", Name: "s_val", Kind: types.KindFloat},
		types.Column{Qualifier: "sales", Name: "s_qty", Kind: types.KindInt},
	))
	if err != nil {
		return err
	}
	if _, err := sales.SetPrimaryKey("s_id"); err != nil {
		return err
	}
	ops := make([]storage.WriteOp, 0, 4096)
	flush := func() error {
		results, _ := db.ApplyOps(ops)
		for _, r := range results {
			if r.Err != nil {
				return r.Err
			}
		}
		ops = ops[:0]
		return nil
	}
	for i := 0; i < salesRows; i++ {
		h := uint64(i) * 2654435761
		ops = append(ops, storage.WriteOp{Kind: storage.WInsert, Table: "sales", Row: types.Row{
			types.NewInt(int64(i)),
			types.NewInt(int64(i % salesRegions)),
			types.NewFloat(float64(h%10000) / 100),
			types.NewInt(int64(h % 7)),
		}})
		if len(ops) == cap(ops) {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	return flush()
}

// Overload scenario shape: enough concurrent clients to overflow the queue
// cap many times over, so the run exercises both admission outcomes (shed
// and admitted) at a measurable rate.
const (
	overloadQueries  = 2000
	overloadClients  = 256
	overloadQueueCap = 64
	overloadSLO      = 5 * time.Millisecond
)

// benchOverload runs the experiments.Overload scenario on a single-engine
// deployment and folds its percentiles and shed rate into a bench record.
// With backoff, clients honor the typed RetryAfter hint on each shed (the
// shed-rate delta against the immediate-retry record is the point).
func benchOverload(opts experiments.Options, backoff bool) (benchRecord, error) {
	ovOpts := opts
	ovOpts.Shards = 1 // admission is per engine; one engine keeps the scenario comparable
	ovOpts.MaxGenerationDelay = overloadSLO
	ovOpts.QueueDepthLimit = overloadQueueCap
	run := experiments.Overload
	name, clientKind := "overload", "immediate-retry clients"
	if backoff {
		run = experiments.OverloadBackoff
		name, clientKind = "overload_backoff", "clients honoring the RetryAfter hint"
	}
	res, err := run(ovOpts, overloadQueries, overloadClients)
	if err != nil {
		return benchRecord{}, err
	}
	ns := float64(res.Mean)
	ops := 0.0
	if ns > 0 {
		ops = 1e9 / ns
	}
	return benchRecord{
		Name: name,
		Description: fmt.Sprintf(
			"admission control under a %d-client saturating burst (SLO %v, queue cap %d), %s: admitted-latency percentiles + shed rate",
			overloadClients, overloadSLO, overloadQueueCap, clientKind),
		Ops: int(res.Admitted), Unit: "admitted query",
		NsPerOp: ns, OpsPerSec: ops, QueriesPerX: 1,
		P50Ns: float64(res.P50), P99Ns: float64(res.P99), ShedRate: res.ShedRate(),
	}, nil
}

// Subscribe scenario shape: a 64-subscriber browsing feed (one standing
// subject-search per subscriber) while a single writer updates item costs,
// one point write per generation.
const (
	subSubscribers = 64
	subWrites      = 512
)

// benchSubscribeBrowsing measures end-to-end standing-query delivery:
// updates handed to subscribers per second while the write stream runs.
func benchSubscribeBrowsing(opts experiments.Options) (benchRecord, error) {
	db, err := storage.Open(storage.Options{})
	if err != nil {
		return benchRecord{}, err
	}
	defer db.Close()
	if _, err := tpcw.Setup(db, opts.Scale, opts.Seed); err != nil {
		return benchRecord{}, err
	}
	gp := plan.New(db)
	eng := core.New(db, gp, core.Config{})
	defer eng.Close()

	read, err := eng.Prepare(`SELECT i_id, i_title, i_cost FROM item WHERE i_subject = ?`)
	if err != nil {
		return benchRecord{}, err
	}
	write, err := eng.Prepare(`UPDATE item SET i_cost = ? WHERE i_id = ?`)
	if err != nil {
		return benchRecord{}, err
	}

	subjects := tpcw.Subjects()
	var delivered int64
	var wg sync.WaitGroup
	subs := make([]*core.Subscription, subSubscribers)
	for i := range subs {
		sub, err := eng.Subscribe(read, []types.Value{types.NewString(subjects[i%len(subjects)])})
		if err != nil {
			return benchRecord{}, err
		}
		subs[i] = sub
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range sub.Updates() {
				atomic.AddInt64(&delivered, 1)
			}
		}()
	}
	// Let every initial full result land before the measured write stream.
	for atomic.LoadInt64(&delivered) < subSubscribers {
		time.Sleep(time.Millisecond)
	}

	base := atomic.LoadInt64(&delivered)
	start := time.Now()
	for i := 0; i < subWrites; i++ {
		res := eng.Submit(write, []types.Value{
			types.NewFloat(float64(i%90) + 1), types.NewInt(int64(i%opts.Scale.Items) + 1)})
		if res.Wait(); res.Err != nil {
			return benchRecord{}, res.Err
		}
	}
	// Deliveries ride the write generations' sink cycles; settle until the
	// counter stops moving so the last generation's updates are counted.
	for prev := int64(-1); ; {
		cur := atomic.LoadInt64(&delivered)
		if cur == prev {
			break
		}
		prev = cur
		time.Sleep(5 * time.Millisecond)
	}
	elapsed := time.Since(start)
	for _, sub := range subs {
		sub.Close()
	}
	wg.Wait()

	updates := atomic.LoadInt64(&delivered) - base
	rate := 0.0
	if elapsed > 0 {
		rate = float64(updates) / elapsed.Seconds()
	}
	ns := 0.0
	if rate > 0 {
		// Round to whole nanoseconds: ns_per_op is integral everywhere else
		// (testing.BenchmarkResult reports it as an int64) and benchdiff's
		// consumers treat it as such.
		ns = math.Round(1e9 / rate)
	}
	return benchRecord{
		Name: "subscribe_browsing",
		Description: fmt.Sprintf(
			"%d standing subject-search subscribers on the TPC-W item table, %d point writes: subscription updates delivered per second",
			subSubscribers, subWrites),
		Ops: int(updates), Unit: "subscription update",
		NsPerOp: ns, OpsPerSec: rate, QueriesPerX: 1,
	}, nil
}

// Folding scenario shape: many clients drawing the same statement's
// parameter from a small Zipfian domain, against a statement quota well
// below the client count and a heartbeat-pinned generation cadence. With
// folding off the quota rations clients across generations; with folding
// on the duplicates collapse into the quota'd leads and every client rides
// every generation — client throughput multiplies at constant
// generations/sec.
const (
	foldClients   = 64
	foldDistinct  = 8
	foldQuota     = 8
	foldHeartbeat = 2 * time.Millisecond
	foldWindow    = 1500 * time.Millisecond
)

// benchFolding runs the experiments.Folding scenario on the unfolded
// reference engine (noFold) or the production one and reports
// client-visible queries as the op.
func benchFolding(opts experiments.Options, noFold bool) (benchRecord, error) {
	fOpts := opts
	fOpts.Shards = 1 // folding ratio is per engine; sharded folding has its own tests
	fOpts.StatementQuota = foldQuota
	fOpts.MaxInFlightGenerations = 1
	fOpts.Heartbeat = foldHeartbeat
	fOpts.NoFold = noFold
	res, err := experiments.Folding(fOpts, foldClients, foldDistinct, foldWindow)
	if err != nil {
		return benchRecord{}, err
	}
	qps := res.ClientQPS()
	ns := 0.0
	if qps > 0 {
		ns = math.Round(1e9 / qps)
	}
	name, state := "fold_zipf_on", "folding on"
	if noFold {
		name, state = "fold_zipf_off", "folding off"
	}
	return benchRecord{
		Name: name,
		Description: fmt.Sprintf(
			"%s: %d clients, Zipf over %d params, statement quota %d, heartbeat %v — client-visible queries/sec at constant generations/sec",
			state, foldClients, foldDistinct, foldQuota, foldHeartbeat),
		Ops: int(res.ClientQueries), Unit: "client query",
		NsPerOp: ns, OpsPerSec: qps, QueriesPerX: 1,
		GenPerSec: res.GenerationsPerSec(), FoldHitRate: res.Engine.FoldHitRate(),
	}, nil
}

// benchMix measures the concurrent TPC-W Shopping mix on a fresh
// environment with the given shard count.
func benchMix(opts experiments.Options, shards int) (testing.BenchmarkResult, error) {
	env, err := experiments.NewEnvSharded(experiments.SharedDB, opts.Scale, opts.Seed, shards)
	if err != nil {
		return testing.BenchmarkResult{}, err
	}
	defer env.Close()
	var mixResult testing.BenchmarkResult
	opts.Profile.Window(fmt.Sprintf("tpcw_mix on %d shards", shards), func() { mixResult = benchMixRun(env) })
	return mixResult, nil
}

// benchMixRun is benchMix's timed run over env.
func benchMixRun(env *experiments.Env) testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		var mu sync.Mutex
		var seed int64
		weights := tpcw.Shopping.Weights()
		var cum [tpcw.NumInteractions]float64
		total := 0.0
		for i, w := range weights {
			total += w
			cum[i] = total
		}
		b.RunParallel(func(pb *testing.PB) {
			mu.Lock()
			seed++
			sess := tpcw.NewSession(env.Sys, env.Scale, env.IDs, seed)
			mu.Unlock()
			for pb.Next() {
				pick := sess.Rng.Float64() * total
				inter := tpcw.Interaction(0)
				for i := tpcw.Interaction(0); i < tpcw.NumInteractions; i++ {
					if pick <= cum[i] {
						inter = i
						break
					}
				}
				if err := sess.Run(inter); err != nil {
					if errors.Is(err, storage.ErrConflict) || errors.Is(err, storage.ErrUniqueViolate) {
						continue // SI write-write conflict: a real client retries
					}
					b.Error(err)
					return
				}
			}
		})
	})
}
