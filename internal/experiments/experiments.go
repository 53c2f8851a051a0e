// Package experiments regenerates every figure of the paper's evaluation
// (§5): the TPC-W throughput sweeps (Figures 7–9) and the micro-benchmarks
// (Figures 10–11). The same code backs the cmd/tpcw and cmd/microbench
// binaries and the root-level testing.B benchmarks.
//
// Absolute numbers differ from the paper (their testbed was a 48-core
// Magny-Cours; think times and response limits are compressed by a common
// factor) — the reproduced quantity is the *shape*: which
// system wins, by what ratio, and where the curves bend.
package experiments

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"shareddb/internal/baseline"
	"shareddb/internal/core"
	"shareddb/internal/dbapi"
	"shareddb/internal/harness"
	"shareddb/internal/storage"
	"shareddb/internal/tpcw"
	"shareddb/internal/types"
)

// SystemKind selects a system under test.
type SystemKind int

// Systems compared throughout §5.
const (
	SharedDB SystemKind = iota
	SystemX
	MySQL
)

// String names the system as the paper's figures do.
func (k SystemKind) String() string {
	return [...]string{"SharedDB", "SystemX", "MySQL"}[k]
}

// AllSystems lists the three systems in figure order.
var AllSystems = []SystemKind{MySQL, SystemX, SharedDB}

// Env is one freshly loaded TPC-W database plus a system under test.
type Env struct {
	DB    *storage.Database // first shard on sharded runs
	dbs   []*storage.Database
	Gen   *tpcw.Generator
	IDs   *tpcw.IDAllocator
	Sys   tpcw.System
	Scale tpcw.Scale
}

// NewEnv loads a fresh database and attaches the requested system. Each
// system gets its own copy so that one run's updates cannot skew another's.
func NewEnv(kind SystemKind, scale tpcw.Scale, seed int64) (*Env, error) {
	return NewEnvSharded(kind, scale, seed, 1)
}

// NewEnvSharded is NewEnv with a shard count: shards > 1 runs SharedDB as
// a sharded deployment (hash-partitioned TPC-W tables behind the
// scatter-gather router, tpcw.ShardedPlacement). The query-at-a-time
// baselines stay single-node — their comparison point is the unsharded
// engine.
func NewEnvSharded(kind SystemKind, scale tpcw.Scale, seed int64, shards int) (*Env, error) {
	return NewEnvWithOptions(kind, Options{Scale: scale, Seed: seed, Shards: shards})
}

// NewEnvWithOptions builds the environment from the full Options — the
// admission-control knobs included — so overload scenarios can run against
// an engine with a latency SLO, queue cap and statement quotas.
func NewEnvWithOptions(kind SystemKind, opts Options) (*Env, error) {
	scale, seed, shards := opts.Scale, opts.Seed, opts.Shards
	if kind == SharedDB && shards > 1 {
		dbs := make([]*storage.Database, 0, shards)
		closeAll := func() {
			for _, db := range dbs {
				db.Close()
			}
		}
		for i := 0; i < shards; i++ {
			db, err := storage.Open(storage.Options{Shard: storage.ShardInfo{Index: i, Count: shards}})
			if err != nil {
				closeAll()
				return nil, err
			}
			dbs = append(dbs, db)
		}
		gen, err := tpcw.SetupSharded(dbs, scale, seed)
		if err != nil {
			closeAll()
			return nil, err
		}
		sys, err := tpcw.NewShardedSystem(dbs, opts.coreConfig())
		if err != nil {
			closeAll()
			return nil, err
		}
		return &Env{DB: dbs[0], dbs: dbs, Gen: gen, IDs: tpcw.NewIDAllocator(gen),
			Sys: sys, Scale: scale}, nil
	}
	db, err := storage.Open(storage.Options{})
	if err != nil {
		return nil, err
	}
	gen, err := tpcw.Setup(db, scale, seed)
	if err != nil {
		return nil, err
	}
	env := &Env{DB: db, dbs: []*storage.Database{db}, Gen: gen, IDs: tpcw.NewIDAllocator(gen), Scale: scale}
	switch kind {
	case SharedDB:
		sys, err := tpcw.NewSharedSystem(db, opts.coreConfig())
		if err != nil {
			return nil, err
		}
		env.Sys = sys
	case SystemX:
		sys, err := tpcw.NewBaselineSystem(db, baseline.SystemXLike)
		if err != nil {
			return nil, err
		}
		env.Sys = sys
	case MySQL:
		sys, err := tpcw.NewBaselineSystem(db, baseline.MySQLLike)
		if err != nil {
			return nil, err
		}
		env.Sys = sys
	}
	return env, nil
}

// Close releases the environment.
func (e *Env) Close() {
	e.Sys.Close()
	for _, db := range e.dbs {
		db.Close()
	}
}

// Options tunes experiment size so the binaries can run paper-shaped sweeps
// while the benchmarks run quick smoke versions.
type Options struct {
	Scale         tpcw.Scale
	PointDuration time.Duration // measurement window per data point
	ThinkTime     time.Duration // mean EB think time (scaled-down 7 s)
	Seed          int64
	Shards        int // SharedDB shard engines (0 or 1 = single engine)

	// Admission-control knobs for overload scenarios (zero = disabled, the
	// classic unbounded-queue engine). They apply to SharedDB only; the
	// query-at-a-time baselines have no admission path.
	MaxGenerationDelay time.Duration // per-generation latency SLO
	QueueDepthLimit    int           // submissions queued per engine before rejection
	StatementQuota     int           // activations of one statement per generation

	// NoFold selects the unfolded reference engine (core.Config.NoFold) for
	// the folding scenario's off-side record; SharedDB otherwise always
	// collapses identical concurrent reads into one activation with a
	// fan-out.
	NoFold bool
	// MaxInFlightGenerations pins the generation pipeline depth (0 = the
	// engine default of 4). Folding scenarios run depth 1 so duplicates
	// accumulate in the pending queue — the fold window — instead of being
	// drained into overlapping generations immediately.
	MaxInFlightGenerations int
	// Heartbeat is the minimum spacing between generation starts (zero =
	// redispatch immediately). Folding comparisons set it so the
	// generation rate is cadence-bound and therefore identical with and
	// without folding — the constant-engine-work axis of the benchmark.
	Heartbeat time.Duration

	// Profile, when set, profiles each figure's timed windows (one data
	// point of one system each), not the loading between them.
	Profile *harness.CPUProfile
}

// coreConfig maps the Options onto the engine configuration shared by the
// single-engine and sharded backends.
func (o Options) coreConfig() core.Config {
	return core.Config{
		MaxGenerationDelay:     o.MaxGenerationDelay,
		QueueDepthLimit:        o.QueueDepthLimit,
		StatementQuota:         o.StatementQuota,
		NoFold:                 o.NoFold,
		MaxInFlightGenerations: o.MaxInFlightGenerations,
		Heartbeat:              o.Heartbeat,
	}
}

// Fig7Point is one (EBs → throughput) measurement.
type Fig7Point struct {
	EBs     int
	Offered float64
	WIPS    float64
	P95     time.Duration
}

// Fig7 runs the paper's first experiment: throughput under varying load for
// one mix, for every system ("we varied the load of the system by
// increasing the number of emulated browsers and measured the web
// interactions that were successfully answered ... in the response time
// limit", §5.3).
func Fig7(mix tpcw.Mix, ebCounts []int, opts Options) (map[SystemKind][]Fig7Point, error) {
	out := map[SystemKind][]Fig7Point{}
	for _, kind := range AllSystems {
		env, err := NewEnvSharded(kind, opts.Scale, opts.Seed, opts.Shards)
		if err != nil {
			return nil, err
		}
		for _, ebs := range ebCounts {
			var m *tpcw.Metrics
			opts.Profile.Window(fmt.Sprintf("fig 7 %v %v %d EBs", mix, kind, ebs), func() {
				m = tpcw.RunDriver(env.Sys, env.Scale, env.IDs, tpcw.DriverConfig{
					EBs: ebs, Duration: opts.PointDuration, ThinkTime: opts.ThinkTime,
					Mix: mix, Only: -1, Seed: opts.Seed,
				})
			})
			out[kind] = append(out[kind], Fig7Point{
				EBs:     ebs,
				Offered: tpcw.OfferedLoad(ebs, opts.ThinkTime),
				WIPS:    m.WIPS(),
				P95:     m.Latency.Quantile(0.95),
			})
		}
		env.Close()
	}
	return out, nil
}

// Fig8Point is one (cores → max throughput) measurement.
type Fig8Point struct {
	Cores int
	WIPS  float64
}

// Fig8 measures maximum throughput while varying the core budget
// (GOMAXPROCS stands in for the paper's maxcpus kernel parameter, §5.4).
// saturate is the closed-loop client count used to saturate the system.
type GomaxprocsSetter func(n int) int

// Fig8 runs the cores sweep for one mix.
func Fig8(mix tpcw.Mix, cores []int, saturate int, opts Options, setProcs GomaxprocsSetter) (map[SystemKind][]Fig8Point, error) {
	out := map[SystemKind][]Fig8Point{}
	for _, kind := range AllSystems {
		for _, n := range cores {
			prev := setProcs(n)
			env, err := NewEnvSharded(kind, opts.Scale, opts.Seed, opts.Shards)
			if err != nil {
				setProcs(prev)
				return nil, err
			}
			var m *tpcw.Metrics
			opts.Profile.Window(fmt.Sprintf("fig 8 %v %v %d cores", mix, kind, n), func() {
				m = tpcw.RunDriver(env.Sys, env.Scale, env.IDs, tpcw.DriverConfig{
					EBs: saturate, Duration: opts.PointDuration, ThinkTime: 0,
					Mix: mix, Only: -1, Seed: opts.Seed,
				})
			})
			env.Close()
			setProcs(prev)
			out[kind] = append(out[kind], Fig8Point{Cores: n, WIPS: m.WIPS()})
		}
	}
	return out, nil
}

// Fig9Point is one (interaction → max throughput) measurement.
type Fig9Point struct {
	Interaction tpcw.Interaction
	WIPS        float64
}

// Fig9 measures the maximum throughput of each individual web interaction
// ("the maximum throughput that each of the three systems can achieve if
// the clients are configured to issue only queries that correspond to a
// single web interaction", §5.5).
func Fig9(clients int, opts Options) (map[SystemKind][]Fig9Point, error) {
	out := map[SystemKind][]Fig9Point{}
	for _, kind := range AllSystems {
		env, err := NewEnvSharded(kind, opts.Scale, opts.Seed, opts.Shards)
		if err != nil {
			return nil, err
		}
		for i := tpcw.Interaction(0); i < tpcw.NumInteractions; i++ {
			var m *tpcw.Metrics
			opts.Profile.Window(fmt.Sprintf("fig 9 %v %v", kind, i), func() {
				m = tpcw.RunDriver(env.Sys, env.Scale, env.IDs, tpcw.DriverConfig{
					EBs: clients, Duration: opts.PointDuration, ThinkTime: 0,
					Mix: tpcw.Shopping, Only: i, Seed: opts.Seed,
				})
			})
			out[kind] = append(out[kind], Fig9Point{Interaction: i, WIPS: m.WIPS()})
		}
		env.Close()
	}
	return out, nil
}

// Fig10Point is one (batch size → batch response time) measurement.
type Fig10Point struct {
	BatchSize int
	Elapsed   time.Duration
}

// Fig10Query selects the light or heavy query of §5.6.
type Fig10Query int

// The two §5.6 queries.
const (
	LightQuery Fig10Query = iota // "search item by title": 2-way join point query
	HeavyQuery                   // "best sellers": 3 joins + group-by + sort
)

func (q Fig10Query) String() string {
	if q == LightQuery {
		return "SearchItemByTitle"
	}
	return "BestSellers"
}

// Fig10 issues batches of an increasing number of identical-template
// queries (different parameters) and measures whole-batch completion time,
// including SharedDB's queueing delay (§5.6).
func Fig10(query Fig10Query, sizes []int, opts Options) (map[SystemKind][]Fig10Point, error) {
	out := map[SystemKind][]Fig10Point{}
	for _, kind := range AllSystems {
		env, err := NewEnvSharded(kind, opts.Scale, opts.Seed, opts.Shards)
		if err != nil {
			return nil, err
		}
		maxOID := int64(env.Gen.MaxOrderID)
		window := int64(1000)
		for _, n := range sizes {
			params := make([][]types.Value, n)
			for i := 0; i < n; i++ {
				if query == LightQuery {
					params[i] = []types.Value{types.NewString(fmt.Sprintf("Title %02d%%", i%100))}
				} else {
					params[i] = []types.Value{
						types.NewInt(maxOID - window),
						types.NewString(tpcw.Subjects()[i%len(tpcw.Subjects())]),
					}
				}
			}
			stmt := tpcw.StDoTitleSearch
			if query == HeavyQuery {
				stmt = tpcw.StGetBestSellers
			}
			start := time.Now()
			var wg sync.WaitGroup
			errCount := int64(0)
			opts.Profile.Window(fmt.Sprintf("fig 10 %v %v batch %d", query, kind, n), func() {
				for i := 0; i < n; i++ {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						if _, err := env.Sys.Query(stmt, params[i]...); err != nil {
							atomic.AddInt64(&errCount, 1)
						}
					}(i)
				}
				wg.Wait()
			})
			if errCount > 0 {
				env.Close()
				return nil, fmt.Errorf("fig10: %d queries failed", errCount)
			}
			out[kind] = append(out[kind], Fig10Point{BatchSize: n, Elapsed: time.Since(start)})
		}
		env.Close()
	}
	return out, nil
}

// Fig11Point is one (heavy-query rate → total throughput) measurement.
type Fig11Point struct {
	HeavyRate  float64 // offered best-sellers per second
	Throughput float64 // completed queries (light + heavy) per second
	LightDone  float64 // completed light queries per second
}

// Fig11 reproduces the load-interaction experiment (§5.7): a constant
// stream of light "search item by title" queries plus an increasing
// open-loop stream of heavy "best sellers" queries. The paper's headline:
// the baselines' light-query throughput collapses below the constant rate,
// SharedDB's total increases monotonically.
func Fig11(lightRate float64, heavyRates []float64, opts Options) (map[SystemKind][]Fig11Point, error) {
	out := map[SystemKind][]Fig11Point{}
	for _, kind := range AllSystems {
		env, err := NewEnvSharded(kind, opts.Scale, opts.Seed, opts.Shards)
		if err != nil {
			return nil, err
		}
		maxOID := env.Gen.MaxOrderID
		for _, hr := range heavyRates {
			var light, heavy float64
			opts.Profile.Window(fmt.Sprintf("fig 11 %v heavy %g/s", kind, hr), func() {
				light, heavy = openLoopRun(env, lightRate, hr, maxOID, opts.PointDuration)
			})
			out[kind] = append(out[kind], Fig11Point{
				HeavyRate:  hr,
				Throughput: light + heavy,
				LightDone:  light,
			})
		}
		env.Close()
	}
	return out, nil
}

// openLoopRun fires light and heavy queries at fixed rates for the window
// and returns completed-per-second counts. In-flight work is capped to keep
// an overloaded system from accumulating unbounded goroutines (the paper's
// clients likewise had finite connection pools).
func openLoopRun(env *Env, lightRate, heavyRate float64, maxOID int64, window time.Duration) (lightPerSec, heavyPerSec float64) {
	var lightDone, heavyDone int64
	var wg sync.WaitGroup
	inflight := make(chan struct{}, 2048)

	deadline := time.Now().Add(window)
	fire := func(rate float64, fn func(i int)) {
		defer wg.Done()
		if rate <= 0 {
			return
		}
		interval := time.Duration(float64(time.Second) / rate)
		i := 0
		for next := time.Now(); next.Before(deadline); next = next.Add(interval) {
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
			select {
			case inflight <- struct{}{}:
				wg.Add(1)
				i++
				go func(i int) {
					defer wg.Done()
					fn(i)
					<-inflight
				}(i)
			default: // system saturated: request dropped (client timeout)
			}
		}
	}
	wg.Add(2)
	go fire(lightRate, func(i int) {
		if _, err := env.Sys.Query(tpcw.StDoTitleSearch,
			types.NewString(fmt.Sprintf("Title %02d%%", i%100))); err == nil {
			atomic.AddInt64(&lightDone, 1)
		}
	})
	go fire(heavyRate, func(i int) {
		if _, err := env.Sys.Query(tpcw.StGetBestSellers,
			types.NewInt(maxOID-1000),
			types.NewString(tpcw.Subjects()[i%len(tpcw.Subjects())])); err == nil {
			atomic.AddInt64(&heavyDone, 1)
		}
	})
	wg.Wait()
	secs := window.Seconds()
	return float64(lightDone) / secs, float64(heavyDone) / secs
}

// OverloadResult is one overload-scenario run: how much work was offered,
// how much admission control let through, and the latency distribution of
// the admitted queries.
type OverloadResult struct {
	Offered  int64 // queries offered by the clients
	Admitted int64 // queries admitted and answered
	Shed     int64 // queries rejected with ErrOverloaded
	P50      time.Duration
	P99      time.Duration
	Mean     time.Duration
	Max      time.Duration
	Elapsed  time.Duration
}

// ShedRate is the fraction of offered queries rejected by admission
// control.
func (r *OverloadResult) ShedRate() float64 {
	if r.Offered == 0 {
		return 0
	}
	return float64(r.Shed) / float64(r.Offered)
}

// Overload drives a deliberately saturating closed-loop burst of light
// TPC-W queries (clients-way concurrent, no think time) against a SharedDB
// instance with admission control enabled, and reports admitted-latency
// percentiles plus the shed rate. The claim under test is the flip side of
// Fig10/Fig11: with a queue cap and a latency SLO, overload shows up as
// fast typed rejections and bounded admitted latency, not as an unbounded
// queue. At least one admission limit must be set in opts. Rejected clients
// re-offer immediately (the worst case); OverloadBackoff is the same run
// with the retry hint honored.
func Overload(opts Options, queries, clients int) (*OverloadResult, error) {
	return overload(opts, queries, clients, false)
}

// OverloadBackoff is Overload with well-behaved clients: on a shed, the
// client sleeps for the typed OverloadError.RetryAfter hint before offering
// its next query instead of hammering the same overloaded generation
// window. The offered load is identical (same query count per client), so
// the shed-rate difference against Overload isolates what honoring the
// hint buys.
func OverloadBackoff(opts Options, queries, clients int) (*OverloadResult, error) {
	return overload(opts, queries, clients, true)
}

func overload(opts Options, queries, clients int, backoff bool) (*OverloadResult, error) {
	if opts.MaxGenerationDelay == 0 && opts.QueueDepthLimit == 0 && opts.StatementQuota == 0 {
		return nil, fmt.Errorf("experiments: Overload needs at least one admission limit set (the scenario measures admission behavior)")
	}
	if clients < 1 {
		clients = 1
	}
	env, err := NewEnvWithOptions(SharedDB, opts)
	if err != nil {
		return nil, err
	}
	defer env.Close()

	hist := harness.NewHistogram()
	var admitted, shed, failed int64
	per := (queries + clients - 1) / clients
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				title := fmt.Sprintf("Title %02d%%", (c*per+i)%100)
				qStart := time.Now()
				_, err := env.Sys.Query(tpcw.StDoTitleSearch, types.NewString(title))
				switch {
				case err == nil:
					atomic.AddInt64(&admitted, 1)
					hist.Observe(time.Since(qStart))
				case errors.Is(err, dbapi.ErrOverloaded):
					atomic.AddInt64(&shed, 1)
					var oe *dbapi.OverloadError
					if backoff && errors.As(err, &oe) && oe.RetryAfter > 0 {
						time.Sleep(oe.RetryAfter)
					}
				default:
					atomic.AddInt64(&failed, 1)
				}
			}
		}(c)
	}
	wg.Wait()
	if failed > 0 {
		return nil, fmt.Errorf("experiments: overload run had %d non-overload failures", failed)
	}
	return &OverloadResult{
		Offered:  int64(per * clients),
		Admitted: admitted,
		Shed:     shed,
		P50:      hist.Quantile(0.50),
		P99:      hist.Quantile(0.99),
		Mean:     hist.Mean(),
		Max:      hist.Max(),
		Elapsed:  time.Since(start),
	}, nil
}

// FoldingResult is one Zipfian-repeat folding run: client-visible work
// versus the engine work that served it.
type FoldingResult struct {
	ClientQueries int64         // queries answered to clients
	Elapsed       time.Duration // measurement window
	Engine        dbapi.Stats   // the engine counters' growth over the window
}

// ClientQPS is client-visible queries per second.
func (r *FoldingResult) ClientQPS() float64 { return float64(r.ClientQueries) / r.Elapsed.Seconds() }

// GenerationsPerSec is the engine-work rate (the quantity folding must
// hold constant while client throughput multiplies).
func (r *FoldingResult) GenerationsPerSec() float64 {
	return float64(r.Engine.Generations) / r.Elapsed.Seconds()
}

// Folding drives the Zipfian-repeat scenario behind the headline folding
// metric: clients closed-loop clients all issue the TPC-W title-search
// statement with parameters Zipf-drawn from a small domain (distinct
// values), so the same query-with-same-parameters arrives dozens of times
// per generation. Options.StatementQuota bounds how many activations of
// the statement one generation admits — the engine-work rate — so with
// Options.NoFold the excess is shed to later generations (clients wait),
// while with folding the duplicates collapse into the quota'd leads and
// the whole client population rides each generation. Client-visible
// queries/sec multiplies; generations/sec — work per unit time — stays
// constant.
func Folding(opts Options, clients, distinct int, window time.Duration) (*FoldingResult, error) {
	if clients < 1 {
		clients = 1
	}
	if distinct < 1 {
		distinct = 1
	}
	env, err := NewEnvWithOptions(SharedDB, opts)
	if err != nil {
		return nil, err
	}
	defer env.Close()
	sys, ok := env.Sys.(*tpcw.SharedSystem)
	if !ok {
		return nil, fmt.Errorf("experiments: Folding needs a SharedDB system")
	}

	before := sys.Engine().Stats()
	var done, failed int64
	start := time.Now()
	deadline := start.Add(window)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Zipf over the small parameter domain: skew concentrates the
			// duplicates the way a popular-item workload does.
			rng := rand.New(rand.NewSource(opts.Seed + int64(c)))
			zipf := rand.NewZipf(rng, 1.2, 1, uint64(distinct-1))
			for time.Now().Before(deadline) {
				title := fmt.Sprintf("Title %02d%%", zipf.Uint64())
				if _, err := env.Sys.Query(tpcw.StDoTitleSearch, types.NewString(title)); err == nil {
					atomic.AddInt64(&done, 1)
				} else {
					atomic.AddInt64(&failed, 1)
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if failed > 0 {
		return nil, fmt.Errorf("experiments: folding run had %d failures", failed)
	}
	after := sys.Engine().Stats()
	return &FoldingResult{
		ClientQueries: done,
		Elapsed:       elapsed,
		Engine:        after.Sub(before),
	}, nil
}

// RenderFig7 formats a Fig7 result as the paper's throughput table.
func RenderFig7(mix tpcw.Mix, res map[SystemKind][]Fig7Point) string {
	t := &harness.Table{Header: []string{"EBs", "Offered/s", "MySQL", "SystemX", "SharedDB"}}
	if len(res[SharedDB]) == 0 {
		return ""
	}
	for i, p := range res[SharedDB] {
		t.Add(p.EBs, p.Offered, res[MySQL][i].WIPS, res[SystemX][i].WIPS, p.WIPS)
	}
	return fmt.Sprintf("TPC-W %s Mix: throughput (WIPS) under varying load\n%s", mix, t)
}

// RenderFig8 formats a Fig8 result.
func RenderFig8(mix tpcw.Mix, res map[SystemKind][]Fig8Point) string {
	t := &harness.Table{Header: []string{"Cores", "MySQL", "SystemX", "SharedDB"}}
	for i, p := range res[SharedDB] {
		t.Add(p.Cores, res[MySQL][i].WIPS, res[SystemX][i].WIPS, p.WIPS)
	}
	return fmt.Sprintf("TPC-W %s Mix: max throughput vs cores\n%s", mix, t)
}

// RenderFig9 formats a Fig9 result.
func RenderFig9(res map[SystemKind][]Fig9Point) string {
	t := &harness.Table{Header: []string{"Interaction", "MySQL", "SystemX", "SharedDB"}}
	for i, p := range res[SharedDB] {
		t.Add(p.Interaction.String(), res[MySQL][i].WIPS, res[SystemX][i].WIPS, p.WIPS)
	}
	return "Max throughput (WIPS) of individual web interactions\n" + t.String()
}

// RenderFig10 formats a Fig10 result.
func RenderFig10(q Fig10Query, res map[SystemKind][]Fig10Point) string {
	t := &harness.Table{Header: []string{"Batch", "MySQL", "SystemX", "SharedDB"}}
	for i, p := range res[SharedDB] {
		t.Add(p.BatchSize, res[MySQL][i].Elapsed, res[SystemX][i].Elapsed, p.Elapsed)
	}
	return fmt.Sprintf("Response time of batches of the %s query\n%s", q, t)
}

// RenderFig11 formats a Fig11 result: total completed throughput per
// system, plus each system's completed *light* queries (the paper's
// robustness claim is about the light stream surviving heavy load).
func RenderFig11(lightRate float64, res map[SystemKind][]Fig11Point) string {
	t := &harness.Table{Header: []string{"Heavy/s",
		"MySQL", "SystemX", "SharedDB",
		"MySQL-light", "SystemX-light", "SharedDB-light"}}
	for i, p := range res[SharedDB] {
		t.Add(p.HeavyRate, res[MySQL][i].Throughput, res[SystemX][i].Throughput,
			p.Throughput, res[MySQL][i].LightDone, res[SystemX][i].LightDone, p.LightDone)
	}
	return fmt.Sprintf("Load interaction: constant %.0f light queries/s + increasing heavy queries\n%s",
		lightRate, t)
}
