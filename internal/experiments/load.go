package experiments

// The network-load scenario: the paper's thousand concurrent queries
// arriving the way they actually arrive — over a thousand sockets —
// instead of as in-process goroutines. Load1k stands up the real wire
// stack (internal/server in front of the engine, the public client
// package per connection) and drives the same Zipfian title-search
// workload as Folding, so the two results are directly comparable: the
// acceptance bar is network folded-QPS within a small factor of the
// in-process number, with bounded tail latency when admission is on.

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"shareddb"
	"shareddb/client"
	"shareddb/internal/harness"
	"shareddb/internal/server"
)

// LoadOptions shapes one Load1k run.
type LoadOptions struct {
	Clients       int           // concurrent network connections (0 = 1000)
	Distinct      int           // Zipf parameter domain, as in Folding (0 = 8)
	Window        time.Duration // measurement window (0 = 1.5s)
	PipelineDepth int           // in-flight queries per connection (0 = 1)
	Items         int           // item-table rows loaded before the run (0 = 500)
	Seed          int64

	// Engine carries the admission + folding knobs (the same fields the
	// in-process scenarios use); Scale/ThinkTime/PointDuration are ignored.
	Engine Options
}

func (o *LoadOptions) defaults() {
	if o.Clients < 1 {
		o.Clients = 1000
	}
	if o.Distinct < 1 {
		o.Distinct = 8
	}
	if o.Window <= 0 {
		o.Window = 1500 * time.Millisecond
	}
	if o.PipelineDepth < 1 {
		o.PipelineDepth = 1
	}
	if o.Items < 1 {
		o.Items = 500
	}
}

// engineConfig maps the experiment Options onto the public Config the
// network server fronts.
func engineConfig(o Options) shareddb.Config {
	return shareddb.Config{
		MaxGenerationDelay:     o.MaxGenerationDelay,
		QueueDepthLimit:        o.QueueDepthLimit,
		StatementQuota:         o.StatementQuota,
		MaxInFlightGenerations: o.MaxInFlightGenerations,
		Heartbeat:              o.Heartbeat,
	}
}

// LoadResult is one Load1k run: client-visible throughput and tail
// latency, plus the engine-side counters that show whether the fan-in
// actually fed the fold table.
type LoadResult struct {
	Clients int
	Queries int64 // completed queries across all connections
	Shed    int64 // BUSY rejections observed by clients
	Elapsed time.Duration
	P50     time.Duration
	P99     time.Duration
	P999    time.Duration

	Engine shareddb.Stats // the engine counters' growth over the window
}

// RPS is completed client queries per second.
func (r *LoadResult) RPS() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Queries) / r.Elapsed.Seconds()
}

// GenerationsPerSec is the engine-work rate during the window.
func (r *LoadResult) GenerationsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Engine.Generations) / r.Elapsed.Seconds()
}

// ShedRate is the fraction of offers rejected with BUSY.
func (r *LoadResult) ShedRate() float64 {
	total := r.Queries + r.Shed
	if total == 0 {
		return 0
	}
	return float64(r.Shed) / float64(total)
}

const loadQuery = `SELECT i_id, i_title FROM item WHERE i_title LIKE ?`

// Load1k drives opts.Clients closed-loop network clients over loopback
// against a freshly loaded engine behind the real front end. Each client
// owns one connection and draws its title-search parameter from a small
// Zipfian domain (duplicates are the point: they must fold inside the
// server's fan-in path, not just in-process). Clients honor BUSY retry
// hints; every completed query's latency lands in one merged histogram.
func Load1k(opts LoadOptions) (*LoadResult, error) {
	opts.defaults()
	db, err := shareddb.Open(engineConfig(opts.Engine))
	if err != nil {
		return nil, err
	}
	defer db.Close()
	if err := loadItems(db, opts.Items); err != nil {
		return nil, err
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := server.New(db, server.Options{Logf: func(string, ...interface{}) {}})
	go srv.Serve(ln)
	defer srv.Close()
	addr := ln.Addr().String()

	// Connect every client before the clock starts; a dial limiter keeps
	// the thundering herd off the accept backlog.
	workers := make([]*loadWorker, opts.Clients)
	dialLimit := make(chan struct{}, 64)
	var dialWG sync.WaitGroup
	var dialErr atomic.Value
	for i := range workers {
		dialWG.Add(1)
		go func(i int) {
			defer dialWG.Done()
			dialLimit <- struct{}{}
			defer func() { <-dialLimit }()
			w, err := dialLoadWorker(addr, opts.PipelineDepth)
			if err != nil {
				dialErr.Store(err)
				return
			}
			workers[i] = w
		}(i)
	}
	dialWG.Wait()
	defer func() {
		var closeWG sync.WaitGroup
		for _, w := range workers {
			if w == nil {
				continue
			}
			closeWG.Add(1)
			go func(w *loadWorker) {
				defer closeWG.Done()
				dialLimit <- struct{}{}
				w.close()
				<-dialLimit
			}(w)
		}
		closeWG.Wait()
	}()
	if err, _ := dialErr.Load().(error); err != nil {
		return nil, fmt.Errorf("experiments: Load1k dial: %w", err)
	}

	before := db.Stats()
	hist := harness.NewHistogram()
	var done, shed, failed int64
	var failure atomic.Value
	start := time.Now()
	deadline := start.Add(opts.Window)
	var wg sync.WaitGroup
	for i, w := range workers {
		for lane := 0; lane < opts.PipelineDepth; lane++ {
			wg.Add(1)
			go func(w *loadWorker, id int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(opts.Seed + int64(id)))
				zipf := rand.NewZipf(rng, 1.2, 1, uint64(opts.Distinct-1))
				for time.Now().Before(deadline) {
					title := fmt.Sprintf("Title %02d%%", zipf.Uint64())
					qStart := time.Now()
					retry, err := w.query(title)
					switch {
					case err == nil && retry == 0:
						atomic.AddInt64(&done, 1)
						hist.Observe(time.Since(qStart))
					case err == nil: // BUSY with a retry hint
						atomic.AddInt64(&shed, 1)
						time.Sleep(retry)
					default:
						atomic.AddInt64(&failed, 1)
						failure.Store(err)
						return
					}
				}
			}(w, i*opts.PipelineDepth+lane)
		}
	}
	wg.Wait()
	elapsed := time.Since(start)
	if failed > 0 {
		err, _ := failure.Load().(error)
		return nil, fmt.Errorf("experiments: Load1k had %d query failures (first: %v)", failed, err)
	}
	after := db.Stats()
	return &LoadResult{
		Clients: opts.Clients,
		Queries: done,
		Shed:    shed,
		Elapsed: elapsed,
		P50:     hist.Quantile(0.50),
		P99:     hist.Quantile(0.99),
		P999:    hist.Quantile(0.999),

		Engine: after.Sub(before),
	}, nil
}

// loadItems creates and fills the title-search table; inserts run
// concurrently so generation batching amortizes the load phase.
func loadItems(db *shareddb.DB, items int) error {
	if _, err := db.Exec(`CREATE TABLE item (i_id INT, i_title VARCHAR, i_cost FLOAT, PRIMARY KEY (i_id))`); err != nil {
		return err
	}
	var wg sync.WaitGroup
	var firstErr atomic.Value
	sem := make(chan struct{}, 128)
	for i := 0; i < items; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			if _, err := db.Exec(`INSERT INTO item VALUES (?, ?, ?)`,
				i, fmt.Sprintf("Title %02d", i%100), float64(i%90)+1); err != nil {
				firstErr.Store(err)
			}
		}(i)
	}
	wg.Wait()
	err, _ := firstErr.Load().(error)
	return err
}

// loadWorker is one connection's query loop, driving the wire protocol
// through the public client.
type loadWorker struct {
	db   *client.DB
	stmt *client.Stmt
}

func dialLoadWorker(addr string, depth int) (*loadWorker, error) {
	db, err := client.OpenConfig(client.Config{Addr: addr, Window: depth, DialTimeout: 30 * time.Second})
	if err != nil {
		return nil, err
	}
	stmt, err := db.Prepare(loadQuery)
	if err != nil {
		db.Close()
		return nil, err
	}
	return &loadWorker{db: db, stmt: stmt}, nil
}

// query returns (0, nil) on success, (hint, nil) on a BUSY rejection, and a
// non-nil error on anything else.
func (w *loadWorker) query(title string) (retryAfter time.Duration, err error) {
	rows, err := w.stmt.Query(title)
	if err != nil {
		var oe *client.OverloadError
		if errors.As(err, &oe) {
			retry := oe.RetryAfter
			if retry <= 0 {
				retry = time.Millisecond
			}
			return retry, nil
		}
		return 0, err
	}
	rows.All()
	return 0, rows.Err()
}

func (w *loadWorker) close() { w.db.Close() }
