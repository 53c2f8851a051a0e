package tpcw

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"shareddb/internal/dbapi"
	"shareddb/internal/harness"
	"shareddb/internal/shard"
	"shareddb/internal/storage"
)

// Mix selects one of the three TPC-W workload mixes (§5.1): "The Browsing
// mix is a read-mostly, search intensive workload ... The Ordering mix is a
// write-intensive workload with only a few analytical queries. The Shopping
// mix is somewhere in between."
type Mix int

// Workload mixes.
const (
	Browsing Mix = iota
	Shopping
	Ordering
)

// String names the mix.
func (m Mix) String() string {
	return [...]string{"Browsing", "Shopping", "Ordering"}[m]
}

// Weights returns the per-interaction probabilities of the mix. The TPC-W
// specification defines the mixes as Markov transition matrices; these are
// their stationary interaction frequencies (the spec's Table 5.3 summary),
// a standard simplification for database-tier benchmarking.
func (m Mix) Weights() [NumInteractions]float64 {
	switch m {
	case Browsing:
		return [NumInteractions]float64{
			29.00, 11.00, 11.00, 21.00, 12.00, 11.00,
			2.00, 0.82, 0.75, 0.69, 0.30, 0.25, 0.10, 0.09,
		}
	case Shopping:
		return [NumInteractions]float64{
			16.00, 5.00, 5.00, 17.00, 20.00, 17.00,
			11.60, 3.00, 2.60, 1.20, 0.75, 0.66, 0.10, 0.09,
		}
	default: // Ordering
		return [NumInteractions]float64{
			9.12, 0.46, 0.46, 12.35, 14.53, 13.08,
			13.53, 12.86, 12.73, 10.18, 0.25, 0.22, 0.12, 0.11,
		}
	}
}

// DriverConfig configures a TPC-W run.
type DriverConfig struct {
	EBs      int           // emulated browsers
	Duration time.Duration // measurement window
	// ThinkTime is the mean of the exponential think-time distribution.
	// The spec uses 7s; runs here scale it down together with the
	// response-time limits (TimeScale) to keep experiments laptop-sized
	// while preserving offered-load ratios.
	ThinkTime time.Duration
	Mix       Mix
	// Only restricts the workload to a single interaction (paper Figure 9);
	// -1 uses the mix.
	Only Interaction
	Seed int64
}

// TimeScale returns the factor by which think time was compressed relative
// to the spec's 7 s; response-time limits compress by the same factor.
func (c DriverConfig) TimeScale() float64 {
	if c.ThinkTime <= 0 {
		return 0
	}
	return float64(c.ThinkTime) / float64(7*time.Second)
}

// Metrics aggregates a run's outcome.
type Metrics struct {
	System   string
	Mix      Mix
	EBs      int
	Duration time.Duration

	Success int64 // interactions finished within their response-time limit
	Late    int64 // finished but exceeded the limit (not valid WIPS)
	// Shed counts interactions rejected by admission control
	// (ErrOverloaded): backpressure doing its job under overload, reported
	// separately from Errors so shed rate is measurable per run.
	Shed    int64
	Errors  int64
	Total   int64
	ByInter [NumInteractions]int64
	LateBy  [NumInteractions]int64
	Latency *harness.Histogram
	ByLat   [NumInteractions]*harness.Histogram
}

// WIPS is the paper's throughput metric: valid web interactions per second.
func (m *Metrics) WIPS() float64 {
	if m.Duration <= 0 {
		return 0
	}
	return float64(m.Success) / m.Duration.Seconds()
}

// ShedRate is the fraction of offered interactions rejected by admission
// control during the run.
func (m *Metrics) ShedRate() float64 {
	if m.Total == 0 {
		return 0
	}
	return float64(m.Shed) / float64(m.Total)
}

// OfferedLoad is the "GeneratedLoad" line of Figure 7: the throughput the
// EB population would generate with zero response time.
func OfferedLoad(ebs int, think time.Duration) float64 {
	if think <= 0 {
		return math.Inf(1)
	}
	return float64(ebs) / think.Seconds()
}

// RunDriver executes the closed-loop emulated-browser workload and returns
// aggregated metrics.
func RunDriver(sys System, scale Scale, ids *IDAllocator, cfg DriverConfig) *Metrics {
	m := &Metrics{
		System: sys.Name(), Mix: cfg.Mix, EBs: cfg.EBs, Duration: cfg.Duration,
		Latency: harness.NewHistogram(),
	}
	for i := range m.ByLat {
		m.ByLat[i] = harness.NewHistogram()
	}
	weights := cfg.Mix.Weights()
	var cum [NumInteractions]float64
	total := 0.0
	for i, w := range weights {
		total += w
		cum[i] = total
	}
	timeScale := cfg.TimeScale()
	deadline := time.Now().Add(cfg.Duration)

	var stop atomic.Bool
	var wg sync.WaitGroup
	for eb := 0; eb < cfg.EBs; eb++ {
		wg.Add(1)
		go func(eb int) {
			defer wg.Done()
			sess := NewSession(sys, scale, ids, cfg.Seed+int64(eb)*7919)
			rng := rand.New(rand.NewSource(cfg.Seed + int64(eb)*104729 + 1))
			for !stop.Load() && time.Now().Before(deadline) {
				inter := cfg.Only
				if inter < 0 || inter >= NumInteractions {
					pick := rng.Float64() * total
					for i := Interaction(0); i < NumInteractions; i++ {
						if pick <= cum[i] {
							inter = i
							break
						}
					}
				}
				start := time.Now()
				err := sess.Run(inter)
				lat := time.Since(start)

				limit := inter.Timeout()
				if timeScale > 0 {
					limit = time.Duration(float64(limit) * timeScale)
				}
				atomic.AddInt64(&m.Total, 1)
				atomic.AddInt64(&m.ByInter[inter], 1)
				shed := err != nil && errors.Is(err, dbapi.ErrOverloaded)
				if !shed {
					// Rejections return in microseconds by design; folding
					// them into the histograms would understate admitted
					// latency in exactly the overload runs Shed is for.
					m.Latency.Observe(lat)
					m.ByLat[inter].Observe(lat)
				}
				switch {
				case shed:
					atomic.AddInt64(&m.Shed, 1)
					// Honor the typed back-off hint: retrying immediately
					// lands in the same overloaded generation window and is
					// shed again, inflating the shed rate without adding any
					// successful work. OverloadError.RetryAfter is the
					// server's estimate of when capacity frees up.
					var oe *dbapi.OverloadError
					if errors.As(err, &oe) && oe.RetryAfter > 0 {
						wait := oe.RetryAfter
						if max := 10 * cfg.ThinkTime; cfg.ThinkTime > 0 && wait > max {
							wait = max // same cap the spec puts on think time
						}
						time.Sleep(wait)
					}
				case err != nil:
					atomic.AddInt64(&m.Errors, 1)
				case timeScale > 0 && lat > limit:
					atomic.AddInt64(&m.Late, 1)
					atomic.AddInt64(&m.LateBy[inter], 1)
				default:
					atomic.AddInt64(&m.Success, 1)
				}

				if cfg.ThinkTime > 0 {
					think := time.Duration(rng.ExpFloat64() * float64(cfg.ThinkTime))
					if think > 10*cfg.ThinkTime {
						think = 10 * cfg.ThinkTime // spec caps think time at 10× mean
					}
					time.Sleep(think)
				}
			}
		}(eb)
	}
	wg.Wait()
	stop.Store(true)
	return m
}

// Setup creates the TPC-W schema in db and loads the scaled population,
// returning the generator (whose high-water marks seed the ID allocator).
func Setup(db *storage.Database, scale Scale, seed int64) (*Generator, error) {
	if err := CreateSchema(db); err != nil {
		return nil, err
	}
	g := NewGenerator(scale, seed)
	if err := g.Load(db); err != nil {
		return nil, err
	}
	return g, nil
}

// SetupSharded creates the TPC-W schema on every shard database and loads
// the scaled population through the sharded placement: partitioned tables
// split by partition-key hash, the catalog dimensions replicated to every
// shard. The same generator seed produces the same logical database as an
// unsharded Setup.
func SetupSharded(dbs []*storage.Database, scale Scale, seed int64) (*Generator, error) {
	for _, db := range dbs {
		if err := CreateSchema(db); err != nil {
			return nil, err
		}
	}
	g := NewGenerator(scale, seed)
	if err := g.Load(shard.Stores{DBs: dbs, Policy: ShardedPlacement()}); err != nil {
		return nil, err
	}
	return g, nil
}
