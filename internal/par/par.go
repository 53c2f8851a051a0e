// Package par is the engine's data-parallel fork/join primitive, used by the
// storage manager's partition-parallel scans (the partitioned ClockScan of
// Crescando, paper §4.4, and its columnar counterpart). The paper pins worker
// threads to cores; here the degree of parallelism is a per-cycle worker
// count resolved from Config.Workers, and pooled goroutines stand in for
// pinned threads.
//
// The contract every caller relies on: Do(workers, n, fn) runs fn(0..n-1) to
// completion before returning, fn invocations may run concurrently on up to
// `workers` goroutines, and with workers <= 1 everything runs sequentially
// on the calling goroutine in index order — which is how Workers=1 keeps the
// engine byte-identical to serial execution.
//
// Helpers are persistent: instead of spawning workers-1 goroutines per Do
// call, work is dispatched as tickets to one process-wide pool of long-lived
// worker goroutines.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Resolve normalizes a Workers configuration value: 0 selects GOMAXPROCS
// (the paper's "one worker per core"), negative values clamp to 1 (serial).
func Resolve(workers int) int {
	if workers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if workers < 1 {
		return 1
	}
	return workers
}

// job is one Do invocation's shared work description. Workers that receive a
// ticket claim indices from next until it passes n; items completes once per
// finished fn call, so the issuing goroutine never waits on ticket delivery —
// only on its n items. A ticket delivered after the job drained is a cheap
// no-op, which is what lets ticket publication be fire-and-forget.
type job struct {
	next  atomic.Int64
	n     int
	fn    func(i int)
	items sync.WaitGroup
}

func (j *job) run() {
	for {
		i := int(j.next.Add(1)) - 1
		if i >= j.n {
			return
		}
		j.fn(i)
		j.items.Done()
	}
}

// pool is a fixed set of persistent worker goroutines that execute Do
// tickets. A nil *pool is usable: its do falls back to the process-wide
// default pool.
type pool struct {
	tickets chan *job
	size    int
}

// newPool starts size persistent worker goroutines (at least 1). They live
// as long as the process.
func newPool(size int) *pool {
	if size < 1 {
		size = 1
	}
	p := &pool{tickets: make(chan *job, size), size: size}
	for w := 0; w < size; w++ {
		go func() {
			for j := range p.tickets {
				j.run()
			}
		}()
	}
	return p
}

// do runs fn(i) for every i in [0, n), using up to `workers` goroutines
// (the calling goroutine plus at most workers-1 pool workers), and returns
// once all invocations have completed. Tasks are claimed from a shared
// atomic counter, so callers that want deterministic work assignment should
// make fn(i) own partition i outright and write only to i-indexed state.
// With workers <= 1 (or n <= 1) the calls happen sequentially in index order
// on the caller's goroutine. On a nil pool, do delegates to the default
// pool.
func (p *pool) do(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	if p == nil {
		p = defaultPool()
	}
	j := &job{n: n, fn: fn}
	j.items.Add(n)
	need := workers - 1
	if need > p.size {
		need = p.size
	}
	// Fire-and-forget ticket publication: a full channel means every pool
	// worker is already busy, in which case the caller absorbs the work
	// instead of queueing more tickets than could ever help.
	for t := 0; t < need; t++ {
		select {
		case p.tickets <- j:
			forkCount.Add(1)
		default:
			t = need
		}
	}
	j.run()
	j.items.Wait()
}

// Do runs fn over [0, n) on the process-wide default pool; see (*pool).do
// for the contract. The default pool is sized to the machine's CPU count and
// created lazily on first parallel use.
func Do(workers, n int, fn func(i int)) {
	var p *pool
	p.do(workers, n, fn)
}

var (
	defaultOnce sync.Once
	defPool     *pool
)

// defaultPool lazily creates the shared process-wide pool. It is sized to
// runtime.NumCPU rather than GOMAXPROCS so that later GOMAXPROCS changes
// (e.g. go test -cpu 1,4 re-running in one process) still find enough
// helpers; idle workers cost only a blocked channel receive.
func defaultPool() *pool {
	defaultOnce.Do(func() { defPool = newPool(runtime.NumCPU()) })
	return defPool
}

// forkCount counts work tickets dispatched to pool workers since process
// start — the pooled analogue of "worker goroutines spawned". The scan
// clamp's tests use it to pin that scans of tiny tables never fork.
var forkCount atomic.Int64

// Forks reports the total work tickets dispatched to pool workers so far.
func Forks() int64 { return forkCount.Load() }

// Split partitions [0, n) into at most `parts` contiguous ranges of
// near-equal size and returns the range boundaries: bounds[i] .. bounds[i+1]
// is partition i. Contiguity is what lets the partitioned ClockScan merge
// per-partition output back into global row order by plain concatenation.
func Split(n, parts int) []int {
	if parts > n {
		parts = n
	}
	if parts < 1 {
		parts = 1
	}
	bounds := make([]int, parts+1)
	for i := 0; i <= parts; i++ {
		bounds[i] = n * i / parts
	}
	return bounds
}
