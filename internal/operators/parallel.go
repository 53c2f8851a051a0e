package operators

import (
	"slices"

	"shareddb/internal/par"
)

// Data-parallel helpers for the blocking operators' Finish phases (paper
// §4.2: "blocking operators ... can be easily parallelized by partitioning
// the data"). The design constraint throughout is that parallel execution
// must be observationally identical per query to serial execution: sorts
// keep exact stable order, aggregations keep per-group input order (float
// sums accumulate in the same sequence), and joins keep per-key build order.

// minParallelSortLen is the input size below which a parallel sort is not
// worth the fork/join overhead and the serial stable sort runs instead.
const minParallelSortLen = 1024

// minParallelAggLen is the buffered-tuple count below which the group-by
// aggregation and the join build fall back to their serial paths: small
// generations (the common case) would otherwise pay per-tuple entry
// allocations and two fork/joins for nothing. A var so tests can lower it
// to exercise the parallel paths with small inputs.
var minParallelAggLen = 1024

// stableSortTuples sorts tuples by cmp with the exact semantics of
// slices.SortStableFunc. With workers > 1 and enough input it runs a partitioned
// sort: contiguous chunks are stable-sorted in parallel (on pool; nil = the
// package default) and then k-way merged, breaking ties toward the lower
// chunk index — which reproduces the serial stable order bit-for-bit.
func stableSortTuples(tuples []sortedTuple, cmp func(a, b sortedTuple) int, workers int, pool *par.Pool) []sortedTuple {
	n := len(tuples)
	if workers <= 1 || n < minParallelSortLen {
		slices.SortStableFunc(tuples, cmp)
		return tuples
	}
	bounds := par.Split(n, workers)
	chunks := make([][]sortedTuple, len(bounds)-1)
	pool.Do(workers, len(chunks), func(i int) {
		chunks[i] = tuples[bounds[i]:bounds[i+1]]
		slices.SortStableFunc(chunks[i], cmp)
	})
	// K-way merge. Ties resolve to the lowest chunk index (only a strictly
	// smaller head displaces the current best), so equal keys are emitted in
	// original arrival order — the stability contract.
	out := make([]sortedTuple, 0, n)
	heads := make([]int, len(chunks))
	for len(out) < n {
		best := -1
		for ci := range chunks {
			if heads[ci] >= len(chunks[ci]) {
				continue
			}
			if best < 0 || cmp(chunks[ci][heads[ci]], chunks[best][heads[best]]) < 0 {
				best = ci
			}
		}
		out = append(out, chunks[best][heads[best]])
		heads[best]++
	}
	return out
}

// Partitioning by key hash (h % parts on the precomputed 64-bit key hash,
// see hashtab.go) means each group/build bucket is owned by exactly one
// worker and no cross-worker combine of per-key state is ever needed.
