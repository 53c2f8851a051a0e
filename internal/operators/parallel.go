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

// sortIndexPerm sorts perm — indices into the shared sort's buffer — by cmp,
// which must be a strict total order (the sort's (keys, arrival index)
// order), so the result is the stable sort order whichever way it is
// computed. With workers > 1 and enough input, contiguous chunks are sorted
// in parallel (on pool; nil = the package default) and k-way merged into
// scratch. Returns the sorted permutation and the slice to keep as the next
// call's scratch.
func sortIndexPerm(perm, scratch []int32, cmp func(a, b int32) int, workers int, pool *par.Pool) (sorted, nextScratch []int32) {
	n := len(perm)
	if workers <= 1 || n < minParallelSortLen {
		slices.SortFunc(perm, cmp)
		return perm, scratch
	}
	bounds := par.Split(n, workers)
	pool.Do(workers, len(bounds)-1, func(i int) {
		slices.SortFunc(perm[bounds[i]:bounds[i+1]], cmp)
	})
	// K-way merge: bounds[ci] advances through chunk ci up to its end.
	ends := slices.Clone(bounds[1:])
	out := scratch[:0]
	for len(out) < n {
		best := -1
		for ci, end := range ends {
			if bounds[ci] < end && (best < 0 || cmp(perm[bounds[ci]], perm[bounds[best]]) < 0) {
				best = ci
			}
		}
		out = append(out, perm[bounds[best]])
		bounds[best]++
	}
	return out, perm
}

// partitionByKeyHash is the partition step shared by the group-by's
// partitioned aggregation and the join's parallel build: the buffered batches
// are split into contiguous chunks, one per worker; each worker hashes every
// tuple's key columns (cols(stream)) and files a (hash, batch, tuple)
// reference under one of c.Workers key-hash buckets in part[chunk][bucket].
// Chunks are contiguous, so reading a bucket's references in chunk order
// preserves tuple arrival order, and a key hashes to exactly one bucket, so
// each bucket is owned by one worker and no cross-worker combine of per-key
// state is ever needed. References carry no pointers: part is scratch the
// operator keeps across cycles without pinning rows. Returns the (possibly
// grown) scratch and the chunk count.
func partitionByKeyHash(c *Cycle, pending []*Batch, part [][][]tupleRef, cols func(stream int) []int) ([][][]tupleRef, int) {
	workers := c.Workers
	chunkBounds := par.Split(len(pending), workers)
	nchunks := len(chunkBounds) - 1
	for len(part) < nchunks {
		part = append(part, nil)
	}
	c.Pool.Do(workers, nchunks, func(ci int) {
		buckets := part[ci]
		for len(buckets) < workers {
			buckets = append(buckets, nil)
		}
		for bi := range buckets {
			buckets[bi] = buckets[bi][:0]
		}
		for bi := chunkBounds[ci]; bi < chunkBounds[ci+1]; bi++ {
			keyCols := cols(pending[bi].Stream)
			for ti, t := range pending[bi].Tuples {
				h := hashValues(t.Row, keyCols)
				k := h % uint64(workers)
				buckets[k] = append(buckets[k], tupleRef{hash: h, batch: int32(bi), tuple: int32(ti)})
			}
		}
		part[ci] = buckets
	})
	return part, nchunks
}
