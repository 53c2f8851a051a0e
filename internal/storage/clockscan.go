package storage

import (
	"slices"
	"sort"

	"shareddb/internal/expr"
	"shareddb/internal/par"
	"shareddb/internal/queryset"
	"shareddb/internal/types"
)

// ClockScan is the shared table scan of the Crescando storage manager
// (Unterbrunner et al., cited as [28]; paper §4.4). It batches the read
// queries of one cycle and answers all of them in a single pass over the
// table. "Performance is increased by indexing the query predicates instead
// of the data and performing query-data joins": equality predicates are
// hashed by (column, value) and range predicates are kept in per-column
// interval lists sorted by lower bound, so each record is matched against
// the whole query batch in (near-)constant time instead of evaluating every
// query's predicate on every record.
//
// The scan produces rows in SharedDB's data-query model: each emitted row
// carries the set of query ids interested in it (paper §3.1, Figure 1).

// ScanClient is one read query participating in a scan cycle.
type ScanClient struct {
	ID   queryset.QueryID
	Pred expr.Expr // bound predicate over the table schema; nil = all rows
}

// eqProbe is a query hanging off an equality predicate index entry. val is
// the pinned column value: the index is keyed by the value's 64-bit hash
// (no per-row key encoding), so hash collisions are resolved by comparing
// against val.
type eqProbe struct {
	id       queryset.QueryID
	val      types.Value
	residual expr.Expr
}

// rangeProbe is a query indexed by a range predicate on one column.
type rangeProbe struct {
	rng      expr.Range
	id       queryset.QueryID
	residual expr.Expr
}

// predIndex is the per-cycle query index of a ClockScan.
type predIndex struct {
	// eq[col][hash(value)] → queries whose predicate pins col to a value
	// with that hash (collisions verified against eqProbe.val, so row
	// matching never encodes a key).
	eq map[int]map[uint64][]eqProbe
	// ranges[col] → queries with an interval constraint on col, sorted by
	// lower bound (unbounded first) for early termination.
	ranges map[int][]rangeProbe
	// rest: queries that could not be indexed (disjunctions, LIKE-only, no
	// predicate); evaluated per record.
	rest []eqProbe
}

// buildPredIndex classifies every client by its most selective indexable
// conjunct.
func buildPredIndex(clients []ScanClient) *predIndex {
	pi := &predIndex{eq: map[int]map[uint64][]eqProbe{}, ranges: map[int][]rangeProbe{}}
	for _, c := range clients {
		conjs := expr.Conjuncts(c.Pred)
		// Prefer an equality conjunct; otherwise a range conjunct.
		eqAt := -1
		rngAt := -1
		for i, cj := range conjs {
			if _, _, ok := expr.EqualityMatch(cj); ok {
				eqAt = i
				break
			}
			if rngAt < 0 {
				if _, ok := expr.RangeMatch(cj); ok {
					rngAt = i
				}
			}
		}
		switch {
		case eqAt >= 0:
			col, val, _ := expr.EqualityMatch(conjs[eqAt])
			residual := expr.AndOf(removeAt(conjs, eqAt))
			m := pi.eq[col]
			if m == nil {
				m = map[uint64][]eqProbe{}
				pi.eq[col] = m
			}
			h := val.Hash()
			m[h] = append(m[h], eqProbe{id: c.ID, val: val, residual: residual})
		case rngAt >= 0:
			rng, _ := expr.RangeMatch(conjs[rngAt])
			residual := expr.AndOf(removeAt(conjs, rngAt))
			pi.ranges[rng.Col] = append(pi.ranges[rng.Col], rangeProbe{rng: rng, id: c.ID, residual: residual})
		default:
			pi.rest = append(pi.rest, eqProbe{id: c.ID, residual: c.Pred})
		}
	}
	for col := range pi.ranges {
		rs := pi.ranges[col]
		sort.SliceStable(rs, func(i, j int) bool {
			li, lj := rs[i].rng.Lo, rs[j].rng.Lo
			if li.IsNull() != lj.IsNull() {
				return li.IsNull() // unbounded lower bounds first
			}
			if li.IsNull() {
				return false
			}
			return li.Compare(lj) < 0
		})
	}
	return pi
}

func removeAt(conjs []expr.Expr, i int) []expr.Expr {
	out := make([]expr.Expr, 0, len(conjs)-1)
	out = append(out, conjs[:i]...)
	out = append(out, conjs[i+1:]...)
	return out
}

// match collects the ids of all queries interested in row into buf.
func (pi *predIndex) match(row types.Row, buf []queryset.QueryID) []queryset.QueryID {
	for col, m := range pi.eq {
		v := row[col]
		if probes, ok := m[v.Hash()]; ok {
			for _, p := range probes {
				if p.val.Equal(v) && expr.TruthyEval(p.residual, row, nil) {
					buf = append(buf, p.id)
				}
			}
		}
	}
	for col, probes := range pi.ranges {
		v := row[col]
		for _, p := range probes {
			// probes are sorted by lower bound: once Lo > v no later probe
			// can match.
			if !p.rng.Lo.IsNull() && v.Compare(p.rng.Lo) < 0 {
				break
			}
			if p.rng.Contains(v) && expr.TruthyEval(p.residual, row, nil) {
				buf = append(buf, p.id)
			}
		}
	}
	for _, p := range pi.rest {
		if expr.TruthyEval(p.residual, row, nil) {
			buf = append(buf, p.id)
		}
	}
	return buf
}

// minParallelScanRows is the table size below which a partitioned scan
// runs serial regardless of the worker budget: a cycle over a tiny table
// never forks. A var so tests can lower it.
var minParallelScanRows = 1024

// scanHit is one row emitted by a scan partition, buffered so that
// per-partition output can be replayed in global row order.
type scanHit struct {
	rid RowID
	row types.Row
	qs  queryset.Set
}

// ScanBuffers is the reusable per-cycle state of a pooled shared scan: the
// match scratch, the per-partition hit buffers and the query-id arenas
// backing the emitted sets. One instance is owned by each scan operator
// node (one cycle at a time) and reused across generations, so the
// steady-state scan cycle allocates nothing per row.
type ScanBuffers struct {
	ids   []queryset.QueryID
	parts []partScratch
}

// partScratch is one partition's reusable buffers in a parallel pooled
// scan.
type partScratch struct {
	hits  []scanHit
	arena queryset.Arena
	ids   []queryset.QueryID
}

// SharedScanPooled executes one ClockScan cycle: a single pass over the rows
// visible at snapshot ts answering every client at once. emit receives each
// row that at least one client wants, together with the interested query-id
// set (the data-query model), in RowID order.
//
// With workers > 1 it runs partition-parallel (Crescando runs one scan
// thread per core over a partition of the table; paper §4.4): the table's
// row slots are split into `workers` contiguous ranges, every worker runs
// the same shared predicate index over its own range, and the per-partition
// hits are then emitted in partition order — which, because partitions are
// contiguous and ordered, is exactly the RowID order the serial scan
// produces. workers <= 1 (or a table below minParallelScanRows) scans
// serially.
//
// With caller-owned bufs (the always-on scan operator) the cycle allocates
// nothing per row: every emitted query set is borrowed from bufs — valid
// only during the emit callback — and the partition hit buffers are reused
// across generations; callers that retain a set must copy it (the operator
// emitter copies into its batch arena). bufs == nil is the unpooled
// contract: a private ScanBuffers is used and never reset afterwards, so
// emitted sets (arena-backed in the parallel regime, freshly copied in the
// serial one) stay valid indefinitely.
//
// In the parallel regime the table read lock is held across the whole pass
// (writers of later generations block, readers proceed); emission happens
// after the lock is released — version rows are immutable, so handing them
// out lock-free is safe.
func (t *Table) SharedScanPooled(ts uint64, clients []ScanClient, workers int, bufs *ScanBuffers, emit func(rid RowID, row types.Row, qs queryset.Set)) {
	if len(clients) == 0 {
		return
	}
	pi := buildPredIndex(clients)
	if workers > 1 && t.NumSlots() < minParallelScanRows {
		// Adaptive budget: forking workers over a tiny table costs more than
		// the scan itself; run serial (identical output order either way).
		workers = 1
	}
	if workers <= 1 {
		pooled := bufs != nil
		if !pooled {
			bufs = &ScanBuffers{}
		}
		t.ScanVisible(ts, func(rid RowID, row types.Row) bool {
			bufs.ids = pi.match(row, bufs.ids[:0])
			if len(bufs.ids) > 0 {
				if pooled {
					// Borrowed: sorted in place, valid during emit only.
					// Ids are unique by construction (every client is
					// indexed under exactly one conjunct class).
					slices.Sort(bufs.ids)
					emit(rid, row, queryset.FromSorted(bufs.ids))
				} else {
					emit(rid, row, queryset.Of(bufs.ids...))
				}
			}
			return true
		})
		return
	}
	reused := bufs != nil
	if !reused {
		bufs = &ScanBuffers{}
	}
	t.mu.RLock()
	bounds := par.Split(len(t.slots), workers)
	nparts := len(bounds) - 1
	for len(bufs.parts) < nparts {
		bufs.parts = append(bufs.parts, partScratch{})
	}
	par.Do(workers, nparts, func(w int) {
		ps := &bufs.parts[w]
		ps.arena.Reset()
		hits := ps.hits[:0]
		for rid := bounds[w]; rid < bounds[w+1]; rid++ {
			for v := t.slots[rid]; v != nil; v = v.older {
				if v.beginTS <= ts && ts < v.endTS {
					ps.ids = pi.match(v.row, ps.ids[:0])
					if len(ps.ids) > 0 {
						slices.Sort(ps.ids)
						hits = append(hits, scanHit{rid: RowID(rid), row: v.row, qs: ps.arena.Append(queryset.FromSorted(ps.ids))})
					}
					break
				}
			}
		}
		ps.hits = hits
	})
	t.mu.RUnlock()
	for w := 0; w < nparts; w++ {
		for _, h := range bufs.parts[w].hits {
			emit(h.rid, h.row, h.qs)
		}
		if reused {
			// Drop row references promptly; the arena is reset next cycle.
			clear(bufs.parts[w].hits)
			bufs.parts[w].hits = bufs.parts[w].hits[:0]
		}
	}
}
