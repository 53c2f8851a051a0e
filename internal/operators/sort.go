package operators

import (
	"math"
	"slices"

	"shareddb/internal/expr"
	"shareddb/internal/queryset"
	"shareddb/internal/types"
)

// SortOp is the shared sort / shared Top-N operator (paper §3.4, Figure 4):
// one buffer over the union of all subscribed queries' tuples, ordered once
// and routed per query in order. Top-N is "an extension of the sort
// operator": per-query limits cut each query's output after its N rows, so
// plain ORDER BY queries and LIMIT queries share the same node.
//
// Tuples may arrive on multiple streams with different schemas; per-stream
// key extractors evaluate the (semantically identical) sort key on each.
//
// Consume buffers every tuple with its extracted key vector and counts each
// query's candidates nᵢ. Finish never moves tuples — it orders int32 indices
// into that buffer by (keys, arrival index), a strict total order equal to
// the stable sort order — and picks one of two regimes from the measured
// overlap, the paper's f(o) vs Σf(nᵢ) rule (§3.5) with f the comparison
// count of each regime:
//
//   - Selection: every active query has a LIMIT and Σ selectionCost(nᵢ, kᵢ)
//     ≤ o·log₂o (o = the buffered tuples). Sharing the sort would cost more
//     than serving each query alone, so each query keeps a bounded max-heap
//     of its best LIMIT indices — one compare against the heap root rejects
//     most candidates — and emits them in order with a singleton query set.
//   - Shared sort: otherwise (an unlimited query, or enough overlap that one
//     sort of o tuples beats Σnᵢ heap offers). One sort of the index
//     permutation, then in-order routing that stops as soon as every Top-N
//     query has its rows.
//
// Both emit, per query, exactly the stable-sort-then-cut sequence. The
// buffer, the flat key arena, the permutation and the heaps are owned by the
// operator and reused across cycles, so a steady-state cycle allocates
// nothing.
type SortOp struct {
	Streams map[int]SortStream // key extraction per input stream

	// cycle state, reused across cycles (one cycle at a time per node)
	st        sortState
	cmp       func(a, b int32) int // s.compare, bound once: a fresh method value per Finish would escape into the sort
	qsScratch []queryset.QueryID   // shared-sort routing scratch
	single    [1]queryset.QueryID
}

// SortStream configures one input stream of a shared sort.
type SortStream struct {
	Keys      []SortKey
	OutStream int // usually the input stream id (schema unchanged)
}

// SortKey is one sort key over a stream's schema.
type SortKey struct {
	E    expr.Expr
	Desc bool
}

// SortSpec is the per-query activation: the query's row limit (Top-N), or
// <= 0 for unlimited (plain ORDER BY).
type SortSpec struct {
	Limit int
}

// sortEntry is one buffered tuple with the stream its copies go out on.
type sortEntry struct {
	t   Tuple
	out int
}

// sortState is per-cycle; kept on the operator (one cycle at a time per
// node).
type sortState struct {
	buf  []sortEntry   // arrival order; Finish never reorders it
	keys []types.Value // flat: entry i's key vector is keys[i*nk : (i+1)*nk]
	nk   int           // sort keys per tuple
	desc []bool        // the shared key direction flags, hoisted at Start

	limits     []int // dense by generation-scoped query id; <= 0 = unlimited
	allLimited bool  // every active query carries a LIMIT
	cands      []int // buffered candidates per query (nᵢ), dense like limits

	perm   []int32   // shared sort: the index permutation
	counts []int     // shared sort: rows routed so far, dense by query id
	heaps  [][]int32 // selection: per-query bounded max-heaps of buffer indices
}

// Start initializes the sort buffer and per-query limits.
func (s *SortOp) Start(c *Cycle) {
	st := &s.st
	s.release()
	if s.cmp == nil {
		s.cmp = s.compare
	}
	st.limits = zeroed(st.limits, maxQuery(c.Tasks)+1)
	st.cands = zeroed(st.cands, len(st.limits))
	st.allLimited = len(c.Tasks) > 0
	for _, t := range c.Tasks {
		spec, _ := t.Spec.(SortSpec)
		st.limits[t.Query] = spec.Limit
		if spec.Limit <= 0 {
			st.allLimited = false
		}
	}
	// Keys (count and Desc flags) are part of the operator's sharing
	// signature, so every stream has the same shape; hoist the first
	// stream's.
	st.desc = st.desc[:0]
	for _, cfg := range s.Streams {
		for _, k := range cfg.Keys {
			st.desc = append(st.desc, k.Desc)
		}
		break
	}
	st.nk = len(st.desc)
}

// limit returns query q's row cap (<= 0 = unlimited).
func (st *sortState) limit(q queryset.QueryID) int {
	if int(q) >= len(st.limits) {
		return 0
	}
	return st.limits[q]
}

// Consume buffers tuples with their extracted sort keys (ProcessTuple of
// Algorithm 1 for a blocking operator: "append the tuple to a buffer
// structure ... the same buffer structure is used for all the queries that
// belong to the same batch"). The batch is retained: buffered tuples alias
// its rows and query sets until Finish drains them.
func (s *SortOp) Consume(c *Cycle, b *Batch) {
	cfg, ok := s.Streams[b.Stream]
	if !ok {
		return
	}
	c.Retain(b)
	st := &s.st
	for ti := range b.Tuples {
		t := &b.Tuples[ti]
		for _, k := range cfg.Keys {
			st.keys = append(st.keys, k.E.Eval(t.Row, nil))
		}
		st.buf = append(st.buf, sortEntry{t: *t, out: cfg.OutStream})
		for _, q := range t.QS.IDs() {
			if int(q) < len(st.cands) {
				st.cands[q]++
			}
		}
	}
}

// selectionCost estimates the key comparisons a bounded heap of limit k
// spends on n candidates arriving in random order: one compare against the
// root each, plus a sift — log₂ of the heap size — for the first k and for
// the k·ln(n/k) later ones expected to displace the root.
func selectionCost(n, k int) float64 {
	if n == 0 {
		return 0
	}
	h := float64(min(n, k))
	return float64(n) + h*math.Log2(1+h)*(1+math.Log(float64(n)/h))
}

// compare orders two buffered tuples by (sort keys, arrival index): the
// stable sort order as a strict total order over buffer indices.
func (s *SortOp) compare(a, b int32) int {
	st := &s.st
	ka, kb := st.keys[int(a)*st.nk:], st.keys[int(b)*st.nk:]
	for i, desc := range st.desc {
		d := ka[i].Compare(kb[i])
		if d == 0 {
			continue
		}
		if desc {
			return -d
		}
		return d
	}
	return int(a - b)
}

// Finish picks the regime from the cycle's measured overlap (see SortOp) and
// emits every query's rows in order.
func (s *SortOp) Finish(c *Cycle) {
	st := &s.st
	if len(st.buf) > 0 {
		if s.selectionWins() {
			s.finishSelection(c)
		} else {
			s.finishSharedSort(c)
		}
	}
	s.release()
}

// selectionWins is the regime selector: per-query selection is possible
// (every active query has a LIMIT) and estimated cheaper than one shared
// sort of the buffer.
func (s *SortOp) selectionWins() bool {
	st := &s.st
	if !st.allLimited {
		return false
	}
	o := float64(len(st.buf))
	budget, cost := o*math.Log2(o), 0.0
	for q, n := range st.cands {
		if st.limits[q] <= 0 {
			continue // an id gap, not a query of this cycle
		}
		if cost += selectionCost(n, st.limits[q]); cost > budget {
			return false
		}
	}
	return true
}

// finishSelection serves each query from its own bounded max-heap: heap[0]
// is the worst retained index, a candidate is admitted iff the heap is not
// full or it sorts strictly before the root. compare is a strict total
// order, so the heap retains exactly the LIMIT minima a stable sort followed
// by a cut would — ties straddling the cut resolve by arrival.
func (s *SortOp) finishSelection(c *Cycle) {
	st := &s.st
	for len(st.heaps) < len(st.limits) {
		st.heaps = append(st.heaps, nil)
	}
	for i := range st.buf {
		cand := int32(i)
		for _, q := range st.buf[i].t.QS.IDs() {
			lim := st.limit(q)
			if lim <= 0 {
				continue // not registered this cycle
			}
			h := st.heaps[q]
			if len(h) < lim {
				h = append(h, cand)
				st.heaps[q] = h
				for k := len(h) - 1; k > 0; {
					p := (k - 1) / 2
					if s.compare(h[k], h[p]) <= 0 {
						break
					}
					h[k], h[p] = h[p], h[k]
					k = p
				}
				continue
			}
			if s.compare(cand, h[0]) >= 0 {
				continue // at or after the worst retained: reject
			}
			h[0] = cand
			for k, n := 0, len(h); ; {
				l, r, m := 2*k+1, 2*k+2, k
				if l < n && s.compare(h[l], h[m]) > 0 {
					m = l
				}
				if r < n && s.compare(h[r], h[m]) > 0 {
					m = r
				}
				if m == k {
					break
				}
				h[k], h[m] = h[m], h[k]
				k = m
			}
		}
	}
	for q, h := range st.heaps {
		if len(h) == 0 {
			continue
		}
		slices.SortFunc(h, s.cmp)
		s.single[0] = queryset.QueryID(q)
		for _, i := range h {
			e := &st.buf[i]
			c.Emit(e.out, e.t.Row, queryset.FromSorted(s.single[:1]))
		}
	}
}

// finishSharedSort is the shared sort of Figure 4: one sort of the index
// permutation for all queries, then per-query routing in order with Top-N
// counters. cmp is a strict total order (keys, then arrival index), so the
// unstable sort yields the stable order.
func (s *SortOp) finishSharedSort(c *Cycle) {
	st := &s.st
	perm := st.perm[:0]
	for i := range st.buf {
		perm = append(perm, int32(i))
	}
	slices.SortFunc(perm, s.cmp)
	st.perm = perm

	st.counts = zeroed(st.counts, len(st.limits))
	counts := st.counts
	remaining := 0
	unlimited := false
	// Count from the cycle's tasks, not the dense limits slice: its gap
	// entries (ids not registered at this node, incl. the unused id 0) are
	// zero and would read as "some query is unlimited", disabling the
	// every-Top-N-satisfied early exit below.
	for _, tk := range c.Tasks {
		if st.limit(tk.Query) > 0 {
			remaining++
		} else {
			unlimited = true
		}
	}
	keep := func(q queryset.QueryID) bool {
		lim := st.limit(q)
		if lim <= 0 {
			return true
		}
		if counts[q] >= lim {
			return false
		}
		counts[q]++
		if counts[q] == lim {
			remaining--
		}
		return true
	}
	for _, i := range st.perm {
		e := &st.buf[i]
		qs := e.t.QS.RetainInto(keep, s.qsScratch)
		s.qsScratch = qs.IDs()
		if !qs.Empty() {
			c.Emit(e.out, e.t.Row, qs)
		}
		if !unlimited && remaining == 0 {
			break // every Top-N query satisfied
		}
	}
}

// release drops the cycle's buffered tuple references so retained input
// batches recycle without pinned rows, keeping buffer capacity for the next
// cycle.
func (s *SortOp) release() {
	st := &s.st
	clear(st.buf)
	st.buf = st.buf[:0]
	clear(st.keys)
	st.keys = st.keys[:0]
	for q := range st.heaps {
		st.heaps[q] = st.heaps[q][:0]
	}
}
