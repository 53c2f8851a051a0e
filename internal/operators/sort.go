package operators

import (
	"math"
	"slices"
	"sync/atomic"

	"shareddb/internal/expr"
	"shareddb/internal/queryset"
	"shareddb/internal/storage"
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
//
// A stream may carry a deferred join (SortStream.Lookup): its tuples are the
// outer side of a unique-index join whose sort keys read only outer columns,
// so the sort orders the outer rows and joins only the rows it emits. Each
// outer row joins at most one inner row, so "join, stable sort, cut" equals
// "stable sort by (keys, arrival), skip rows that join nothing, cut". The
// selection regime looks up every retained row, in key order under one read
// lock per lookup stream, and falls back to the shared sort for the whole
// cycle if any of them joins nothing (a NULL key or no visible inner row):
// its heaps would then hold too few rows. The shared sort's walk looks rows
// up when it reaches them, never one whose queries are all full, and skips
// a row that joins nothing without counting it toward any limit; it looks
// up, together, the run of rows it would take if all of them joined
// (prefetch). Join rows come from the generation's row arena, at most one
// per buffered row per cycle.
type SortOp struct {
	Streams map[int]SortStream // key extraction per input stream
	// Lookups lays out the deferred joins by input stream: the join key
	// columns in the stream's rows, the out-stream and its carried columns
	// (the plan appends those at Prepare time, like a join's).
	Lookups map[int]JoinOuter

	// cycle state, reused across cycles (one cycle at a time per node)
	st        sortState
	cmp       func(a, b int32) int // s.compare, bound once: a fresh method value per Finish would escape into the sort
	qsScratch []queryset.QueryID   // shared-sort routing scratch
	single    [1]queryset.QueryID
	seek      indexSeek // deferred-join look-ups

	lookupCycles, lookupMisses atomic.Uint64 // see LookupCycles
}

// SortStream configures one input stream of a shared sort.
type SortStream struct {
	Keys      []SortKey
	OutStream int // usually the input stream id (schema unchanged); a lookup stream's join out-stream
	// Lookup, when non-nil, is the inner side of the join deferred past the
	// cut on this stream; Lookups[stream] lays out its rows.
	Lookup *IndexLookup
}

// IndexLookup is the inner side of a join a sort defers past its cut: a
// unique index over exactly the join key columns, so an outer row joins at
// most one inner row.
type IndexLookup struct {
	Table *storage.Table
	Index *storage.Index
}

// LookupCycles reports how many cycles buffered rows of a deferred join and
// how many of those the selection regime handed to the shared sort because
// a retained row joined nothing.
func (s *SortOp) LookupCycles() (cycles, misses uint64) {
	return s.lookupCycles.Load(), s.lookupMisses.Load()
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

// sortEntry is one buffered tuple with the stream its copies go out on and
// its deferred join (an index into sortState.looks; -1 = none).
type sortEntry struct {
	t   Tuple
	out int
	lk  int32
}

// sortLookup is one lookup stream of the cycle.
type sortLookup struct {
	stream int
	IndexLookup
	join JoinOuter
	// the retained rows the selection regime has yet to look up: their
	// outer tuples and buffer indices
	tuples []Tuple
	idx    []int32
}

// Look-up states of a lookup stream's buffered row (sortState.status).
const (
	lookupPending int8 = iota
	lookupQueued       // collected for the selection regime's look-up pass
	lookupHit
	lookupMiss
)

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
	sim    []int     // shared sort: counts scratch for a look-up prefetch
	heaps  [][]int32 // selection: per-query bounded max-heaps of buffer indices

	looks  []sortLookup // the cycle's lookup streams (sortEntry.lk)
	status []int8       // per buffered row: its look-up state, sized on first look-up
	joined []types.Row  // per buffered row: its join row once looked up and hit
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
	lk := int32(-1)
	if cfg.Lookup != nil {
		lk = s.lookupFor(b.Stream, cfg.Lookup)
	}
	for ti := range b.Tuples {
		t := &b.Tuples[ti]
		for _, k := range cfg.Keys {
			st.keys = append(st.keys, k.E.Eval(t.Row, nil))
		}
		st.buf = append(st.buf, sortEntry{t: *t, out: cfg.OutStream, lk: lk})
		for _, q := range t.QS.IDs() {
			if int(q) < len(st.cands) {
				st.cands[q]++
			}
		}
	}
}

// lookupFor returns the index of stream's entry in the cycle's lookup
// streams, adding it on the stream's first batch.
func (s *SortOp) lookupFor(stream int, in *IndexLookup) int32 {
	st := &s.st
	for i := range st.looks {
		if st.looks[i].stream == stream {
			return int32(i)
		}
	}
	n := len(st.looks)
	if n < cap(st.looks) {
		st.looks = st.looks[:n+1] // keep the earlier cycle's scratch
	} else {
		st.looks = append(st.looks, sortLookup{})
	}
	lk := &st.looks[n]
	lk.stream, lk.IndexLookup, lk.join = stream, *in, s.Lookups[stream]
	return int32(n)
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
		if len(st.looks) > 0 {
			s.lookupCycles.Add(1)
		}
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
// by a cut would — ties straddling the cut resolve by arrival. A retained
// row of a lookup stream that joins nothing hands the cycle to the shared
// sort.
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
	if len(st.looks) > 0 {
		st.sizeMemo()
		for _, h := range st.heaps {
			for _, i := range h {
				st.queue(i)
			}
		}
		if !s.lookUpQueued(c) {
			s.lookupMisses.Add(1)
			s.finishSharedSort(c)
			return
		}
	}
	for q, h := range st.heaps {
		if len(h) == 0 {
			continue
		}
		slices.SortFunc(h, s.cmp)
		s.single[0] = queryset.QueryID(q)
		for _, i := range h {
			row, _ := st.row(i)
			c.Emit(st.buf[i].out, row, queryset.FromSorted(s.single[:1]))
		}
	}
}

// sizeMemo gives every buffered row a look-up state, once per cycle.
func (st *sortState) sizeMemo() {
	if len(st.status) != len(st.buf) {
		st.status = zeroed(st.status, len(st.buf))
		st.joined = zeroed(st.joined, len(st.buf))
	}
}

// queue collects buffered row i for the next look-up pass, if it is a
// lookup-stream row not looked up yet.
func (st *sortState) queue(i int32) {
	e := &st.buf[i]
	if e.lk < 0 || st.status[i] != lookupPending {
		return
	}
	st.status[i] = lookupQueued
	lk := &st.looks[e.lk]
	lk.tuples = append(lk.tuples, e.t)
	lk.idx = append(lk.idx, i)
}

// lookUpQueued looks up the queued rows, per lookup stream in key order
// under one read lock of its table, and reports whether all of them joined.
// The join rows are gathered under the lock: at most one per row, the index
// being unique.
func (s *SortOp) lookUpQueued(c *Cycle) bool {
	st := &s.st
	all := true
	for k := range st.looks {
		lk := &st.looks[k]
		if len(lk.idx) == 0 {
			continue
		}
		l := lk.Table.RLock()
		cur := l.IndexCursor(lk.Index, c.TS)
		s.seek.run(&cur, lk.tuples, lk.join.KeyCols)
		for n, i := range lk.idx {
			if sp := s.seek.spans[n]; sp.lo == sp.hi {
				st.status[i], all = lookupMiss, false
			} else {
				st.joined[i] = lk.join.gather(c, st.buf[i].t.Row, s.seek.rows[sp.lo])
				st.status[i] = lookupHit
			}
		}
		s.seek.done()
		l.Unlock()
		clear(lk.tuples)
		lk.tuples, lk.idx = lk.tuples[:0], lk.idx[:0]
	}
	return all
}

// row returns what buffered row i emits: its own row, or on a lookup stream
// the join row its look-up gathered (ok = false: it joins nothing).
func (st *sortState) row(i int32) (types.Row, bool) {
	if st.buf[i].lk < 0 {
		return st.buf[i].t.Row, true
	}
	return st.joined[i], st.status[i] == lookupHit
}

// quota is a shared-sort walk's Top-N accounting.
type quota struct {
	counts    []int // rows routed so far, dense by query id
	remaining int   // limited queries not yet full
	unlimited bool  // some query has no limit: the walk runs to the end
}

// take charges one row to query q and reports whether q takes it.
func (st *sortState) take(w *quota, q queryset.QueryID) bool {
	lim := st.limit(q)
	if lim <= 0 {
		return true
	}
	if w.counts[q] >= lim {
		return false
	}
	w.counts[q]++
	if w.counts[q] == lim {
		w.remaining--
	}
	return true
}

// done reports that every query has its rows.
func (w *quota) done() bool { return !w.unlimited && w.remaining == 0 }

// wanted reports whether some query of qs still takes rows.
func (st *sortState) wanted(w *quota, qs queryset.Set) bool {
	for _, q := range qs.IDs() {
		if lim := st.limit(q); lim <= 0 || w.counts[q] < lim {
			return true
		}
	}
	return false
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
	if len(st.looks) > 0 {
		st.sizeMemo()
	}

	st.counts = zeroed(st.counts, len(st.limits))
	w := quota{counts: st.counts}
	// Count from the cycle's tasks, not the dense limits slice: its gap
	// entries (ids not registered at this node, incl. the unused id 0) are
	// zero and would read as "some query is unlimited", disabling the
	// every-Top-N-satisfied early exit below.
	for _, tk := range c.Tasks {
		if st.limit(tk.Query) > 0 {
			w.remaining++
		} else {
			w.unlimited = true
		}
	}
	keep := func(q queryset.QueryID) bool { return st.take(&w, q) }
	for p, i := range st.perm {
		e := &st.buf[i]
		if e.lk >= 0 {
			if !st.wanted(&w, e.t.QS) {
				continue // every query of the row is full: no look-up
			}
			if st.status[i] == lookupPending {
				s.prefetch(c, p, w)
			}
		}
		row, hit := st.row(i)
		if !hit {
			continue // joins nothing: counts toward no limit
		}
		qs := e.t.QS.RetainInto(keep, s.qsScratch)
		s.qsScratch = qs.IDs()
		if !qs.Empty() {
			c.Emit(e.out, row, qs)
		}
		if w.done() {
			break // every Top-N query satisfied
		}
	}
}

// prefetch looks up, together, every lookup row the walk from perm position
// p on would take if each row it reaches joined: the rows it can emit before
// a miss changes its course. w is the walk's accounting at p; a later miss
// leaves rows past this prefix pending, and the walk prefetches again when
// it reaches one.
func (s *SortOp) prefetch(c *Cycle, p int, w quota) {
	st := &s.st
	st.sim = append(st.sim[:0], w.counts...)
	w.counts = st.sim
	for _, i := range st.perm[p:] {
		e := &st.buf[i]
		if e.lk >= 0 && st.status[i] == lookupMiss {
			continue
		}
		took := false
		for _, q := range e.t.QS.IDs() {
			took = st.take(&w, q) || took
		}
		if took {
			st.queue(i)
		}
		if w.done() {
			break
		}
	}
	s.lookUpQueued(c)
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
	st.looks = st.looks[:0]
	clear(st.status)
	st.status = st.status[:0]
	clear(st.joined)
	st.joined = st.joined[:0]
	for q := range st.heaps {
		st.heaps[q] = st.heaps[q][:0]
	}
}
