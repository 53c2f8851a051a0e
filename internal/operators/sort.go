package operators

import (
	"slices"

	"shareddb/internal/expr"
	"shareddb/internal/queryset"
	"shareddb/internal/types"
)

// SortOp is the shared sort / shared Top-N operator (paper §3.4, Figure 4):
// one big sort over the union of all subscribed queries' tuples, followed by
// per-query routing that preserves order. Top-N is "an extension of the sort
// operator": the shared phase sorts everything, then per-query counters cut
// each query's output after its N rows — so plain ORDER BY queries and
// LIMIT queries share the same sort.
//
// Tuples may arrive on multiple streams with different schemas; per-stream
// key extractors evaluate the (semantically identical) sort key on each.
//
// The sort buffer, the flat arena backing extracted sort keys, and the
// per-query routing scratch are owned by the operator and reused across
// cycles, so steady-state buffering allocates only on high-water growth.
type SortOp struct {
	Streams map[int]SortStream // key extraction per input stream

	// cycle state, reused across cycles (one cycle at a time per node)
	st        sortState
	keyBuf    []types.Value      // flat arena: each tuple's keys are a clipped sub-slice
	qsScratch []queryset.QueryID // Top-N routing scratch
}

// SortStream configures one input stream of a shared sort.
type SortStream struct {
	Keys      []SortKey
	OutStream int // usually the input stream id (schema unchanged)

	// Singleton marks streams whose every tuple carries exactly one query
	// id — group-by output, which is per-(group, query) by construction.
	// When every stream is singleton and every active query has a LIMIT,
	// the sort runs in bounded Top-N heap mode (see Consume).
	Singleton bool
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

type sortedTuple struct {
	stream int
	t      Tuple
	keys   []types.Value
}

// sortState is per-cycle; kept on the operator (one cycle at a time per
// node).
type sortState struct {
	tuples []sortedTuple
	limits []int  // dense by generation-scoped query id; <= 0 = unlimited
	desc   []bool // the shared key direction flags, hoisted at Start

	// Bounded Top-N heap mode (the grouped Top-N pushdown): active when
	// every input stream is Singleton and every active query carries a
	// LIMIT. Instead of buffering the whole input for one big Finish sort,
	// Consume maintains a bounded max-heap of at most LIMIT entries per
	// query, ordered by (sort keys, arrival sequence) — a strict total
	// order, so the heap retains exactly the k minima that a stable
	// sort-then-cut would, and the sort never sees more than k rows per
	// query partition.
	heapOn bool
	heaps  []topnHeap // dense by generation-scoped query id
	seq    int64      // arrival counter: the stability tiebreak
}

// heapTuple is one bounded-heap entry; keys is entry-owned (reused when the
// entry is evicted and replaced).
type heapTuple struct {
	stream int
	t      Tuple
	keys   []types.Value
	seq    int64
}

// topnHeap is one query's bounded max-heap: ents[0] is the worst retained
// tuple in (keys, seq) order; a candidate is admitted iff the heap is not
// full or the candidate beats the root.
type topnHeap struct {
	lim  int
	ents []heapTuple
}

// cycle state
func (s *SortOp) state(c *Cycle) *sortState { return c.opState.(*sortState) }

// Start initializes the sort buffer and per-query limits.
func (s *SortOp) Start(c *Cycle) {
	st := &s.st
	clear(st.tuples)
	st.tuples = st.tuples[:0]
	s.keyBuf = s.keyBuf[:0]
	maxID := queryset.QueryID(0)
	for _, t := range c.Tasks {
		if t.Query > maxID {
			maxID = t.Query
		}
	}
	if cap(st.limits) < int(maxID)+1 {
		st.limits = make([]int, int(maxID)+1)
	}
	st.limits = st.limits[:int(maxID)+1]
	clear(st.limits)
	allLimited := len(c.Tasks) > 0
	for _, t := range c.Tasks {
		spec, _ := t.Spec.(SortSpec)
		st.limits[t.Query] = spec.Limit
		if spec.Limit <= 0 {
			allLimited = false
		}
	}
	// Desc flags are part of the operator's sharing signature, so every
	// stream has identical flags; hoist the first stream's.
	st.desc = st.desc[:0]
	allSingleton := len(s.Streams) > 0
	for _, cfg := range s.Streams {
		if len(st.desc) == 0 {
			for _, k := range cfg.Keys {
				st.desc = append(st.desc, k.Desc)
			}
		}
		if !cfg.Singleton {
			allSingleton = false
		}
	}
	st.heapOn = allSingleton && allLimited
	if st.heapOn {
		if cap(st.heaps) < int(maxID)+1 {
			heaps := make([]topnHeap, int(maxID)+1)
			copy(heaps, st.heaps)
			st.heaps = heaps
		}
		st.heaps = st.heaps[:int(maxID)+1]
		for i := range st.heaps {
			st.heaps[i].lim = 0
		}
		for _, t := range c.Tasks {
			spec, _ := t.Spec.(SortSpec)
			st.heaps[t.Query].lim = spec.Limit
		}
		st.seq = 0
	}
	c.opState = st
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
	st := s.state(c)
	if st.heapOn {
		s.consumeHeap(st, cfg, b)
		return
	}
	for ti := range b.Tuples {
		t := &b.Tuples[ti]
		start := len(s.keyBuf)
		for _, k := range cfg.Keys {
			s.keyBuf = append(s.keyBuf, k.E.Eval(t.Row, nil))
		}
		keys := s.keyBuf[start:len(s.keyBuf):len(s.keyBuf)]
		st.tuples = append(st.tuples, sortedTuple{stream: b.Stream, t: *t, keys: keys})
	}
}

// consumeHeap is the bounded Top-N path of Consume: each singleton tuple is
// offered to its query's max-heap and admitted only while it beats the k-th
// best seen so far. Equivalence to the buffering path: a stable ascending
// sort followed by a cut at k emits the k minima of the strict total order
// (keys, arrival seq) — stability IS the seq tiebreak — and a bounded
// max-heap over the same order retains exactly those k minima.
func (s *SortOp) consumeHeap(st *sortState, cfg SortStream, b *Batch) {
	for ti := range b.Tuples {
		t := &b.Tuples[ti]
		seq := st.seq
		st.seq++
		q := t.QS.IDs()[0]
		if int(q) >= len(st.heaps) {
			continue // not registered this cycle
		}
		h := &st.heaps[q]
		if h.lim <= 0 {
			continue
		}
		start := len(s.keyBuf)
		for _, k := range cfg.Keys {
			s.keyBuf = append(s.keyBuf, k.E.Eval(t.Row, nil))
		}
		keys := s.keyBuf[start:len(s.keyBuf):len(s.keyBuf)]
		s.keyBuf = s.keyBuf[:start] // scratch only: the entry owns a copy
		if len(h.ents) < h.lim {
			i := len(h.ents)
			h.ents = append(h.ents, heapTuple{})
			e := &h.ents[i]
			e.stream, e.t, e.seq = b.Stream, *t, seq
			e.keys = append(e.keys[:0], keys...)
			// sift up
			for i > 0 {
				p := (i - 1) / 2
				if !st.heapAfter(&h.ents[i], &h.ents[p]) {
					break
				}
				h.ents[i], h.ents[p] = h.ents[p], h.ents[i]
				i = p
			}
			continue
		}
		root := &h.ents[0]
		cand := heapTuple{keys: keys, seq: seq}
		if !st.heapAfter(root, &cand) {
			continue // candidate sorts at-or-after the worst retained: reject
		}
		// replace the root, reusing its key backing, and sift down
		root.stream, root.t, root.seq = b.Stream, *t, seq
		root.keys = append(root.keys[:0], keys...)
		i, n := 0, len(h.ents)
		for {
			l, r := 2*i+1, 2*i+2
			m := i
			if l < n && st.heapAfter(&h.ents[l], &h.ents[m]) {
				m = l
			}
			if r < n && st.heapAfter(&h.ents[r], &h.ents[m]) {
				m = r
			}
			if m == i {
				break
			}
			h.ents[i], h.ents[m] = h.ents[m], h.ents[i]
			i = m
		}
	}
}

// heapAfter reports whether a sorts strictly after b in the cycle's
// (keys, seq) total order — "is worse than", the max-heap's priority.
func (st *sortState) heapAfter(a, b *heapTuple) bool {
	for i := range a.keys {
		d := a.keys[i].Compare(b.keys[i])
		if d == 0 {
			continue
		}
		if i < len(st.desc) && st.desc[i] {
			return d < 0
		}
		return d > 0
	}
	return a.seq > b.seq
}

// Finish sorts for all queries and emits in order with per-query Top-N
// filtering.
//
// Two regimes, per the paper's f(o) vs Σf(nᵢ) analysis (§3.5): when tuples
// are shared between queries, one big sort of the union is performed (the
// shared sort of Figure 4, f(o) < Σf(nᵢ) under overlap). When every tuple
// belongs to exactly one query — typical for group-by output, where rows
// are per-(group, query) — there is nothing to share (o = n, the paper's
// worst case), so the operator sorts each query's partition separately:
// same results, Σf(nᵢ) < f(n) work. Emission order only matters within a
// query, so partition-by-partition emission is equivalent.
func (s *SortOp) Finish(c *Cycle) {
	st := s.state(c)
	if st.heapOn {
		s.finishHeap(c, st)
		return
	}
	desc := st.desc
	cmp := func(a, b sortedTuple) int {
		for i := range a.keys {
			d := a.keys[i].Compare(b.keys[i])
			if d == 0 {
				continue
			}
			if i < len(desc) && desc[i] {
				return -d
			}
			return d
		}
		return 0
	}

	allSingleton := true
	for i := range st.tuples {
		if st.tuples[i].t.QS.Len() != 1 {
			allSingleton = false
			break
		}
	}

	if allSingleton {
		partitions := map[queryset.QueryID][]sortedTuple{}
		for _, sr := range st.tuples {
			q := sr.t.QS.IDs()[0]
			partitions[q] = append(partitions[q], sr)
		}
		if c.Workers > 1 && len(partitions) > 1 {
			// Data-parallel Finish (paper §4.2): the query partitions are
			// already disjoint, so each one sorts on its own worker; emission
			// stays on the cycle goroutine (the emitter is not concurrent).
			qids := make([]queryset.QueryID, 0, len(partitions))
			for q := range partitions {
				qids = append(qids, q)
			}
			slices.Sort(qids)
			parts := make([][]sortedTuple, len(qids))
			c.Pool.Do(c.Workers, len(qids), func(i int) {
				part := partitions[qids[i]]
				slices.SortStableFunc(part, cmp)
				if lim := st.limit(qids[i]); lim > 0 && len(part) > lim {
					part = part[:lim]
				}
				parts[i] = part
			})
			for _, part := range parts {
				for _, sr := range part {
					c.Emit(s.Streams[sr.stream].OutStream, sr.t.Row, sr.t.QS)
				}
			}
			s.release(st)
			c.opState = nil
			return
		}
		for q, part := range partitions {
			slices.SortStableFunc(part, cmp)
			lim := st.limit(q)
			if lim > 0 && len(part) > lim {
				part = part[:lim]
			}
			for _, sr := range part {
				c.Emit(s.Streams[sr.stream].OutStream, sr.t.Row, sr.t.QS)
			}
		}
		s.release(st)
		c.opState = nil
		return
	}

	st.tuples = stableSortTuples(st.tuples, cmp, c.Workers, c.Pool)
	counts := make([]int, len(st.limits))
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
	for i := range st.tuples {
		sr := &st.tuples[i]
		qs := sr.t.QS.RetainInto(func(q queryset.QueryID) bool {
			lim := st.limit(q)
			if lim <= 0 {
				return true
			}
			if int(q) < len(counts) {
				if counts[q] >= lim {
					return false
				}
				counts[q]++
				if counts[q] == lim {
					remaining--
				}
			}
			return true
		}, s.qsScratch)
		s.qsScratch = qs.IDs()
		if !qs.Empty() {
			out := s.Streams[sr.stream].OutStream
			c.Emit(out, sr.t.Row, qs)
		}
		if !unlimited && remaining == 0 {
			break // every Top-N query satisfied
		}
	}
	s.release(st)
	c.opState = nil
}

// finishHeap emits the bounded Top-N heaps, queries ascending, each heap
// sorted ascending by (keys, seq) — exactly the per-query stable-sort-and-
// cut sequence of the buffering path. Heaps hold at most LIMIT entries, so
// the final sorts are O(k log k) regardless of input size.
func (s *SortOp) finishHeap(c *Cycle, st *sortState) {
	for q := range st.heaps {
		h := &st.heaps[q]
		if h.lim <= 0 || len(h.ents) == 0 {
			continue
		}
		// (keys, seq) is a strict total order, so an unstable sort is
		// deterministic here.
		slices.SortFunc(h.ents, func(a, b heapTuple) int {
			if st.heapAfter(&a, &b) {
				return 1
			}
			return -1
		})
		for i := range h.ents {
			e := &h.ents[i]
			c.Emit(s.Streams[e.stream].OutStream, e.t.Row, e.t.QS)
		}
	}
	s.release(st)
	c.opState = nil
}

// release drops the cycle's buffered tuple references so retained input
// batches recycle without pinned rows, keeping buffer capacity for the next
// cycle.
func (s *SortOp) release(st *sortState) {
	clear(st.tuples)
	st.tuples = st.tuples[:0]
	clear(s.keyBuf)
	s.keyBuf = s.keyBuf[:0]
	for q := range st.heaps {
		h := &st.heaps[q]
		for i := range h.ents {
			e := &h.ents[i]
			e.t = Tuple{}
			clear(e.keys)
			e.keys = e.keys[:0]
		}
		h.ents = h.ents[:0]
	}
}
