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

// Shared joins (paper §3.3, Figure 3): one big join serves every concurrent
// query. The build side holds the union of the tuples any query wants; the
// probe matches on the join key AND a non-empty query-set intersection
// ("R.id = S.id && R.query_id = S.query_id" in Figure 3); matched tuples
// carry the intersection downstream.
//
// Because outer tuples can arrive from different producers with different
// schemas (Figure 2: join 2 receives Orders⋈Users tuples for Q3 and bare
// Orders tuples for Q4), the operator holds per-stream key extractors and
// output stream ids.

// JoinOuter configures one outer (probe-side) stream of a join.
type JoinOuter struct {
	KeyCols   []int // key columns in the outer stream's rows
	OutStream int   // stream id of the join results

	// OutCols is the physical layout of the out-stream's rows: only the
	// columns some statement reads downstream (late materialisation). The
	// plan appends to it at Prepare time and never reorders it, so indices
	// handed to earlier statements stay valid.
	OutCols []OutCol
}

// OutCol names one column of a join result row by the side it comes from.
type OutCol struct {
	Inner bool // false = the outer (probe) row, true = the inner row
	Col   int  // column in that side's rows
}

// gather materialises one join result in the generation's row arena: the
// carried columns of the matched pair, in out-stream order.
func (o *JoinOuter) gather(c *Cycle, outer, inner types.Row) types.Row {
	row := c.NewRow(len(o.OutCols))
	for i, c := range o.OutCols {
		if c.Inner {
			row[i] = inner[c.Col]
		} else {
			row[i] = outer[c.Col]
		}
	}
	return row
}

// hasNull reports whether a join key holds a NULL: such a tuple joins
// nothing, since NULL = x is never true.
func hasNull(key []types.Value) bool {
	for _, v := range key {
		if v.K == types.KindNull {
			return true
		}
	}
	return false
}

// hasNullKey is hasNull over row's key columns.
func hasNullKey(row types.Row, cols []int) bool {
	for _, c := range cols {
		if row[c].K == types.KindNull {
			return true
		}
	}
	return false
}

// HashJoinOp is the shared hash join. The inner (build) side is the single
// producer edge InnerEdge; all other producer edges are outer streams.
//
// The build table is keyed by a precomputed 64-bit hash of the key columns
// (open addressing, collision chains verified by value comparison) instead
// of boxed key strings, probe-side query-set intersections go through a
// reusable scratch buffer, and result rows come from the generation's row
// arena — the steady-state probe path allocates nothing.
type HashJoinOp struct {
	InnerKeyCols []int // key columns in the inner stream's schema
	InnerStream  int
	Outers       map[int]JoinOuter // by outer stream id

	innerEdge *Edge // producer edge delivering the build side (set by the plan)

	// per-cycle state, reused across cycles (a node runs one cycle at a
	// time)
	build     joinTable // build table
	pending   []*Batch  // outer batches buffered until build completes
	innerDone bool

	// fused are the cycle's outers read straight from a table's column
	// mirror, one per outer stream, and fusedDone whether their passes
	// ran; colBufs is the mirror pass's reusable scan state.
	fused     []mirrorInput
	fusedDone bool
	colBufs   storage.ColScanBuffers

	// keys is the cycle's build-key filter (keySet), reused across cycles;
	// keyFilterCycles counts the cycles that read a fused outer under it.
	keys            storage.KeySet
	keyFilterCycles atomic.Uint64

	keyScratch []types.Value      // the key of the tuple being built or probed
	qsScratch  []queryset.QueryID // probe intersection scratch

	// Group, when set, is a group-by folded into the join (groupjoin,
	// Moerkotte & Neumann, VLDB 2011): its hashed group columns are the
	// inner key columns, so each build bucket is one group, and a matched
	// outer row is aggregated into that group's per-query states instead of
	// being gathered and emitted. Group.Streams is keyed by outer stream: its
	// GroupCols and CarryCols are inner-row columns, its AggArgs read the
	// outer row. Tasks carry GroupSpecs (a mirror-fed outer's table, stream
	// and predicate, and the query's HAVING), and Finish emits what
	// GroupOp.Finish would: groups in first-match order, each group's key
	// and carried columns from the first build row that matched.
	Group *GroupOp
	// groups is the cycle's group of each build bucket (nil: none matched
	// yet); scanCols is a group-join mirror pass's columns, the join key
	// then the bare-column aggregate arguments.
	groups   []*groupEntry
	scanCols []int
}

// JoinSpec is the per-query activation of a hash join. A query whose outer
// is one direct shared scan of a base table reads that outer from the
// table's column mirror inside the join (no scan task, no scan→join edge):
// Table is that table, Outer the outer stream's id and Pred the query's
// bound scan predicate (nil = every row). With Table nil the outer streams
// in.
type JoinSpec struct {
	Table *storage.Table
	Outer int
	Pred  expr.Expr
}

func (s JoinSpec) mirrored() (*storage.Table, int, expr.Expr) { return s.Table, s.Outer, s.Pred }

// Start resets the cycle state and groups the fused queries by outer
// stream.
func (j *HashJoinOp) Start(c *Cycle) {
	j.build.reset(j.InnerKeyCols)
	clear(j.pending)
	j.pending = j.pending[:0]
	j.innerDone = false
	j.fusedDone = false
	j.fused = mirrorInputs(j.fused, c.Tasks)
	if j.Group != nil {
		j.Group.begin(c)
	}
}

// Consume builds from inner batches and probes (or buffers) outer batches;
// a tuple with a NULL key column on either side never builds or probes.
// Inner tuples stream into the build phase as they arrive (§3.2: "an
// operator can stream its output into the build phase of a hash join").
// Buffered and built-from batches are retained: the build table and pending
// lists alias their tuples until the cycle finishes.
func (j *HashJoinOp) Consume(c *Cycle, b *Batch) {
	if b.Stream == j.InnerStream {
		c.Retain(b)
		for _, t := range b.Tuples {
			if key := j.keyOf(t.Row, j.InnerKeyCols); !hasNull(key) {
				j.build.insert(hashKey(key), key, t)
			}
		}
		return
	}
	if !j.innerDone {
		c.Retain(b)
		j.pending = append(j.pending, b)
		return
	}
	j.probeBatch(c, b)
}

// EdgeEOS unblocks probing once the inner side has been fully built.
func (j *HashJoinOp) EdgeEOS(c *Cycle, e *Edge) {
	if e == nil || j.innerDone {
		return
	}
	// The inner side is complete when the edge carrying InnerStream
	// finishes. Outer EOS arriving earlier must not trigger the drain.
	if !j.isInnerEdge(e) {
		return
	}
	j.innerDone = true
	j.drain(c)
}

// drain probes the buffered outer batches, then reads every fused outer
// from its table's column mirror (once per cycle).
func (j *HashJoinOp) drain(c *Cycle) {
	if n := len(j.build.buckets); j.Group != nil && len(j.groups) < n {
		j.groups = append(j.groups, make([]*groupEntry, n-len(j.groups))...)
	}
	for _, b := range j.pending {
		j.probeBatch(c, b)
	}
	clear(j.pending)
	j.pending = j.pending[:0]
	if !j.fusedDone {
		j.fusedDone = true
		if len(j.fused) == 0 || j.build.len() == 0 {
			return
		}
		keys := j.keySet()
		filtered := false
		for i := range j.fused {
			filtered = j.probeMirror(c, &j.fused[i], keys) || filtered
		}
		if filtered {
			j.keyFilterCycles.Add(1)
		}
	}
}

// KeyFilterCycles reports how many cycles read a fused outer under the
// build-key filter.
func (j *HashJoinOp) KeyFilterCycles() uint64 { return j.keyFilterCycles.Load() }

// keySet is the build-key filter: an exact set of the build keys for the
// fused outers' scans (storage.SharedScanKeyed), so an outer row whose key
// matches no build key is never gathered, hashed or probed. It exists when
// the join has one key column and every build key is an INT, BOOL or TIME
// value or an integral FLOAT of magnitude at most 2⁵³ (exactly an int64),
// and the span of the keys needs at most one 64-bit word per distinct build
// key, so the set never outgrows the build table. A key of any other kind
// (a string, a fractional FLOAT) or a wider span returns nil: the outers
// scan unfiltered.
//
// The set is exact for the probe: an int outer key x hashes like a build
// key only when x equals the build key's int image (keyHash), so every row
// the set drops would have matched nothing.
func (j *HashJoinOp) keySet() *storage.KeySet {
	keys := j.build.keys
	if len(j.InnerKeyCols) != 1 {
		return nil
	}
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, v := range keys {
		x, ok := intImage(v)
		if !ok {
			return nil
		}
		lo, hi = min(lo, x), max(hi, x)
	}
	words := (uint64(hi)-uint64(lo))>>6 + 1
	if words > uint64(len(keys)) {
		return nil
	}
	ks := &j.keys
	ks.Lo = lo
	ks.Bits = slices.Grow(ks.Bits[:0], int(words))[:words]
	clear(ks.Bits)
	for _, v := range keys {
		x, _ := intImage(v)
		u := uint64(x) - uint64(lo)
		ks.Bits[u>>6] |= 1 << (u & 63)
	}
	return ks
}

// intImage is a build key's exact int64 value: INT, BOOL and TIME keys as
// stored, an integral FLOAT within ±2⁵³ converted; ok is false for any other
// value.
func intImage(v types.Value) (x int64, ok bool) {
	switch v.K {
	case types.KindInt, types.KindBool, types.KindTime:
		return v.Int, true
	case types.KindFloat:
		if f := v.AsFloat(); f == math.Trunc(f) && math.Abs(f) <= 1<<53 {
			return int64(f), true
		}
	}
	return 0, false
}

// SetInnerEdge marks which producer edge carries the build side; called by
// the plan compiler after wiring.
func (j *HashJoinOp) SetInnerEdge(e *Edge) { j.innerEdge = e }

func (j *HashJoinOp) isInnerEdge(e *Edge) bool { return j.innerEdge == e }

var _ Operator = (*HashJoinOp)(nil)

// Finish probes any outers still pending (possible when the inner edge was
// idle this generation), emits a folded group-by's groups, and releases
// cycle state (dropping tuple and predicate references so the retained
// batches can recycle without pinned rows).
func (j *HashJoinOp) Finish(c *Cycle) {
	j.drain(c)
	if j.Group != nil {
		j.Group.Finish(c)
		clear(j.groups)
		j.groups = j.groups[:0]
	}
	j.build.reset(j.InnerKeyCols)
	releaseMirrorInputs(j.fused)
}

// keyOf pulls row's key columns into the key scratch.
func (j *HashJoinOp) keyOf(row types.Row, cols []int) []types.Value {
	j.keyScratch = appendKey(j.keyScratch[:0], row, cols)
	return j.keyScratch
}

func (j *HashJoinOp) probeBatch(c *Cycle, b *Batch) {
	cfg, ok := j.Outers[b.Stream]
	if !ok {
		return
	}
	gs := j.groupStream(b.Stream)
	for ti := range b.Tuples {
		t := &b.Tuples[ti]
		if key := j.keyOf(t.Row, cfg.KeyCols); !hasNull(key) {
			j.probe(c, &cfg, gs, key, nil, t.Row, t.QS)
		}
	}
}

// groupStream is a folded group-by's configuration of one outer stream
// (nil: the join emits).
func (j *HashJoinOp) groupStream(stream int) *GroupStream {
	if j.Group == nil {
		return nil
	}
	gs := j.Group.Streams[stream]
	return &gs
}

// probeMirror reads one fused outer in a single pass over its table's
// column mirror at the cycle's snapshot (storage.SharedScanKeyed): the key
// comes from the typed vectors, so an outer row is dereferenced only when
// its key matches a bucket and a query set intersects, and under the
// build-key filter keys (nil: none) a row whose key is in no bucket never
// reaches the probe. The pass emits in RowID order, each row's matches in
// build-chain order — exactly what probing the streamed scan's batches
// would emit. A folded group-by's bare-column aggregate arguments are read
// from the typed vectors with the key, so a matched row is not dereferenced
// for them either. filtered reports whether the filter ran.
func (j *HashJoinOp) probeMirror(c *Cycle, f *mirrorInput, keys *storage.KeySet) (filtered bool) {
	cfg, ok := j.Outers[f.stream]
	if !ok {
		return false
	}
	cols, gs := cfg.KeyCols, j.groupStream(f.stream)
	if gs != nil {
		j.scanCols = append(j.scanCols[:0], cfg.KeyCols...)
		for _, e := range gs.AggArgs {
			if col, bare := e.(*expr.ColRef); bare {
				j.scanCols = append(j.scanCols, col.Idx)
			}
		}
		cols = j.scanCols
	}
	nk := len(cfg.KeyCols)
	return f.table.SharedScanKeyed(c.TS, f.clients, cols, keys, &j.colBufs, func(vals []types.Value, row types.Row, qs queryset.Set) {
		if key := vals[:nk]; !hasNull(key) {
			j.probe(c, &cfg, gs, key, vals[nk:], row, qs)
		}
	})
}

// probe hands one outer row's matches, in build-chain order, each with the
// queries the row shares with the matched build tuple, to emission or, with
// gs set, to the folded group-by: the row's aggregate arguments (vals: see
// GroupOp.loadArgs) are loaded once, at its first match, and each match
// folds them into its bucket's group.
func (j *HashJoinOp) probe(c *Cycle, cfg *JoinOuter, gs *GroupStream, key, vals []types.Value, row types.Row, qs queryset.Set) {
	tab := &j.build
	bi := tab.lookup(hashKey(key), key)
	if bi < 0 {
		return
	}
	loaded := false
	for ei := tab.buckets[bi].head; ei >= 0; ei = tab.entries[ei].next {
		it := &tab.entries[ei].t
		mq := qs.IntersectInto(it.QS, j.qsScratch)
		j.qsScratch = mq.IDs()
		if mq.Empty() {
			continue
		}
		if gs == nil {
			c.Emit(cfg.OutStream, cfg.gather(c, row, it.Row), mq)
			continue
		}
		g := j.Group
		if !loaded {
			g.loadArgs(gs.AggArgs, vals, row)
			loaded = true
		}
		ge := j.groups[bi]
		if ge == nil {
			// The bucket finds its group, so the entry takes no hash slot:
			// the table's entries only keep first-match order for Finish.
			ge = g.agg.newEntry(tab.buckets[bi].hash, it.Row, gs.GroupCols, gs.CarryCols)
			g.agg.table.entries = append(g.agg.table.entries, ge)
			j.groups[bi] = ge
		}
		g.fold(ge, mq)
	}
}

// IndexJoinOp is the shared index nested-loop join (paper §4.4): outer
// tuples probe a B-tree index of a base table directly. The plan takes it
// only when no query filters the inner table, so every visible match goes
// to every query of its outer tuple (the emitter restricts that set to each
// consumer edge's queries).
type IndexJoinOp struct {
	Table  *storage.Table
	Index  *storage.Index
	Outers map[int]JoinOuter // by outer stream id

	seek indexSeek // per-batch scratch, reused across batches
}

// Start has nothing to set up: an index join keeps no per-query state.
func (j *IndexJoinOp) Start(*Cycle) {}

// Consume probes the index with one outer batch (indexSeek.run), then emits
// in batch order, each tuple's matches in index order — exactly what one
// seek per tuple in arrival order emitted, and downstream LIMIT ties depend
// on that order. The inner table's read lock is held across both passes:
// with pipelined generations, later generations' writes land while this
// cycle runs, so the tree and version chains cannot be traversed lock-free.
func (j *IndexJoinOp) Consume(c *Cycle, b *Batch) {
	cfg, ok := j.Outers[b.Stream]
	if !ok {
		return
	}
	l := j.Table.RLock()
	defer l.Unlock()
	cur := l.IndexCursor(j.Index, c.TS)
	s := &j.seek
	s.run(&cur, b.Tuples, cfg.KeyCols)
	for ti, sp := range s.spans {
		t := &b.Tuples[ti]
		for _, inner := range s.rows[sp.lo:sp.hi] {
			c.Emit(cfg.OutStream, cfg.gather(c, t.Row, inner), t.QS)
		}
	}
	s.done()
}

// Finish has nothing to release.
func (j *IndexJoinOp) Finish(*Cycle) {}
