package storage

import (
	"math"
	"math/bits"
	"slices"
	"strings"

	"shareddb/internal/expr"
	"shareddb/internal/queryset"
	"shareddb/internal/types"
)

// ClockScan is the shared table scan of the Crescando storage manager
// (Unterbrunner et al., cited as [28]; paper §4.4). It batches the read
// queries of one cycle and answers all of them in a single pass over the
// table. "Performance is increased by indexing the query predicates instead
// of the data and performing query-data joins": every query is classified
// by its first equality conjunct (hashed by value), else its first range
// conjunct (compiled into typed bound checks), else the whole predicate is
// evaluated per row; the remaining conjuncts form a residual that runs only
// on rows the indexed conjunct selected.
//
// SharedScan runs that index over the table's columnar mirror
// (colstore.go) column-at-a-time, over typed vectors in fixed-size chunks.
// Equality probes hash a whole column chunk against the per-value query
// lists, range predicates compare typed vector slices without boxing, and
// per-query selection bitmaps are gathered into sorted query-id sets. The
// scan produces rows in SharedDB's data-query model: each emitted row
// carries the set of query ids interested in it (paper §3.1, Figure 1), in
// RowID order, and the row is the table's own version object.
//
// A cycle is one serial pass on the scan node's goroutine: SharedDB's
// parallelism comes from the always-on operators and pipelined
// generations (paper §3), not from splitting one scan.

// ScanClient is one read query participating in a scan cycle.
type ScanClient struct {
	ID   queryset.QueryID
	Pred expr.Expr // bound predicate over the table schema; nil = all rows
}

func removeAt(conjs []expr.Expr, i int) []expr.Expr {
	out := make([]expr.Expr, 0, len(conjs)-1)
	out = append(out, conjs[:i]...)
	out = append(out, conjs[i+1:]...)
	return out
}

// colChunkRows is the chunk size of the columnar scan: per-query selection
// bitmaps cover one chunk at a time so they stay L1-resident. Must be a
// multiple of 64 (chunks are word-aligned into the live bitmap). A var so
// tests can force many-chunk coverage on small fixtures.
var colChunkRows = 1024

// cmpF64 is the three-way float compare Value.Compare uses. Note the NaN
// semantics: NaN is neither < nor > anything, so it compares "equal" to
// every number — the columnar path must reproduce that, not use ==.
func cmpF64(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// colBound is one precompiled range-bound check against a typed vector.
// The mode is derived per scan from the bound constant's kind and the
// column's representation; incomparable kinds collapse to pass/fail for
// the whole column (Value.Compare's kind-tag total order).
type colBound struct {
	mode uint8
	incl bool
	i    int64
	f    float64
	s    string
}

const (
	cbNone uint8 = iota // unbounded or always satisfied
	cbFail              // never satisfied
	cbI64               // compare against i (int64 payloads)
	cbF64               // compare against f (coerced float compare)
	cbStr               // compare against s (string payloads)
)

// colEqProbe is one equality-indexed client. Probes are stored in a flat
// arena and chained per hash bucket via next (1-based; 0 terminates), so
// steady-state index rebuilds allocate nothing.
type colEqProbe struct {
	val      types.Value
	residual expr.Expr
	ci       int32
	next     int32
}

// colEqCol is the per-column equality probe index: value hash → first
// probe (1-based into colIndex.eqProbes).
type colEqCol struct {
	col   int
	heads map[uint64]int32
}

// colRangeProbe is one range-indexed client with its compiled bounds.
// normalize folds the bounds into the closed sentinel forms the stride
// kernels consume; fail marks a probe no row can satisfy.
type colRangeProbe struct {
	col      int
	rng      expr.Range
	residual expr.Expr
	ci       int32
	lo, hi   colBound
	fail     bool
}

// normalize rewrites compiled bounds for the word kernels. NaN float bounds
// collapse first: cmpF64 ranks NaN neither below nor above anything, so
// every row compares "equal" — the bound passes everything when inclusive
// and nothing when exclusive. Int columns then close exclusive int bounds
// by stepping one (saturating at the extremes → fail) and turn unbounded
// sides into the int extremes; float columns turn unbounded sides into
// inclusive ±Inf, which passes every row — including NaN rows, which
// compare "equal" to any bound and so pass inclusive ones.
func (p *colRangeProbe) normalize(c *colVec) {
	p.fail = false
	for _, b := range [2]*colBound{&p.lo, &p.hi} {
		if b.mode == cbF64 && math.IsNaN(b.f) {
			if b.incl {
				b.mode = cbNone
			} else {
				b.mode = cbFail
			}
		}
	}
	switch c.rep {
	case repI64:
		if p.lo.mode == cbNone {
			p.lo = colBound{mode: cbI64, i: math.MinInt64, incl: true}
		}
		if p.hi.mode == cbNone {
			p.hi = colBound{mode: cbI64, i: math.MaxInt64, incl: true}
		}
		if p.lo.mode == cbI64 && !p.lo.incl {
			if p.lo.i == math.MaxInt64 {
				p.fail = true
			} else {
				p.lo.i++
				p.lo.incl = true
			}
		}
		if p.hi.mode == cbI64 && !p.hi.incl {
			if p.hi.i == math.MinInt64 {
				p.fail = true
			} else {
				p.hi.i--
				p.hi.incl = true
			}
		}
	case repF64:
		if p.lo.mode == cbNone {
			p.lo = colBound{mode: cbF64, f: math.Inf(-1), incl: true}
		}
		if p.hi.mode == cbNone {
			p.hi = colBound{mode: cbF64, f: math.Inf(1), incl: true}
		}
	}
	if p.lo.mode == cbFail || p.hi.mode == cbFail {
		p.fail = true
	}
}

// colRestProbe is one unindexable client (evaluated per surviving row),
// with a vectorized fast path for single constant-LIKE predicates — the
// dominant rest-class shape in the TPC-W search statements.
type colRestProbe struct {
	pred       expr.Expr
	ci         int32
	likeOK     bool
	likeCol    int
	likeShape  expr.LikeShape
	likeNeedle string
	likeNeg    bool
}

// colClientOrd pins the qid order of the bitmap slots.
type colClientOrd struct {
	id  queryset.QueryID
	idx int32
}

// colIndex is the per-cycle columnar query index. All slices and maps are
// reused across cycles (the flat probe arena plus cleared bucket maps), so
// a steady-state index rebuild allocates nothing.
type colIndex struct {
	ids      []queryset.QueryID // bitmap slot → query id, ascending
	ord      []colClientOrd
	eqCols   []colEqCol
	eqProbes []colEqProbe
	rngs     []colRangeProbe
	rest     []colRestProbe
}

// build classifies every client: the first equality conjunct wins, else the
// first range conjunct, else the whole predicate is a rest probe; the
// remaining conjuncts form the residual.
// Clients are slotted in ascending query-id order so the per-row gather
// emits sorted id sets without a sort.
func (ix *colIndex) build(clients []ScanClient) {
	ix.ord = ix.ord[:0]
	for i, c := range clients {
		ix.ord = append(ix.ord, colClientOrd{id: c.ID, idx: int32(i)})
	}
	slices.SortStableFunc(ix.ord, func(a, b colClientOrd) int {
		switch {
		case a.id < b.id:
			return -1
		case a.id > b.id:
			return 1
		default:
			return 0
		}
	})
	ix.ids = ix.ids[:0]
	for i := range ix.eqCols {
		clear(ix.eqCols[i].heads)
	}
	ix.eqCols = ix.eqCols[:0]
	ix.eqProbes = ix.eqProbes[:0]
	ix.rngs = ix.rngs[:0]
	ix.rest = ix.rest[:0]

	for ci, o := range ix.ord {
		c := clients[o.idx]
		ix.ids = append(ix.ids, c.ID)
		conjs := expr.Conjuncts(c.Pred)
		eqAt, rngAt := -1, -1
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
			ec := ix.eqCol(col)
			h := val.Hash()
			ix.eqProbes = append(ix.eqProbes, colEqProbe{val: val, residual: residual, ci: int32(ci), next: ec.heads[h]})
			ec.heads[h] = int32(len(ix.eqProbes)) // 1-based
		case rngAt >= 0:
			rng, _ := expr.RangeMatch(conjs[rngAt])
			residual := expr.AndOf(removeAt(conjs, rngAt))
			ix.rngs = append(ix.rngs, colRangeProbe{col: rng.Col, rng: rng, residual: residual, ci: int32(ci)})
		default:
			p := colRestProbe{pred: c.Pred, ci: int32(ci)}
			if c.Pred != nil {
				if col, shape, needle, neg, ok := expr.PlainLike(c.Pred); ok {
					p.likeOK, p.likeCol, p.likeShape, p.likeNeedle, p.likeNeg = true, col, shape, needle, neg
				}
			}
			ix.rest = append(ix.rest, p)
		}
	}
}

// eqCol finds or creates the equality index for col, reusing bucket maps
// from previous cycles.
func (ix *colIndex) eqCol(col int) *colEqCol {
	for i := range ix.eqCols {
		if ix.eqCols[i].col == col {
			return &ix.eqCols[i]
		}
	}
	if len(ix.eqCols) < cap(ix.eqCols) {
		ix.eqCols = ix.eqCols[:len(ix.eqCols)+1]
		ec := &ix.eqCols[len(ix.eqCols)-1]
		ec.col = col
		if ec.heads == nil {
			ec.heads = map[uint64]int32{}
		}
		return ec
	}
	ix.eqCols = append(ix.eqCols, colEqCol{col: col, heads: map[uint64]int32{}})
	return &ix.eqCols[len(ix.eqCols)-1]
}

// prepare compiles the range bounds against the mirror's current column
// representations. Caller holds the mirror lock (shared suffices: reps only
// change under the exclusive sync).
func (ix *colIndex) prepare(m *colMirror) {
	for i := range ix.rngs {
		p := &ix.rngs[i]
		c := &m.cols[p.col]
		p.lo = compileBound(c, p.rng.Lo, p.rng.LoIncl, false)
		p.hi = compileBound(c, p.rng.Hi, p.rng.HiIncl, true)
		p.normalize(c)
	}
}

// compileBound turns one side of a Range into a typed check against a
// column vector. A NULL bound is unbounded (Range.Contains skips it). For a
// bound whose kind is incomparable with the column's uniform kind the
// three-way compare degenerates to the constant kind-tag order, making the
// check pass or fail for every non-NULL row at once.
func compileBound(c *colVec, b types.Value, incl, isHi bool) colBound {
	if b.IsNull() || c.rep == repGeneric {
		return colBound{mode: cbNone}
	}
	switch c.rep {
	case repI64:
		if b.K.Numeric() {
			if b.K == types.KindFloat {
				return colBound{mode: cbF64, f: b.AsFloat(), incl: incl}
			}
			return colBound{mode: cbI64, i: b.Int, incl: incl}
		}
	case repF64:
		if b.K.Numeric() {
			return colBound{mode: cbF64, f: b.AsFloat(), incl: incl}
		}
	case repStr:
		if b.K == types.KindString {
			return colBound{mode: cbStr, s: b.Str, incl: incl}
		}
	}
	// Incomparable kinds: Value.Compare orders by kind tag.
	d := cmpKindTag(c.kind, b.K)
	if isHi {
		if d > 0 {
			return colBound{mode: cbFail}
		}
		return colBound{mode: cbNone}
	}
	if d < 0 {
		return colBound{mode: cbFail}
	}
	return colBound{mode: cbNone}
}

func cmpKindTag(a, b types.Kind) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// colEqMatch verifies a hash-bucket candidate: the typed-coerced equality
// Value.Equal would compute, without boxing the row value.
func colEqMatch(c *colVec, row types.Row, col, pos int, val types.Value) bool {
	if c.rep == repGeneric {
		return val.Equal(row[col])
	}
	valid := c.valid[pos>>6]&(1<<(pos&63)) != 0
	if val.IsNull() {
		return !valid
	}
	if !valid {
		return false
	}
	switch c.rep {
	case repI64:
		if !val.K.Numeric() {
			return false
		}
		if val.K == types.KindFloat {
			return cmpF64(float64(c.i64[pos]), val.AsFloat()) == 0
		}
		return c.i64[pos] == val.Int
	case repF64:
		if !val.K.Numeric() {
			return false
		}
		return cmpF64(c.f64[pos], val.AsFloat()) == 0
	case repStr:
		return val.K == types.KindString && c.str[pos] == val.Str
	}
	return false
}

// colBitmaps is the per-chunk selection state: one bitmap per
// client (slot order = ascending qid), sized to the chunk word count.
type colBitmaps struct {
	per [][]uint64
}

func (b *colBitmaps) ensure(nclients, words int) {
	for len(b.per) < nclients {
		b.per = append(b.per, nil)
	}
	for ci := 0; ci < nclients; ci++ {
		if len(b.per[ci]) < words {
			b.per[ci] = make([]uint64, colChunkRows/64)
		}
		clear(b.per[ci][:words])
	}
}

// colScratch is the chunk loop's reusable buffers in a columnar scan.
type colScratch struct {
	ids  []queryset.QueryID
	bits colBitmaps
	act  []int32    // gather: clients with any match in the current word
	hash [64]uint64 // equality probing: per-lane hash images of one word

	// zoneSkips counts int range words the zone map decided without
	// reading a lane (test observability).
	zoneSkips uint64
}

// ColScanBuffers is the reusable per-cycle state of a columnar scan: the
// query index (flat probe arenas, cleared bucket maps) and the chunk
// loop's bitmaps and query-id scratch. One instance is owned by each scan
// operator node and reused across generations, so the steady-state chunk
// loop allocates nothing.
type ColScanBuffers struct {
	idx colIndex
	ps  colScratch
	key []types.Value // SharedScanKeyed: the emitted row's key columns
}

// ScanBuffers is kept only for bench/layers.go, which only a
// benchmark-typed PR may change and which still names it.
type ScanBuffers = ColScanBuffers

// SharedScanPooled is kept only for bench/layers.go, which only a
// benchmark-typed PR may change and which still calls it: it is SharedScan,
// and workers is ignored.
func (t *Table) SharedScanPooled(ts uint64, clients []ScanClient, workers int, bufs *ScanBuffers, emit func(rid RowID, row types.Row, qs queryset.Set)) {
	t.SharedScan(ts, clients, bufs, emit)
}

// SharedScanColumnar is kept only for bench/layers.go, which only a
// benchmark-typed PR may change and which still calls it with a worker
// budget: it is SharedScan, and workers is ignored.
func (t *Table) SharedScanColumnar(ts uint64, clients []ScanClient, workers int, bufs *ColScanBuffers, emit func(rid RowID, row types.Row, qs queryset.Set)) {
	t.SharedScan(ts, clients, bufs, emit)
}

// SharedScan executes one ClockScan cycle at snapshot ts: a single serial
// pass over the rows visible at ts answering every client at once. emit
// receives each row that at least one client wants, together with the
// interested query-id set, in RowID order. bufs is caller-owned and must be
// non-nil: every emitted set is borrowed from it — valid only during the
// emit callback — so a caller that retains a set copies it (the operator
// emitter copies into its batch arena).
func (t *Table) SharedScan(ts uint64, clients []ScanClient, bufs *ColScanBuffers, emit func(rid RowID, row types.Row, qs queryset.Set)) {
	t.scanMirror(ts, clients, bufs, nil, -1, func(m *colMirror, pos int, qs queryset.Set) {
		emit(m.rids[pos], m.rows[pos], qs)
	})
}

// KeySet is an exact set of int64 keys over a span: key x is in the set
// when bit x-Lo of Bits is set. A hash join builds one from its build keys
// (operators.HashJoinOp) so the scan of its outer drops the rows whose key
// joins nothing before they are gathered.
type KeySet struct {
	Lo   int64
	Bits []uint64
}

// mask returns the lanes of sel, one word of c's positions from pos0 on,
// whose key is non-NULL and in the set. c is an int vector.
func (s *KeySet) mask(c *colVec, pos0 int, sel uint64) uint64 {
	n := uint64(len(s.Bits)) << 6
	var keep uint64
	for t := sel & c.valid[pos0>>6]; t != 0; t &= t - 1 {
		tz := bits.TrailingZeros64(t)
		if u := uint64(c.i64[pos0+tz]) - uint64(s.Lo); u < n && s.Bits[u>>6]&(1<<(u&63)) != 0 {
			keep |= 1 << tz
		}
	}
	return keep
}

// keyFilter is a scan's build-key filter: the set and the int vector of the
// key column it tests (col nil: no filter).
type keyFilter struct {
	set *KeySet
	col *colVec
}

// SharedScanKeyed is SharedScan for a consumer that looks at a few key
// columns of every emitted row before it reads the row itself (a hash join
// probing with its outer read straight from the mirror): emit also
// receives keyCols' values, read from the typed vectors — a NULL from the
// validity bit, a demoted column from the row — so a row the consumer
// drops is never dereferenced. key is borrowed like qs.
//
// With keys non-nil and keyCols[0] an int vector at the snapshot, a row
// whose keyCols[0] is NULL or not in keys is never emitted: one mask per
// 64-row word, computed from the vector, clears those rows from the word's
// selection before the gather. A demoted column scans unfiltered. filtered
// reports whether the filter ran.
func (t *Table) SharedScanKeyed(ts uint64, clients []ScanClient, keyCols []int, keys *KeySet, bufs *ColScanBuffers, emit func(key []types.Value, row types.Row, qs queryset.Set)) (filtered bool) {
	key := slices.Grow(bufs.key[:0], len(keyCols))[:len(keyCols)]
	bufs.key = key
	filterCol := -1
	if keys != nil {
		filterCol = keyCols[0]
	}
	filtered = t.scanMirror(ts, clients, bufs, keys, filterCol, func(m *colMirror, pos int, qs queryset.Set) {
		for i, col := range keyCols {
			key[i] = m.cols[col].value(m.rows, col, pos)
		}
		emit(key, m.rows[pos], qs)
	})
	clear(key)
	return filtered
}

// scanMirror is the one ClockScan loop behind SharedScan and
// SharedScanKeyed: pin the mirror at ts, index the clients, and hand sink
// every selected position with its borrowed, ascending query-id set, in
// RowID order, while the mirror is held. keys (nil: none) is
// SharedScanKeyed's build-key filter over column col, taken only when that
// column is an int vector once the mirror is pinned (the pin may demote it);
// filtered reports whether it was.
func (t *Table) scanMirror(ts uint64, clients []ScanClient, bufs *ColScanBuffers, keys *KeySet, col int, sink func(m *colMirror, pos int, qs queryset.Set)) (filtered bool) {
	if len(clients) == 0 {
		return false
	}
	m := t.columnarMirror()
	m.pin(t, ts) // returns holding m.mu shared
	defer m.mu.RUnlock()
	ix := &bufs.idx
	ix.build(clients)
	ix.prepare(m)
	var kf keyFilter
	if keys != nil && col >= 0 && m.cols[col].rep == repI64 {
		kf = keyFilter{set: keys, col: &m.cols[col]}
	}

	n := len(m.rids)
	for base := 0; base < n; base += colChunkRows {
		ix.runChunk(m, base, min(base+colChunkRows, n), &bufs.ps, kf, sink)
	}
	return kf.col != nil
}

// runChunk evaluates every probe class over rows [base, end) and hands each
// selected position with its borrowed, ascending query-id set to sink. base
// is a multiple of colChunkRows (word-aligned into the bitmaps). Under a
// build-key filter only the selected rows whose key is in its set reach
// sink.
func (ix *colIndex) runChunk(m *colMirror, base, end int, ps *colScratch, kf keyFilter, sink func(m *colMirror, pos int, qs queryset.Set)) {
	nb := end - base
	words := (nb + 63) >> 6
	baseW := base >> 6
	liveW := m.live[baseW : baseW+words]
	nc := len(ix.ids)
	ps.bits.ensure(nc, words)
	per := ps.bits.per

	// Equality probes: hash the column chunk a word at a time (the
	// representation switch runs once per word, not per row), then probe the
	// per-value lists for the selected lanes.
	for eci := range ix.eqCols {
		ec := &ix.eqCols[eci]
		c := &m.cols[ec.col]
		for w := 0; w < words; w++ {
			bw := liveW[w]
			if bw == 0 {
				continue
			}
			pos0 := base + w<<6
			var vw uint64
			if c.rep != repGeneric {
				vw = c.valid[baseW+w]
			}
			eqHashWord(c, m.rows, ec.col, pos0, bw, vw, &ps.hash)
			for t := bw; t != 0; {
				tz := bits.TrailingZeros64(t)
				t &= t - 1
				pos := pos0 + tz
				for pi := ec.heads[ps.hash[tz]]; pi != 0; {
					p := &ix.eqProbes[pi-1]
					pi = p.next
					if colEqMatch(c, m.rows[pos], ec.col, pos, p.val) &&
						(p.residual == nil || expr.TruthyEval(p.residual, m.rows[pos], nil)) {
						per[p.ci][w] |= 1 << uint(tz)
					}
				}
			}
		}
	}

	// Range probes: typed word kernels over the vector lanes. The kernels
	// evaluate whole 64-lane words branch-free and the live∧valid mask is
	// applied afterwards; string columns stay per-selected-lane (compares
	// are too expensive to burn on dead lanes), generic columns fall back
	// to the boxed per-row check.
	for ri := range ix.rngs {
		p := &ix.rngs[ri]
		if p.fail {
			continue
		}
		c := &m.cols[p.col]
		out := per[p.ci]
		switch c.rep {
		case repGeneric:
			for w := 0; w < words; w++ {
				bw := liveW[w]
				for bw != 0 {
					tz := bits.TrailingZeros64(bw)
					bw &= bw - 1
					pos := base + w<<6 + tz
					row := m.rows[pos]
					if p.rng.Contains(row[p.col]) &&
						(p.residual == nil || expr.TruthyEval(p.residual, row, nil)) {
						out[w] |= 1 << tz
					}
				}
			}
		case repI64:
			vals := c.i64[base:end]
			allInt := p.lo.mode == cbI64 && p.hi.mode == cbI64
			// The int extremes are normalization sentinels for "unbounded";
			// a genuine bound at the extreme passes every lane anyway, so
			// the one-sided kernels are exact either way.
			loUnb := p.lo.mode == cbI64 && p.lo.i == math.MinInt64
			hiUnb := p.hi.mode == cbI64 && p.hi.i == math.MaxInt64
			for w := 0; w < words; w++ {
				// NULL rows never satisfy a range (Contains rejects NULL first).
				bw := liveW[w] & c.valid[baseW+w]
				if bw == 0 {
					continue
				}
				rb := w << 6
				lanes := vals[rb:min(rb+64, nb)]
				var mask uint64
				// The zone map decides whole words the closed int bounds
				// miss or cover without touching a lane.
				zlo, zhi := c.zmin[baseW+w], c.zmax[baseW+w]
				switch {
				case loUnb && hiUnb:
					mask = ^uint64(0)
				case allInt && (zhi < p.lo.i || zlo > p.hi.i):
					ps.zoneSkips++
					continue
				case allInt && zlo >= p.lo.i && zhi <= p.hi.i:
					ps.zoneSkips++
					mask = ^uint64(0)
				case allInt && hiUnb:
					mask = rangeWordI64Lo(lanes, p.lo.i)
				case allInt && loUnb:
					mask = rangeWordI64Hi(lanes, p.hi.i)
				case allInt:
					mask = rangeWordI64(lanes, p.lo.i, p.hi.i)
				default:
					mask = rangeWordI64Mixed(lanes, p.lo, p.hi)
				}
				mask &= bw
				if mask != 0 && p.residual != nil {
					mask = residualWord(mask, p.residual, m.rows, base+rb)
				}
				out[w] |= mask
			}
		case repF64:
			vals := c.f64[base:end]
			loIncl, hiIncl := b2u(p.lo.incl), b2u(p.hi.incl)
			// Inclusive ±Inf is the "unbounded" sentinel: it passes every
			// lane, NaN included (NaN compares "equal" to any bound).
			loUnb := math.IsInf(p.lo.f, -1) && p.lo.incl
			hiUnb := math.IsInf(p.hi.f, 1) && p.hi.incl
			for w := 0; w < words; w++ {
				bw := liveW[w] & c.valid[baseW+w]
				if bw == 0 {
					continue
				}
				rb := w << 6
				lanes := vals[rb:min(rb+64, nb)]
				var mask uint64
				switch {
				case loUnb && hiUnb:
					mask = ^uint64(0)
				case hiUnb:
					mask = rangeWordF64Lo(lanes, p.lo.f, loIncl)
				case loUnb:
					mask = rangeWordF64Hi(lanes, p.hi.f, hiIncl)
				default:
					mask = rangeWordF64(lanes, p.lo.f, p.hi.f, loIncl, hiIncl)
				}
				mask &= bw
				if mask != 0 && p.residual != nil {
					mask = residualWord(mask, p.residual, m.rows, base+rb)
				}
				out[w] |= mask
			}
		case repStr:
			strs := c.str
			loS, hiS := p.lo.mode == cbStr, p.hi.mode == cbStr
			for w := 0; w < words; w++ {
				bw := liveW[w] & c.valid[baseW+w]
				for bw != 0 {
					tz := bits.TrailingZeros64(bw)
					bw &= bw - 1
					pos := base + w<<6 + tz
					x := strs[pos]
					ok := !loS || x > p.lo.s || (x == p.lo.s && p.lo.incl)
					if ok && hiS {
						ok = x < p.hi.s || (x == p.hi.s && p.hi.incl)
					}
					if ok && (p.residual == nil || expr.TruthyEval(p.residual, m.rows[pos], nil)) {
						out[w] |= 1 << tz
					}
				}
			}
		}
	}

	// Rest probes: select-all copies the live words; single constant-LIKE
	// predicates over a string vector run the hoisted-shape word kernel on
	// dense words (and a per-lane loop on sparse ones); everything else
	// evaluates per row.
	for ri := range ix.rest {
		p := &ix.rest[ri]
		out := per[p.ci]
		if p.pred == nil {
			copy(out[:words], liveW)
			continue
		}
		if p.likeOK {
			if c := &m.cols[p.likeCol]; c.rep == repStr {
				strs := c.str[base:end]
				for w := 0; w < words; w++ {
					// A NULL lhs makes LIKE evaluate to NULL → false, negated
					// or not, so invalid positions never match.
					bw := liveW[w] & c.valid[baseW+w]
					if bw == 0 {
						continue
					}
					rb := w << 6
					lanes := strs[rb:min(rb+64, nb)]
					if bits.OnesCount64(bw)*2 >= len(lanes) {
						mask := likeWord(lanes, p.likeShape, p.likeNeedle)
						if p.likeNeg {
							mask = ^mask
						}
						out[w] |= mask & bw
						continue
					}
					for t := bw; t != 0; {
						tz := bits.TrailingZeros64(t)
						t &= t - 1
						if likeLane(lanes[tz], p.likeShape, p.likeNeedle) != p.likeNeg {
							out[w] |= 1 << uint(tz)
						}
					}
				}
				continue
			}
		}
		for w := 0; w < words; w++ {
			bw := liveW[w]
			for bw != 0 {
				tz := bits.TrailingZeros64(bw)
				bw &= bw - 1
				pos := base + w<<6 + tz
				if expr.TruthyEval(p.pred, m.rows[pos], nil) {
					out[w] |= 1 << tz
				}
			}
		}
	}

	// Gather: walk selected positions in order; per position, collect the
	// interested clients in slot (= ascending qid) order. The per-word
	// active-client list keeps the per-position loop proportional to the
	// clients that matched anything in the word, not all clients. The
	// build-key filter masks the word's selection (the union of the
	// clients' words, which is all the walk visits) first.
	act := ps.act[:0]
	for w := 0; w < words; w++ {
		var anyw uint64
		act = act[:0]
		for ci := 0; ci < nc; ci++ {
			if pw := per[ci][w]; pw != 0 {
				anyw |= pw
				act = append(act, int32(ci))
			}
		}
		if kf.col != nil && anyw != 0 {
			anyw &= kf.set.mask(kf.col, base+w<<6, anyw)
		}
		for anyw != 0 {
			tz := bits.TrailingZeros64(anyw)
			anyw &= anyw - 1
			mask := uint64(1) << tz
			ids := ps.ids[:0]
			for _, ci := range act {
				if per[ci][w]&mask != 0 {
					ids = append(ids, ix.ids[ci])
				}
			}
			ps.ids = ids
			// ids are already sorted: slots are in qid order.
			sink(m, base+w<<6+tz, queryset.FromSorted(ids))
		}
	}
	ps.act = act
}

// eqHashWord fills hs with the Value.Hash image of every selected lane of
// one bitmap word, with the representation switch hoisted out of the row
// loop. pos0 is the chunk-global position of lane 0; vw is the column's
// validity word (unused for generic columns).
func eqHashWord(c *colVec, rows []types.Row, col, pos0 int, bw, vw uint64, hs *[64]uint64) {
	switch c.rep {
	case repI64:
		for t := bw; t != 0; {
			tz := bits.TrailingZeros64(t)
			t &= t - 1
			if vw&(1<<uint(tz)) != 0 {
				hs[tz] = types.HashInt(c.i64[pos0+tz])
			} else {
				hs[tz] = types.HashNull
			}
		}
	case repF64:
		for t := bw; t != 0; {
			tz := bits.TrailingZeros64(t)
			t &= t - 1
			if vw&(1<<uint(tz)) != 0 {
				hs[tz] = types.HashFloat(c.f64[pos0+tz])
			} else {
				hs[tz] = types.HashNull
			}
		}
	case repStr:
		for t := bw; t != 0; {
			tz := bits.TrailingZeros64(t)
			t &= t - 1
			if vw&(1<<uint(tz)) != 0 {
				hs[tz] = types.HashString(c.str[pos0+tz])
			} else {
				hs[tz] = types.HashNull
			}
		}
	default:
		for t := bw; t != 0; {
			tz := bits.TrailingZeros64(t)
			t &= t - 1
			hs[tz] = rows[pos0+tz][col].Hash()
		}
	}
}

// likeLane is the single-lane fallback of likeWord for sparse words.
func likeLane(s string, shape expr.LikeShape, needle string) bool {
	switch shape {
	case expr.LikeExact:
		return s == needle
	case expr.LikePrefix:
		return strings.HasPrefix(s, needle)
	case expr.LikeSuffix:
		return strings.HasSuffix(s, needle)
	case expr.LikeContains:
		return strings.Contains(s, needle)
	default:
		return expr.MatchLike(needle, s)
	}
}
