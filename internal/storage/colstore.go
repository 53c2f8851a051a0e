package storage

import (
	"math"
	"math/bits"
	"slices"
	"sync"

	"shareddb/internal/types"
)

// This file implements the per-table columnar read mirror every shared
// scan reads: typed flat vectors (int64 / float64 / string with a
// validity bitmap) over the rows visible at one snapshot, maintained in
// place from the table's write stream. The mirror trades a per-row
// version-chain walk (pointer chase + interface dispatch per row per cycle)
// for cache-linear vector passes; SharedScan (colscan.go) evaluates
// the ClockScan predicate index column-at-a-time over it.
//
// Maintenance is incremental: writers append (rid, commitTS) records to a
// pending log under the table lock, and the scan synchronizes the mirror to
// its snapshot by draining the pending prefix with ts <= snapshot —
// appending inserts, tombstoning deletes via the live bitmap, patching
// updates in place — classified by visibility at the snapshot boundary.
// Chain mismatch (a snapshot older than the mirror) or a pending backlog
// larger than the mirror falls back to a rebuild from ScanVisible.
// Compaction rewrites the vectors when the dead fraction crosses
// colCompactDeadFraction.

// colRep selects the physical representation of one column vector.
type colRep uint8

const (
	// repGeneric keeps no typed vector: values are read from the mirrored
	// rows (mixed-kind columns, or kinds without a flat representation).
	repGeneric colRep = iota
	repI64            // KindInt / KindBool / KindTime, stored as int64
	repF64            // KindFloat
	repStr            // KindString
)

// colVec is one column of the mirror. For the typed representations every
// non-NULL value has exactly the vector's kind (the uniform-kind
// invariant); a value of any other kind demotes the whole column to
// repGeneric, because coercing comparisons (and the total order's kind-tag
// fallback) depend on the stored kind tag, not just the payload.
type colVec struct {
	rep   colRep
	kind  types.Kind
	i64   []int64
	f64   []float64
	str   []string
	valid []uint64 // bit i set = position i is non-NULL (typed reps only)

	// zmin/zmax are the int vector's zone map: per 64-lane word, bounds
	// on the values of its valid lanes (repI64 only). They are
	// conservative — set on append, widened on patch, recomputed on
	// compaction and rebuild, dropped on demotion — so a word whose zone
	// misses a range holds no match, and a word whose zone lies inside it
	// matches on every live valid lane. A word with no valid lane has
	// zmin > zmax.
	zmin, zmax []int64
}

// reset re-derives the representation from the schema kind and empties the
// vector (rebuild and initial attach).
func (c *colVec) reset(kind types.Kind) {
	c.kind = kind
	switch kind {
	case types.KindInt, types.KindBool, types.KindTime:
		c.rep = repI64
	case types.KindFloat:
		c.rep = repF64
	case types.KindString:
		c.rep = repStr
	default:
		c.rep = repGeneric
	}
	c.i64 = c.i64[:0]
	c.zmin = c.zmin[:0]
	c.zmax = c.zmax[:0]
	c.f64 = c.f64[:0]
	clear(c.str)
	c.str = c.str[:0]
	clear(c.valid)
	c.valid = c.valid[:0]
}

// demote abandons the typed vector: reads go through the mirrored rows.
func (c *colVec) demote() {
	c.rep = repGeneric
	c.i64 = nil
	c.zmin, c.zmax = nil, nil
	c.f64 = nil
	c.str = nil
	c.valid = nil
}

// appendVal appends v as position n (the vector's current length).
func (c *colVec) appendVal(v types.Value, n int) {
	if c.rep == repGeneric {
		return
	}
	for len(c.valid) <= n>>6 {
		c.valid = append(c.valid, 0)
		if c.rep == repI64 {
			c.zmin = append(c.zmin, math.MaxInt64)
			c.zmax = append(c.zmax, math.MinInt64)
		}
	}
	null := v.IsNull()
	if !null && v.K != c.kind {
		c.demote()
		return
	}
	switch c.rep {
	case repI64:
		c.i64 = append(c.i64, v.Int)
		if !null {
			c.widen(n>>6, v.Int)
		}
	case repF64:
		c.f64 = append(c.f64, v.AsFloat())
	case repStr:
		c.str = append(c.str, v.Str)
	}
	if !null {
		c.valid[n>>6] |= 1 << (n & 63)
	}
}

// setVal overwrites position i (update patch).
func (c *colVec) setVal(v types.Value, i int) {
	if c.rep == repGeneric {
		return
	}
	null := v.IsNull()
	if !null && v.K != c.kind {
		c.demote()
		return
	}
	switch c.rep {
	case repI64:
		c.i64[i] = v.Int
		if !null {
			c.widen(i>>6, v.Int)
		}
	case repF64:
		c.f64[i] = v.AsFloat()
	case repStr:
		c.str[i] = v.Str
	}
	if null {
		c.valid[i>>6] &^= 1 << (i & 63)
	} else {
		c.valid[i>>6] |= 1 << (i & 63)
	}
}

// value returns position pos of the column exactly as rows[pos][col]
// holds it, reading the typed vector when there is one (the uniform-kind
// invariant makes the two identical).
func (c *colVec) value(rows []types.Row, col, pos int) types.Value {
	if c.rep == repGeneric {
		return rows[pos][col]
	}
	if c.valid[pos>>6]&(1<<(pos&63)) == 0 {
		return types.Null
	}
	switch c.rep {
	case repI64:
		return types.Value{K: c.kind, Int: c.i64[pos]}
	case repF64:
		return types.NewFloat(c.f64[pos])
	default:
		return types.NewString(c.str[pos])
	}
}

// widen stretches word w's zone to cover x.
func (c *colVec) widen(w int, x int64) {
	c.zmin[w] = min(c.zmin[w], x)
	c.zmax[w] = max(c.zmax[w], x)
}

// rezone recomputes every word's zone from its valid lanes (after
// compaction moved the lanes).
func (c *colVec) rezone() {
	for w := range c.zmin {
		lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
		for t := c.valid[w]; t != 0; t &= t - 1 {
			x := c.i64[w<<6+bits.TrailingZeros64(t)]
			lo, hi = min(lo, x), max(hi, x)
		}
		c.zmin[w], c.zmax[w] = lo, hi
	}
}

// colPending is one write-stream record: rid changed at commit timestamp
// ts. Appended by the mutation funnel under the table write lock.
type colPending struct {
	rid RowID
	ts  uint64
}

// colMirror is the columnar read mirror of one table.
//
// Locking: mu guards every field except pending, pendingCap and droppedTS,
// which the owning Table's mu guards (writers never take mirror locks, so
// the write path cannot deadlock against a scan). The lock order is
// mirror.mu before Table.mu — sync holds mu exclusively while it drains
// pending and reads version chains, and the scan pass holds mu shared for
// its whole cycle.
type colMirror struct {
	mu sync.RWMutex

	built bool
	asOf  uint64 // snapshot the mirror matches
	// maxSynced is the highest snapshot ever synchronized: pending records
	// up to it have been consumed, so incremental apply is only sound while
	// the mirror sits at this frontier (asOf == maxSynced). A pin at an
	// older snapshot rebuilds and leaves the mirror behind the frontier;
	// the next forward pin must rebuild too, because the records between
	// asOf and maxSynced are gone from the log.
	maxSynced uint64

	rids []RowID     // ascending (RowIDs are allocated monotonically)
	rows []types.Row // visible row at asOf; nil at dead positions
	cols []colVec
	live []uint64 // selection bitmap over positions; tail bits are zero
	dead int      // count of cleared live bits

	// stats (guarded by mu; test observability)
	rebuilds    uint64
	incSyncs    uint64
	compactions uint64

	// pending is the unapplied write stream, ordered by nondecreasing ts
	// (commit timestamps are handed out monotonically under the same lock).
	// Guarded by Table.mu, NOT by mu.
	pending []colPending
	// pendingCap is the longest log the next sync would still apply row by
	// row (the rebuild rule in syncLocked, as of the last sync). A longer
	// log is dropped and its newest commit ts kept in droppedTS: the next
	// sync rebuilds anyway, so a table written but no longer scanned keeps
	// a bounded log. Both guarded by Table.mu.
	pendingCap int
	droppedTS  uint64

	drain []colPending // sync scratch, guarded by mu
}

// Maintenance thresholds. Vars so tests can force the rebuild and
// compaction paths on small fixtures.
var (
	// colCompactMinRows: mirrors smaller than this never compact (the
	// rewrite costs more than scanning a few dead slots).
	colCompactMinRows = 1024
	// colRebuildMinPending: a drained backlog larger than both this and the
	// mirror itself is applied by rebuilding instead of row-at-a-time.
	colRebuildMinPending = 1024
)

// colCompactDeadFraction (as a ratio n/d) is the dead fraction that
// triggers compaction: dead*colCompactDeadDen >= len(rids)*colCompactDeadNum.
const (
	colCompactDeadNum = 1
	colCompactDeadDen = 2
)

// columnarMirror returns the table's mirror, attaching (and thereby
// activating pending-log capture in the mutation funnel) on first use. The
// log starts empty, so writes up to lastWriteTS are in no log: seeding the
// drained frontier with it makes a first build at an older snapshot (a
// pipelined generation scanning a table storage has already moved past)
// rebuild again on the next forward pin instead of applying an incomplete
// log.
func (t *Table) columnarMirror() *colMirror {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.colm == nil {
		t.colm = &colMirror{maxSynced: t.lastWriteTS, pendingCap: colRebuildMinPending}
	}
	return t.colm
}

// recordWrite appends one write-stream record. Caller holds t.mu for
// writing (the insertLocked/updateLocked/deleteLocked funnel).
func (t *Table) recordWrite(rid RowID, ts uint64) {
	t.lastWriteTS = ts
	if m := t.colm; m != nil {
		if n := len(m.pending); n >= m.pendingCap {
			m.droppedTS = m.pending[n-1].ts
			clear(m.pending)
			m.pending = m.pending[:0]
		}
		m.pending = append(m.pending, colPending{rid: rid, ts: ts})
	}
}

// pin brings the mirror to snapshot ts and returns with mu held shared.
// Concurrent pins at different snapshots (pipelined generations) serialize
// on mu; the loop re-checks because another pin may move asOf between the
// exclusive sync and re-acquiring the shared lock.
func (m *colMirror) pin(t *Table, ts uint64) {
	for {
		m.mu.RLock()
		if m.built && m.asOf == ts {
			return
		}
		m.mu.RUnlock()
		m.mu.Lock()
		m.syncLocked(t, ts)
		m.mu.Unlock()
	}
}

// syncLocked synchronizes the mirror to ts. Caller holds mu exclusively.
func (m *colMirror) syncLocked(t *Table, ts uint64) {
	if m.built && m.asOf == ts {
		return
	}

	// Drain the pending prefix with ts' <= ts under the table lock. The log
	// is ordered by nondecreasing commit ts, so the prefix is exact; later
	// entries belong to generations beyond this snapshot and stay queued.
	// Records up to droppedTS are gone from the log, so the frontier moves
	// past them and the mirror rebuilds until a sync reaches it.
	defer m.setPendingCap(t)
	t.mu.Lock()
	m.maxSynced = max(m.maxSynced, m.droppedTS)
	pend := m.pending
	k := 0
	for k < len(pend) && pend[k].ts <= ts {
		k++
	}
	m.drain = append(m.drain[:0], pend[:k]...)
	n := copy(pend, pend[k:])
	clear(pend[n:])
	m.pending = pend[:n]
	t.mu.Unlock()

	switch {
	case !m.built, ts < m.asOf, m.asOf != m.maxSynced:
		// Chain mismatch: the mirror is ahead of (or does not cover) this
		// snapshot, or sits behind the drained frontier — reprime from a
		// full scan.
		m.rebuildLocked(t, ts)
		return
	case len(m.drain) > colRebuildMinPending && len(m.drain) > len(m.rids):
		// The backlog dwarfs the mirror; a rebuild is cheaper than applying
		// it row by row.
		m.rebuildLocked(t, ts)
		return
	}

	if len(m.drain) > 0 {
		m.applyLocked(t, ts)
		if !m.built {
			// applyLocked hit an ordering violation; reprime.
			m.rebuildLocked(t, ts)
			return
		}
	}
	m.asOf = ts
	m.maxSynced = ts // incremental apply only runs at the frontier, ts > asOf
	m.incSyncs++

	if m.dead*colCompactDeadDen >= len(m.rids)*colCompactDeadNum && len(m.rids) >= colCompactMinRows {
		m.compactLocked()
	}
}

// setPendingCap publishes the log length past which the next sync would
// rebuild: more than colRebuildMinPending and more than the mirror's rows.
func (m *colMirror) setPendingCap(t *Table) {
	t.mu.Lock()
	m.pendingCap = max(colRebuildMinPending, len(m.rids))
	t.mu.Unlock()
}

// applyLocked applies the drained write records: each touched rid is
// classified by membership in the mirror and visibility at ts into append /
// tombstone / patch / no-op. Clears m.built on an append ordering violation
// (defensive; RowIDs invisible at the mirror's snapshot cannot become
// visible later, so appends always carry rids beyond the current tail).
// Caller holds mu exclusively.
func (m *colMirror) applyLocked(t *Table, ts uint64) {
	slices.SortFunc(m.drain, func(a, b colPending) int {
		switch {
		case a.rid < b.rid:
			return -1
		case a.rid > b.rid:
			return 1
		default:
			return 0
		}
	})
	t.mu.RLock()
	defer t.mu.RUnlock()
	var prev RowID = math.MaxUint64
	for _, e := range m.drain {
		if e.rid == prev {
			continue // several writes to one rid collapse into one check
		}
		prev = e.rid
		row, vis := t.visibleLocked(e.rid, ts)
		pos, found := slices.BinarySearch(m.rids, e.rid)
		switch {
		case found && vis:
			// Patch in place (update, or a tombstone revival on replayed
			// histories): install the visible row and refresh every column.
			m.rows[pos] = row
			for ci := range m.cols {
				m.cols[ci].setVal(row[ci], pos)
			}
			if m.live[pos>>6]&(1<<(pos&63)) == 0 {
				m.live[pos>>6] |= 1 << (pos & 63)
				m.dead--
			}
		case found:
			// Tombstone: clear the selection bit, release the row.
			if m.live[pos>>6]&(1<<(pos&63)) != 0 {
				m.live[pos>>6] &^= 1 << (pos & 63)
				m.dead++
			}
			m.rows[pos] = nil
		case vis:
			if len(m.rids) > 0 && e.rid <= m.rids[len(m.rids)-1] {
				m.built = false // ordering violation: force a rebuild
				return
			}
			m.appendRowLocked(e.rid, row)
		default:
			// Never visible at this snapshot (inserted and superseded within
			// the drained window, or inserted above ts): nothing to mirror.
		}
	}
}

// appendRowLocked appends one visible row at the mirror tail. Caller holds
// mu exclusively (and t.mu at least shared).
func (m *colMirror) appendRowLocked(rid RowID, row types.Row) {
	n := len(m.rids)
	m.rids = append(m.rids, rid)
	m.rows = append(m.rows, row)
	for ci := range m.cols {
		m.cols[ci].appendVal(row[ci], n)
	}
	for len(m.live) <= n>>6 {
		m.live = append(m.live, 0)
	}
	m.live[n>>6] |= 1 << (n & 63)
}

// rebuildLocked reprimes the mirror from a full visible scan at ts. Caller
// holds mu exclusively.
func (m *colMirror) rebuildLocked(t *Table, ts uint64) {
	schema := t.Schema()
	if len(m.cols) != len(schema.Cols) {
		m.cols = make([]colVec, len(schema.Cols))
	}
	for ci := range m.cols {
		m.cols[ci].reset(schema.Cols[ci].Kind)
	}
	m.rids = m.rids[:0]
	clear(m.rows)
	m.rows = m.rows[:0]
	clear(m.live)
	m.live = m.live[:0]
	m.dead = 0
	t.ScanVisible(ts, func(rid RowID, row types.Row) bool {
		m.appendRowLocked(rid, row)
		return true
	})
	m.built = true
	m.asOf = ts
	m.maxSynced = max(m.maxSynced, ts)
	m.rebuilds++
}

// compactLocked rewrites the vectors keeping only live positions (rid order
// is preserved — positions stay sorted by rid, so emission order is
// untouched). Caller holds mu exclusively.
func (m *colMirror) compactLocked() {
	w := 0
	for i := range m.rids {
		if m.live[i>>6]&(1<<(i&63)) == 0 {
			continue
		}
		if w != i {
			m.rids[w] = m.rids[i]
			m.rows[w] = m.rows[i]
			for ci := range m.cols {
				c := &m.cols[ci]
				switch c.rep {
				case repI64:
					c.i64[w] = c.i64[i]
				case repF64:
					c.f64[w] = c.f64[i]
				case repStr:
					c.str[w] = c.str[i]
				}
				if c.rep != repGeneric {
					if c.valid[i>>6]&(1<<(i&63)) != 0 {
						c.valid[w>>6] |= 1 << (w & 63)
					} else {
						c.valid[w>>6] &^= 1 << (w & 63)
					}
				}
			}
		}
		w++
	}
	old := len(m.rids)
	m.rids = m.rids[:w]
	clear(m.rows[w:old])
	m.rows = m.rows[:w]
	words := (w + 63) / 64
	for i := 0; i < words; i++ {
		m.live[i] = ^uint64(0)
	}
	if w&63 != 0 {
		m.live[words-1] = (1 << (w & 63)) - 1
	}
	clear(m.live[words:])
	m.live = m.live[:words]
	for ci := range m.cols {
		c := &m.cols[ci]
		switch c.rep {
		case repI64:
			c.i64 = c.i64[:w]
		case repF64:
			c.f64 = c.f64[:w]
		case repStr:
			clear(c.str[w:old])
			c.str = c.str[:w]
		}
		if c.rep != repGeneric {
			if w&63 != 0 {
				c.valid[words-1] &= (1 << (w & 63)) - 1
			}
			clear(c.valid[words:])
			c.valid = c.valid[:words]
		}
		if c.rep == repI64 {
			c.zmin, c.zmax = c.zmin[:words], c.zmax[:words]
			c.rezone()
		}
	}
	m.dead = 0
	m.compactions++
}

// colMirrorStats is the maintenance counter snapshot (test observability).
type colMirrorStats struct {
	rebuilds    uint64
	incSyncs    uint64
	compactions uint64
	rows        int
	dead        int
}

func (t *Table) columnarStats() colMirrorStats {
	t.mu.RLock()
	m := t.colm
	t.mu.RUnlock()
	if m == nil {
		return colMirrorStats{}
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	return colMirrorStats{
		rebuilds:    m.rebuilds,
		incSyncs:    m.incSyncs,
		compactions: m.compactions,
		rows:        len(m.rids),
		dead:        m.dead,
	}
}
