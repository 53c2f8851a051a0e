package storage

import (
	"shareddb/internal/btree"
	"shareddb/internal/expr"
	"shareddb/internal/types"
)

// Locked index look-ups.
//
// With up to Config.MaxInFlightGenerations read phases overlapping later
// generations' write phases, B-tree traversals and version chains must be
// protected against concurrent mutation. A Locked holds the table read lock
// for as long as its caller needs it — one outer batch of an index join,
// one shared probe cycle — and resolves every look-up at a fixed snapshot,
// so callers stay correct while writes land concurrently and pay for the
// lock once per batch, not once per key.

// Locked is a table whose read lock the caller holds. Its callbacks must
// not call back into the table's locking methods.
type Locked struct{ t *Table }

// RLock takes the table read lock; the caller must Unlock the result.
func (t *Table) RLock() Locked {
	t.mu.RLock()
	return Locked{t}
}

// Unlock releases the read lock taken by RLock.
func (l Locked) Unlock() { l.t.mu.RUnlock() }

// IndexSeekAt seeks ix for key (equality, prefix semantics) and yields
// every visible row at snapshot ts whose visible version still carries the
// sought key, once each. fn returning false stops the traversal. The table
// read lock is held for the whole seek; fn must not call back into this
// table's locking methods.
func (t *Table) IndexSeekAt(ix *Index, key btree.Key, ts uint64, fn func(rid RowID, row types.Row) bool) {
	t.IndexScanAt(ix, key, key, true, true, ts, fn)
}

// IndexScanAt is Locked.IndexScanAt under a read lock of its own.
func (t *Table) IndexScanAt(ix *Index, lo, hi btree.Key, loIncl, hiIncl bool, ts uint64, fn func(rid RowID, row types.Row) bool) {
	l := t.RLock()
	defer l.Unlock()
	l.IndexScanAt(ix, lo, hi, loIncl, hiIncl, ts, fn)
}

// IndexScanAt scans ix over [lo, hi] and yields every visible row at
// snapshot ts through the one entry that carries its visible version's key.
// Entries for superseded versions linger in the tree until GC and are
// skipped; since the tree stores unique (full key, rid) pairs and a version
// has exactly one full key, each row is yielded at most once and no
// per-call dedup state is needed. fn returning false stops the traversal.
func (l Locked) IndexScanAt(ix *Index, lo, hi btree.Key, loIncl, hiIncl bool, ts uint64, fn func(rid RowID, row types.Row) bool) {
	ix.tree.Scan(lo, hi, loIncl, hiIncl, func(key btree.Key, rid uint64) bool {
		row, ok := l.t.entryRow(ix, key, rid, ts)
		return !ok || fn(rid, row)
	})
}

// IndexCursor runs the equality seeks of one batch over ix at one snapshot:
// each Seek yields what IndexSeekAt yields. Keys sought in ascending order
// walk forward through neighbouring leaves (btree.Cursor); both shared
// index paths — the probe cycle and the index join — seek this way.
type IndexCursor struct {
	t   *Table
	ix  *Index
	ts  uint64
	cur btree.Cursor
}

// IndexCursor returns a cursor over ix at snapshot ts, valid while l is held.
func (l Locked) IndexCursor(ix *Index, ts uint64) IndexCursor {
	return IndexCursor{t: l.t, ix: ix, ts: ts, cur: ix.tree.Cursor()}
}

// Seek yields every visible row at the cursor's snapshot whose visible
// version carries key (equality, prefix semantics), once each, in index
// order. fn returning false stops the seek.
func (c *IndexCursor) Seek(key btree.Key, fn func(rid RowID, row types.Row) bool) {
	c.cur.Seek(key, func(k btree.Key, rid uint64) bool {
		row, ok := c.t.entryRow(c.ix, k, rid, c.ts)
		return !ok || fn(rid, row)
	})
}

// entryRow resolves one index entry at snapshot ts: the row version visible
// there, provided it is the version the entry was made for. A slot with a
// single version needs no key comparison — an entry exists only for keys a
// version of its slot carries (GC deletes stale entries together with the
// versions that owned them), so with one version it is that version's.
// Caller holds mu.
func (t *Table) entryRow(ix *Index, key btree.Key, rid RowID, ts uint64) (types.Row, bool) {
	head := t.slots[rid]
	if head.older == nil {
		return head.row, head.beginTS <= ts && ts < head.endTS
	}
	for v := head; v != nil; v = v.older {
		if v.beginTS <= ts && ts < v.endTS {
			return v.row, indexKeyMatches(ix, v.row, key)
		}
	}
	return nil, false
}

// indexKeyMatches reports whether row carries the index entry key under ix.
func indexKeyMatches(ix *Index, row types.Row, key btree.Key) bool {
	for i := range key {
		if !row[ix.Cols[i]].Equal(key[i]) {
			return false
		}
	}
	return true
}

// IndexEdgeAt returns the row a scalar MIN (max false) or MAX (max true)
// over column ix.Cols[len(prefix)] selects among the rows whose leading
// index columns equal prefix: it walks inward from that edge of the index
// past entries that are invisible at ts, deleted, stale (left behind by a
// key update), rejected by residual or — for MIN, where they sort first —
// NULL, and stops at the first value that has a qualifying row. Among
// several rows carrying that value it returns the one with the smallest row
// id, the row a scan in row-id order would have kept. ok is false when no
// row qualifies.
func (l Locked) IndexEdgeAt(ix *Index, prefix btree.Key, max bool, ts uint64, residual expr.Expr) (rid RowID, row types.Row, ok bool) {
	if len(prefix) == 0 {
		prefix = nil // unbounded, not "every key shares the empty prefix"
	}
	var best types.Value
	visit := func(key btree.Key, r uint64) bool {
		v := key[len(prefix)]
		if ok && v.Compare(best) != 0 {
			return false
		}
		if v.IsNull() {
			return !max // NULL sorts first: MIN walks past the run, MAX has run out of values
		}
		cand, visible := l.t.entryRow(ix, key, r, ts)
		if visible && expr.TruthyEval(residual, cand, nil) && (!ok || r < rid) {
			rid, row, best, ok = r, cand, v, true
		}
		return true
	}
	if max {
		ix.tree.Descend(prefix, prefix, true, true, visit)
	} else {
		ix.tree.Scan(prefix, prefix, true, true, visit)
	}
	return rid, row, ok
}
