package storage

import (
	"shareddb/internal/btree"
	"shareddb/internal/types"
)

// Locked index look-ups.
//
// Before generation pipelining, shared operators resolved row visibility
// through a lock-free ReadView: the engine's generation barrier guaranteed
// no write ran while the operator dataflow executed. With up to
// Config.MaxInFlightGenerations read phases overlapping later generations'
// write phases, that guarantee is gone — B-tree traversals and version
// chains must be protected against concurrent mutation. These helpers hold
// the table read lock across one traversal and resolve visibility at a
// fixed snapshot, so callers (shared index joins, the query-at-a-time
// baseline) stay correct while writes land concurrently.

// IndexSeekAt seeks ix for key (equality, prefix semantics) and yields
// every visible row at snapshot ts whose visible version still carries the
// sought key, once each. fn returning false stops the traversal. The table
// read lock is held for the whole seek; fn must not call back into this
// table's locking methods.
func (t *Table) IndexSeekAt(ix *Index, key btree.Key, ts uint64, fn func(rid RowID, row types.Row) bool) {
	t.IndexScanAt(ix, key, key, true, true, ts, fn)
}

// IndexScanAt scans ix over [lo, hi] and yields every visible row at
// snapshot ts through the one entry that carries its visible version's key,
// under the table read lock. Entries for superseded versions linger in the
// tree until GC and are skipped; since the tree stores unique (full key,
// rid) pairs and a version has exactly one full key, each row is yielded at
// most once and no per-call dedup state is needed. fn returning false stops
// the traversal.
func (t *Table) IndexScanAt(ix *Index, lo, hi btree.Key, loIncl, hiIncl bool, ts uint64, fn func(rid RowID, row types.Row) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	ix.tree.Scan(lo, hi, loIncl, hiIncl, func(key btree.Key, rid uint64) bool {
		row, visible := t.visibleLocked(rid, ts)
		if !visible || !indexKeyMatches(ix, row, key) {
			return true
		}
		return fn(rid, row)
	})
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
