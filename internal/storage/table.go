// Package storage implements SharedDB's storage manager, modeled on
// Crescando (paper §4.4): a main-memory MVCC row store with snapshot
// isolation, a batched shared table scan (ClockScan) that indexes query
// predicates instead of data, shared B-tree index probes, and durability via
// write-ahead logging and checkpoints.
package storage

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"shareddb/internal/btree"
	"shareddb/internal/expr"
	"shareddb/internal/types"
)

// RowID identifies a logical row (a slot whose version chain evolves over
// time). RowIDs are dense and never reused.
type RowID = uint64

// TSMax marks a version as live (no successor).
const TSMax = math.MaxUint64

// version is one MVCC version of a row. A version is visible to snapshot ts
// iff beginTS <= ts < endTS. Chains are newest-first.
type version struct {
	row     types.Row
	beginTS uint64
	endTS   uint64
	older   *version
}

// Index is a secondary (or primary) B-tree index over a table.
//
// The tree maps column values of *all* row versions to RowIDs; readers must
// re-check the visible version against the sought key because entries for
// superseded versions linger until garbage collection.
type Index struct {
	Name   string
	Cols   []int
	Unique bool
	tree   *btree.Tree
}

// Tree exposes the underlying B-tree for shared probe operators.
func (ix *Index) Tree() *btree.Tree { return ix.tree }

// KeyFor extracts the index key from a row.
func (ix *Index) KeyFor(row types.Row) btree.Key {
	k := make(btree.Key, len(ix.Cols))
	for i, c := range ix.Cols {
		k[i] = row[c]
	}
	return k
}

// Table is an MVCC table: a slice of version-chain slots plus indexes.
//
// Concurrency contract: mutations (Insert/Update/Delete/GC) are serialized
// by the Database's commit path while holding mu for writing; readers take
// mu for reading. Version chains themselves are immutable except for head
// replacement and endTS sealing, both done under the write lock.
type Table struct {
	mu      sync.RWMutex
	name    string
	schema  *types.Schema
	slots   []*version
	indexes []*Index
	pk      *Index // primary-key index, also present in indexes

	// colm is the columnar read mirror (colstore.go), attached lazily by
	// the first SharedScan. Once attached, every mutation below
	// appends a (rid, ts) record to its pending log — see colMirror for the
	// locking contract (the log is guarded by mu, the mirror by its own
	// lock, so writers never block on scans).
	colm *colMirror
	// lastWriteTS is the commit timestamp of the newest mutation (guarded
	// by mu): what a mirror attached now has not been told about.
	lastWriteTS uint64

	// Write stamps, stored under mu and read without it (ChangedSince):
	// rowsTS is the commit timestamp of the newest insert or delete, and
	// colTS[c] that of the newest update that changed column c bit for bit.
	rowsTS atomic.Uint64
	colTS  []atomic.Uint64
}

// NewTable creates an empty table.
func NewTable(name string, schema *types.Schema) *Table {
	return &Table{name: name, schema: schema, colTS: make([]atomic.Uint64, len(schema.Cols))}
}

// ChangedSince reports whether a commit after ts inserted or deleted a row
// of t or changed one of cols in place: a read of those columns at ts
// answers for every later snapshot until this turns true.
func (t *Table) ChangedSince(ts uint64, cols []int) bool {
	if t.rowsTS.Load() > ts {
		return true
	}
	for _, c := range cols {
		if t.colTS[c].Load() > ts {
			return true
		}
	}
	return false
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() *types.Schema { return t.schema }

// NumSlots returns the number of allocated row slots (live + dead).
func (t *Table) NumSlots() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.slots)
}

// AddIndex creates an index over the named columns. Must be called before
// rows exist or is backfilled from the latest versions.
func (t *Table) AddIndex(name string, unique bool, cols ...string) (*Index, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	idxCols := make([]int, len(cols))
	for i, c := range cols {
		ci, err := t.schema.ColIndex(c)
		if err != nil {
			return nil, fmt.Errorf("index %s: %w", name, err)
		}
		idxCols[i] = ci
	}
	ix := &Index{Name: name, Cols: idxCols, Unique: unique, tree: btree.New()}
	for rid, v := range t.slots {
		for ver := v; ver != nil; ver = ver.older {
			ix.tree.Insert(ix.KeyFor(ver.row), uint64(rid))
		}
	}
	t.indexes = append(t.indexes, ix)
	return ix, nil
}

// SetPrimaryKey creates (or designates) the unique primary-key index.
func (t *Table) SetPrimaryKey(cols ...string) (*Index, error) {
	ix, err := t.AddIndex("pk_"+t.name, true, cols...)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	t.pk = ix
	t.mu.Unlock()
	return ix, nil
}

// PrimaryKey returns the primary-key index or nil.
func (t *Table) PrimaryKey() *Index {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.pk
}

// Indexes returns the table's indexes.
func (t *Table) Indexes() []*Index {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]*Index, len(t.indexes))
	copy(out, t.indexes)
	return out
}

// IndexByName returns the named index or nil.
func (t *Table) IndexByName(name string) *Index {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, ix := range t.indexes {
		if ix.Name == name {
			return ix
		}
	}
	return nil
}

// PinnedIndex chooses the index to seek for a predicate with pins: the one
// whose longest leading-column prefix the pins cover, a unique one on ties,
// else the first. n is that prefix's length; n is 0 (and best nil) when no
// index's leading column is pinned. The planner's index probes and write
// target resolution both choose here.
func PinnedIndex(indexes []*Index, pins expr.Pins) (best *Index, n int) {
	for _, ix := range indexes {
		k := 0
		for k < len(ix.Cols) {
			if _, ok := pins.Of(ix.Cols[k]); !ok {
				break
			}
			k++
		}
		if k > n || (k == n && k > 0 && ix.Unique && !best.Unique) {
			best, n = ix, k
		}
	}
	return best, n
}

// insertLocked appends a new row visible from ts. Caller holds mu.
func (t *Table) insertLocked(row types.Row, ts uint64) RowID {
	rid := RowID(len(t.slots))
	t.slots = append(t.slots, &version{row: row, beginTS: ts, endTS: TSMax})
	for _, ix := range t.indexes {
		ix.tree.Insert(ix.KeyFor(row), rid)
	}
	t.rowsTS.Store(ts)
	t.recordWrite(rid, ts)
	return rid
}

// updateLocked installs a new version of rid visible from ts and stamps
// each column whose value it changes; Value == is bit identity, so -0.0
// replacing 0.0 stamps and a write of the current value does not. (A head
// with no row is a dead slot WAL replay padded in: every column changes.)
// Caller holds mu and has verified visibility/conflicts.
func (t *Table) updateLocked(rid RowID, newRow types.Row, ts uint64) {
	head := t.slots[rid]
	for c := range newRow {
		if c >= len(head.row) || newRow[c] != head.row[c] {
			t.colTS[c].Store(ts)
		}
	}
	head.endTS = ts
	t.slots[rid] = &version{row: newRow, beginTS: ts, endTS: TSMax, older: head}
	for _, ix := range t.indexes {
		oldKey, newKey := ix.KeyFor(head.row), ix.KeyFor(newRow)
		if btree.CompareKeys(oldKey, newKey) != 0 {
			// Old entry stays for old-snapshot readers; GC removes it.
			ix.tree.Insert(newKey, rid)
		}
	}
	t.recordWrite(rid, ts)
}

// deleteLocked seals the head version of rid at ts. Caller holds mu.
func (t *Table) deleteLocked(rid RowID, ts uint64) {
	t.slots[rid].endTS = ts
	t.rowsTS.Store(ts)
	t.recordWrite(rid, ts)
}

// Visible returns the version of rid visible at snapshot ts.
func (t *Table) Visible(rid RowID, ts uint64) (types.Row, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.visibleLocked(rid, ts)
}

func (t *Table) visibleLocked(rid RowID, ts uint64) (types.Row, bool) {
	if rid >= uint64(len(t.slots)) {
		return nil, false
	}
	for v := t.slots[rid]; v != nil; v = v.older {
		if v.beginTS <= ts && ts < v.endTS {
			return v.row, true
		}
	}
	return nil, false
}

// lastModTS returns the timestamp of the most recent modification of rid
// (insert, update or delete); used for snapshot-isolation first-committer-
// wins conflict checks. Caller holds mu.
func (t *Table) lastModTS(rid RowID) uint64 {
	if rid >= uint64(len(t.slots)) {
		return 0
	}
	v := t.slots[rid]
	if v.endTS != TSMax {
		return v.endTS // head sealed: row was deleted at endTS
	}
	return v.beginTS
}

// ScanVisible iterates all rows visible at ts in RowID order. fn returning
// false stops the scan.
//
// The table read lock is held for the whole pass: with pipelined
// generations, writes of later generations land while earlier generations'
// read cycles are still scanning, so version chains can no longer be
// traversed lock-free. Writers (ApplyOps / CommitTxBatch) block until the
// pass completes; readers of other generations proceed concurrently. fn
// must not call back into this table's locking methods.
func (t *Table) ScanVisible(ts uint64, fn func(rid RowID, row types.Row) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for rid, head := range t.slots {
		for v := head; v != nil; v = v.older {
			if v.beginTS <= ts && ts < v.endTS {
				if !fn(RowID(rid), v.row) {
					return
				}
				break
			}
		}
	}
}

// CountVisible returns the number of rows visible at ts.
func (t *Table) CountVisible(ts uint64) int {
	n := 0
	t.ScanVisible(ts, func(RowID, types.Row) bool { n++; return true })
	return n
}

// GC truncates version chains: versions whose endTS <= beforeTS can no
// longer be seen by any snapshot the database will serve and are unlinked.
// Stale index entries referencing keys that no surviving version carries are
// removed.
func (t *Table) GC(beforeTS uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for rid, head := range t.slots {
		// Find the oldest version that is still needed: the newest version
		// with beginTS <= beforeTS survives (it is visible at beforeTS),
		// everything older goes.
		var keep *version
		for v := head; v != nil; v = v.older {
			keep = v
			if v.beginTS <= beforeTS {
				break
			}
		}
		if keep == nil || keep.older == nil {
			continue
		}
		// Collect surviving keys per index, then drop entries that belong
		// only to truncated versions.
		for _, ix := range t.indexes {
			surviving := map[string]bool{}
			for v := head; v != nil; v = v.older {
				surviving[types.EncodeKey(ix.KeyFor(v.row)...)] = true
				if v == keep {
					break
				}
			}
			for v := keep.older; v != nil; v = v.older {
				k := ix.KeyFor(v.row)
				if !surviving[types.EncodeKey(k...)] {
					ix.tree.Delete(k, uint64(rid))
					surviving[types.EncodeKey(k...)] = true // delete once
				}
			}
		}
		keep.older = nil
	}
}
