package storage

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"shareddb/internal/expr"
	"shareddb/internal/types"
)

// Common storage errors.
var (
	ErrConflict      = errors.New("storage: snapshot isolation write-write conflict")
	ErrUniqueViolate = errors.New("storage: unique index violation")
	ErrNoTable       = errors.New("storage: no such table")
	ErrTxDone        = errors.New("storage: transaction already finished")
)

// Options configures a Database.
type Options struct {
	// WALDir enables durability: updates are logged to WALDir and
	// checkpoints are written there. Empty disables logging (the
	// configuration the paper used for MySQL).
	WALDir string
	// SyncWAL fsyncs the log on every commit batch when true.
	SyncWAL bool
	// Shard records which hash partition of a sharded deployment this
	// database holds (metadata only; zero value = unsharded).
	Shard ShardInfo
}

// Database is the storage manager: a catalog of MVCC tables with a global
// commit clock providing snapshot isolation, plus optional WAL durability.
type Database struct {
	mu     sync.RWMutex
	tables map[string]*Table

	// commitMu serializes commit batches; clock/snapTS only change while it
	// is held. Readers load snapTS without commitMu via stateMu.
	commitMu sync.Mutex
	stateMu  sync.RWMutex
	clock    uint64 // last assigned commit timestamp
	snapTS   uint64 // latest published snapshot

	// pins are snapshots held by in-flight read generations; GC must not
	// truncate versions still visible at the oldest pin.
	pinMu sync.Mutex
	pins  map[uint64]int // snapshot ts → reference count

	wal   *WAL
	shard ShardInfo
}

// Shard reports which hash partition this database holds (zero value when
// unsharded).
func (db *Database) Shard() ShardInfo { return db.shard }

// PinCurrentSnapshot atomically reads the latest published snapshot and
// pins it, shielding the versions visible at it from GC until
// UnpinSnapshot. The read and the pin happen under the pin lock that
// GCAll's horizon computation also takes, so there is no window where a
// concurrent GC can truncate versions the about-to-run reader needs.
func (db *Database) PinCurrentSnapshot() uint64 {
	db.pinMu.Lock()
	ts := db.SnapshotTS()
	if db.pins == nil {
		db.pins = map[uint64]int{}
	}
	db.pins[ts]++
	db.pinMu.Unlock()
	return ts
}

// UnpinSnapshot releases a PinSnapshot reference.
func (db *Database) UnpinSnapshot(ts uint64) {
	db.pinMu.Lock()
	if db.pins[ts] > 1 {
		db.pins[ts]--
	} else {
		delete(db.pins, ts)
	}
	db.pinMu.Unlock()
}

// gcHorizon computes the GC truncation horizon: the current snapshot minus
// keep, capped by the oldest pinned snapshot. Held under pinMu so it is
// atomic with PinCurrentSnapshot — a pin taken after this returns is for a
// snapshot >= the horizon, whose visible versions GC preserves.
func (db *Database) gcHorizon(keep uint64) (uint64, bool) {
	db.pinMu.Lock()
	defer db.pinMu.Unlock()
	ts := db.SnapshotTS()
	if ts <= keep {
		return 0, false
	}
	horizon := ts - keep
	for pinned := range db.pins {
		if pinned < horizon {
			horizon = pinned
		}
	}
	return horizon, true
}

// Open creates a new empty database. If opts.WALDir is set, any existing
// checkpoint and log found there are NOT replayed automatically — call
// Recover after re-creating the schema.
func Open(opts Options) (*Database, error) {
	db := &Database{tables: map[string]*Table{}, shard: opts.Shard}
	if opts.WALDir != "" {
		w, err := OpenWAL(opts.WALDir, opts.SyncWAL)
		if err != nil {
			return nil, err
		}
		db.wal = w
	}
	return db, nil
}

// Close releases the WAL (if any).
func (db *Database) Close() error {
	if db.wal != nil {
		return db.wal.Close()
	}
	return nil
}

// CreateTable registers a new table.
func (db *Database) CreateTable(name string, schema *types.Schema) (*Table, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, dup := db.tables[name]; dup {
		return nil, fmt.Errorf("storage: table %q already exists", name)
	}
	t := NewTable(name, schema)
	db.tables[name] = t
	return t, nil
}

// Table returns the named table or nil.
func (db *Database) Table(name string) *Table {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tables[name]
}

// Tables returns all tables sorted by name.
func (db *Database) Tables() []*Table {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]*Table, 0, len(db.tables))
	for _, t := range db.tables {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// SnapshotTS returns the latest committed snapshot timestamp. All reads at
// this timestamp see a consistent database state.
func (db *Database) SnapshotTS() uint64 {
	db.stateMu.RLock()
	defer db.stateMu.RUnlock()
	return db.snapTS
}

func (db *Database) publish(ts uint64) {
	db.stateMu.Lock()
	db.clock = ts
	db.snapTS = ts
	db.stateMu.Unlock()
}

// WriteKind enumerates mutation kinds.
type WriteKind uint8

// Mutation kinds.
const (
	WInsert WriteKind = iota
	WUpdate
	WDelete
)

// ColSet assigns a new value (an expression over the old row) to a column.
type ColSet struct {
	Col int
	Val expr.Expr
}

// WriteOp is one logical mutation. Update/Delete targets are selected by a
// bound predicate over the table schema at apply time.
type WriteOp struct {
	Table string
	Kind  WriteKind
	Row   types.Row // insert only
	Pred  expr.Expr // update/delete target selection (nil = all rows)
	Set   []ColSet  // update only
}

// OpResult reports the outcome of one WriteOp.
type OpResult struct {
	RowsAffected int
	Err          error
}

// resolveTargets finds the RowIDs of rows visible at ts satisfying pred,
// seeking the index PinnedIndex chooses when pred pins one by equality (the
// common TPC-W case: updates by primary key), else scanning every row.
// Caller holds the table's write lock (readers of slots are safe under
// either lock).
func resolveTargets(t *Table, pred expr.Expr, ts uint64) []RowID {
	var out []RowID
	pins := expr.PinsOf(pred)
	if best, n := PinnedIndex(t.indexes, pins); n > 0 {
		if key, ok := pins.Values(best.Cols[:n]); ok {
			seen := map[RowID]bool{}
			best.tree.SeekEQ(key, func(rid uint64) bool {
				if seen[rid] {
					return true
				}
				seen[rid] = true
				row, ok := t.visibleLocked(rid, ts)
				if ok && expr.TruthyEval(pred, row, nil) {
					out = append(out, rid)
				}
				return true
			})
			sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
			return out
		}
	}
	for rid, head := range t.slots {
		for v := head; v != nil; v = v.older {
			if v.beginTS <= ts && ts < v.endTS {
				if expr.TruthyEval(pred, v.row, nil) {
					out = append(out, RowID(rid))
				}
				break
			}
		}
	}
	return out
}

// checkUnique verifies that inserting/updating to row would not violate a
// unique index at snapshot ts (excluding selfRID). Caller holds write lock.
func checkUnique(t *Table, row types.Row, ts uint64, selfRID RowID, hasSelf bool) error {
	for _, ix := range t.indexes {
		if !ix.Unique {
			continue
		}
		key := ix.KeyFor(row)
		dup := false
		ix.tree.SeekEQ(key, func(rid uint64) bool {
			if hasSelf && rid == selfRID {
				return true
			}
			vRow, ok := t.visibleLocked(rid, ts)
			if ok {
				// visible row must actually carry the key (stale entries)
				match := true
				for i, c := range ix.Cols {
					if !vRow[c].Equal(key[i]) {
						match = false
						break
					}
				}
				if match {
					dup = true
					return false
				}
			}
			return true
		})
		if dup {
			return fmt.Errorf("%w: index %s", ErrUniqueViolate, ix.Name)
		}
	}
	return nil
}

// ApplyOps applies a batch of mutations in arrival order, each as its own
// one-op Autocommit transaction, so that later ops in the batch observe
// earlier ones and a failed op changes nothing. This is the Crescando
// contract (paper §4.4): "updates are executed in arrival order", while
// concurrent readers keep seeing the snapshot published before the batch.
// The new snapshot is published once, after the whole batch — readers
// never observe a half-applied batch.
func (db *Database) ApplyOps(ops []WriteOp) ([]OpResult, uint64) {
	results, ts, _ := db.applyOps(ops)
	return results, ts
}

// applyOps commits ops as one batch of autocommits; the transactions share
// one slab, each holding a one-op window of ops.
func (db *Database) applyOps(ops []WriteOp) ([]OpResult, uint64, []WALRecord) {
	slab := make([]Tx, len(ops))
	txs := make([]*Tx, len(ops))
	for i := range ops {
		slab[i] = Tx{db: db, ops: ops[i : i+1 : i+1], auto: true}
		txs[i] = &slab[i]
	}
	return db.commitBatch(txs)
}

// GCAll truncates version history older than the current snapshot minus
// keepGenerations commit timestamps. Snapshots pinned by in-flight read
// generations cap the horizon: their versions survive regardless.
func (db *Database) GCAll(keepGenerations uint64) {
	horizon, ok := db.gcHorizon(keepGenerations)
	if !ok {
		return
	}
	for _, t := range db.Tables() {
		t.GC(horizon)
	}
}
