package storage

import (
	"fmt"

	"shareddb/internal/expr"
	"shareddb/internal/types"
)

// Tx is a snapshot-isolated multi-statement transaction (paper §4.4: "the
// design of SharedDB favors optimistic and multi-version concurrency
// control ... Snapshot Isolation, as supported by the Crescando storage
// manager"). Reads see the snapshot taken at Begin; writes are buffered and
// applied atomically at commit with first-committer-wins conflict
// detection.
//
// A Tx is also the unit of every write: a standalone write statement
// commits as a one-op Autocommit transaction, so commitOneLocked is the one
// place a write applies (outside WAL replay), and a statement is atomic
// exactly as a transaction is.
//
// Reads do not observe the transaction's own buffered writes; TPC-W
// interactions thread generated keys through the application instead.
type Tx struct {
	db     *Database
	snapTS uint64
	ops    []WriteOp
	done   bool
	// auto marks an Autocommit: targets resolve at the commit timestamp's
	// predecessor instead of snapTS.
	auto bool
}

// Begin starts a transaction reading at the current snapshot.
func (db *Database) Begin() *Tx {
	return &Tx{db: db, snapTS: db.SnapshotTS()}
}

// Autocommit returns a one-op transaction whose targets resolve at its own
// commit timestamp's predecessor: committed in a batch, it sees every
// earlier commit of the batch (the Crescando arrival-order contract, paper
// §4.4) and can never conflict.
func (db *Database) Autocommit(op WriteOp) *Tx {
	return &Tx{db: db, ops: []WriteOp{op}, auto: true}
}

// SnapshotTS returns the transaction's read timestamp.
func (tx *Tx) SnapshotTS() uint64 { return tx.snapTS }

// Buffer buffers one write.
func (tx *Tx) Buffer(op WriteOp) { tx.ops = append(tx.ops, op) }

// Insert buffers an insert.
func (tx *Tx) Insert(table string, row types.Row) {
	tx.Buffer(WriteOp{Table: table, Kind: WInsert, Row: row})
}

// Update buffers an update of the rows matching pred.
func (tx *Tx) Update(table string, pred expr.Expr, set []ColSet) {
	tx.Buffer(WriteOp{Table: table, Kind: WUpdate, Pred: pred, Set: set})
}

// Delete buffers a delete of the rows matching pred.
func (tx *Tx) Delete(table string, pred expr.Expr) {
	tx.Buffer(WriteOp{Table: table, Kind: WDelete, Pred: pred})
}

// Rollback abandons the transaction.
func (tx *Tx) Rollback() {
	tx.done = true
	tx.ops = nil
}

// Commit applies the buffered writes atomically. Update/delete targets are
// resolved against the transaction's snapshot; if any target row was
// modified by a transaction that committed after snapTS, ErrConflict is
// returned and nothing is applied.
func (tx *Tx) Commit() error {
	if tx.done {
		return ErrTxDone
	}
	tx.done = true
	if len(tx.ops) == 0 {
		return nil
	}
	res, _ := tx.db.CommitTxBatch([]*Tx{tx})
	return res[0].Err
}

// CommitTxBatch commits many transactions in one critical section, in order.
// This is the shared engine's batch-commit path: all updates of a heartbeat
// generation apply together and a single new snapshot is published. The
// returned slice has one result per transaction (Err nil on success), and
// the timestamp is the published snapshot.
func (db *Database) CommitTxBatch(txs []*Tx) ([]OpResult, uint64) {
	results, ts, _ := db.commitBatch(txs)
	return results, ts
}

// commitBatch is CommitTxBatch also returning the batch's physical write
// records. Each transaction that changes a row takes the next timestamp; a
// failed or empty one takes none. The log is appended and the snapshot
// published once, after the whole batch — readers never observe a
// half-applied batch.
func (db *Database) commitBatch(txs []*Tx) ([]OpResult, uint64, []WALRecord) {
	db.commitMu.Lock()
	defer db.commitMu.Unlock()

	db.stateMu.RLock()
	ts := db.clock
	db.stateMu.RUnlock()

	results := make([]OpResult, len(txs))
	var logRecs []WALRecord
	for i, tx := range txs {
		recs, err := db.commitOneLocked(tx, ts+1)
		results[i] = OpResult{RowsAffected: len(recs), Err: err}
		if len(recs) > 0 {
			ts++
			logRecs = append(logRecs, recs...)
		}
	}
	if db.wal != nil && len(logRecs) > 0 {
		if err := db.wal.Append(logRecs); err != nil {
			// Durability failure: surface on every commit of the batch.
			for i := range results {
				if results[i].Err == nil {
					results[i].Err = err
				}
			}
		}
	}
	db.publish(ts)
	return results, ts, logRecs
}

// commitOneLocked validates and applies one transaction at timestamp ts and
// returns one physical record per row it changed (so its rows affected is
// the record count). All-or-nothing: validation of every op happens before
// any apply.
func (db *Database) commitOneLocked(tx *Tx, ts uint64) ([]WALRecord, error) {
	if tx.done && len(tx.ops) == 0 {
		return nil, nil
	}
	tx.done = true
	readTS := tx.snapTS
	if tx.auto {
		readTS = ts - 1
	}

	type plannedWrite struct {
		t      *Table
		kind   WriteKind
		rid    RowID
		newRow types.Row
	}
	var plan []plannedWrite

	// Phase 1: resolve targets against the read snapshot and detect
	// write-write conflicts (first committer wins).
	for _, op := range tx.ops {
		t := db.Table(op.Table)
		if t == nil {
			return nil, fmt.Errorf("%w: %s", ErrNoTable, op.Table)
		}
		t.mu.Lock()
		switch op.Kind {
		case WInsert:
			plan = append(plan, plannedWrite{t: t, kind: WInsert, newRow: op.Row.Clone()})
		case WUpdate, WDelete:
			for _, rid := range resolveTargets(t, op.Pred, readTS) {
				if t.lastModTS(rid) > readTS {
					t.mu.Unlock()
					return nil, fmt.Errorf("%w: %s row %d", ErrConflict, op.Table, rid)
				}
				pw := plannedWrite{t: t, kind: op.Kind, rid: rid}
				if op.Kind == WUpdate {
					oldRow, _ := t.visibleLocked(rid, readTS)
					pw.newRow = oldRow.Clone()
					for _, set := range op.Set {
						pw.newRow[set.Col] = set.Val.Eval(oldRow, nil)
					}
				}
				plan = append(plan, pw)
			}
		}
		t.mu.Unlock()
	}

	// Phase 2: validate every unique constraint before applying anything,
	// so a violation aborts the transaction without partial effects. The
	// check runs against the pre-commit snapshot plus this transaction's
	// own planned rows (tracked only when there is more than one).
	var planned map[string]bool // index name + encoded key → taken by this tx
	if len(plan) > 1 {
		planned = map[string]bool{}
	}
	for _, pw := range plan {
		if pw.kind == WDelete {
			continue
		}
		pw.t.mu.RLock()
		for _, ix := range pw.t.indexes {
			if planned == nil || !ix.Unique {
				continue
			}
			pk := ix.Name + "\x00" + types.EncodeKey(ix.KeyFor(pw.newRow)...)
			if planned[pk] {
				pw.t.mu.RUnlock()
				return nil, fmt.Errorf("%w: index %s (within transaction)", ErrUniqueViolate, ix.Name)
			}
			planned[pk] = true
		}
		err := checkUnique(pw.t, pw.newRow, ts-1, pw.rid, pw.kind == WUpdate)
		pw.t.mu.RUnlock()
		if err != nil {
			return nil, err
		}
	}

	// Phase 3: apply.
	recs := make([]WALRecord, 0, len(plan))
	for _, pw := range plan {
		pw.t.mu.Lock()
		switch pw.kind {
		case WInsert:
			rid := pw.t.insertLocked(pw.newRow, ts)
			recs = append(recs, WALRecord{TS: ts, Kind: WInsert, Table: pw.t.name, RID: rid, Row: pw.newRow})
		case WUpdate:
			pw.t.updateLocked(pw.rid, pw.newRow, ts)
			recs = append(recs, WALRecord{TS: ts, Kind: WUpdate, Table: pw.t.name, RID: pw.rid, Row: pw.newRow})
		case WDelete:
			pw.t.deleteLocked(pw.rid, ts)
			recs = append(recs, WALRecord{TS: ts, Kind: WDelete, Table: pw.t.name, RID: pw.rid})
		}
		pw.t.mu.Unlock()
	}
	return recs, nil
}
