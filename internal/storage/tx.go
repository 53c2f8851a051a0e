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
// Reads do not observe the transaction's own buffered writes; TPC-W
// interactions thread generated keys through the application instead.
type Tx struct {
	db     *Database
	snapTS uint64
	ops    []WriteOp
	done   bool
}

// Begin starts a transaction reading at the current snapshot.
func (db *Database) Begin() *Tx {
	return &Tx{db: db, snapTS: db.SnapshotTS()}
}

// SnapshotTS returns the transaction's read timestamp.
func (tx *Tx) SnapshotTS() uint64 { return tx.snapTS }

// Insert buffers an insert.
func (tx *Tx) Insert(table string, row types.Row) {
	tx.ops = append(tx.ops, WriteOp{Table: table, Kind: WInsert, Row: row})
}

// Update buffers an update of the rows matching pred.
func (tx *Tx) Update(table string, pred expr.Expr, set []ColSet) {
	tx.ops = append(tx.ops, WriteOp{Table: table, Kind: WUpdate, Pred: pred, Set: set})
}

// Delete buffers a delete of the rows matching pred.
func (tx *Tx) Delete(table string, pred expr.Expr) {
	tx.ops = append(tx.ops, WriteOp{Table: table, Kind: WDelete, Pred: pred})
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
	_, err := tx.db.CommitTxBatch([]*Tx{tx})
	return err[0]
}

// CommitTxBatch commits many transactions in one critical section, in order.
// This is the shared engine's batch-commit path: all updates of a heartbeat
// generation apply together and a single new snapshot is published. The
// returned slice has one error (nil on success) per transaction.
func (db *Database) CommitTxBatch(txs []*Tx) (uint64, []error) {
	db.commitMu.Lock()
	defer db.commitMu.Unlock()

	db.stateMu.RLock()
	ts := db.clock
	db.stateMu.RUnlock()

	errs := make([]error, len(txs))
	var logRecs []WALRecord
	for i, tx := range txs {
		recs, err := db.commitOneLocked(tx, ts+1)
		errs[i] = err
		if err == nil && len(recs) > 0 {
			ts++
			logRecs = append(logRecs, recs...)
		}
	}
	if db.wal != nil && len(logRecs) > 0 {
		if err := db.wal.Append(logRecs); err != nil {
			for i := range errs {
				if errs[i] == nil {
					errs[i] = err
				}
			}
		}
	}
	db.publish(ts)
	return ts, errs
}

// commitOneLocked validates and applies one transaction at timestamp ts.
// All-or-nothing: validation of every op happens before any apply.
func (db *Database) commitOneLocked(tx *Tx, ts uint64) ([]WALRecord, error) {
	if tx.done && len(tx.ops) == 0 {
		return nil, nil
	}
	tx.done = true

	type plannedWrite struct {
		t      *Table
		kind   WriteKind
		rid    RowID
		newRow types.Row
	}
	var plan []plannedWrite

	// Phase 1: resolve targets against the tx snapshot and detect
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
			for _, rid := range resolveTargets(t, op.Pred, tx.snapTS) {
				if t.lastModTS(rid) > tx.snapTS {
					t.mu.Unlock()
					return nil, fmt.Errorf("%w: %s row %d", ErrConflict, op.Table, rid)
				}
				pw := plannedWrite{t: t, kind: op.Kind, rid: rid}
				if op.Kind == WUpdate {
					oldRow, _ := t.visibleLocked(rid, tx.snapTS)
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
	// own planned rows.
	planned := map[string]bool{} // index name + encoded key → taken by this tx
	for _, pw := range plan {
		if pw.kind == WDelete {
			continue
		}
		pw.t.mu.RLock()
		for _, ix := range pw.t.indexes {
			if !ix.Unique {
				continue
			}
			key := ix.KeyFor(pw.newRow)
			pk := ix.Name + "\x00" + types.EncodeKey(key...)
			if planned[pk] {
				pw.t.mu.RUnlock()
				return nil, fmt.Errorf("%w: index %s (within transaction)", ErrUniqueViolate, ix.Name)
			}
			planned[pk] = true
		}
		var err error
		if pw.kind == WInsert {
			err = checkUnique(pw.t, pw.newRow, ts-1, 0, false)
		} else {
			err = checkUnique(pw.t, pw.newRow, ts-1, pw.rid, true)
		}
		pw.t.mu.RUnlock()
		if err != nil {
			return nil, err
		}
	}

	// Phase 3: apply.
	var recs []WALRecord
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
