package storage

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"shareddb/internal/types"
)

// Durability (paper §4.4): "Crescando keeps all data in main memory, but it
// also supports full recovery by checkpointing and logging all data to
// disk." The WAL stores physical redo records; a checkpoint stores every
// table's live slots at a timestamp. Recovery loads the newest checkpoint
// and replays log records with TS beyond it.
//
// Record wire format (little-endian):
//
//	u32 payloadLen | u32 crc32(payload) | payload
//
// payload: u64 ts | u8 kind | u16 tableNameLen | tableName | u64 rid |
//          encoded row (insert/update only)

// WALRecord is one physical redo record.
type WALRecord struct {
	TS    uint64
	Kind  WriteKind
	Table string
	RID   RowID
	Row   types.Row // nil for deletes
}

// WAL is an append-only redo log.
type WAL struct {
	dir  string
	f    *os.File
	w    *bufio.Writer
	sync bool
}

const (
	walFileName        = "wal.log"
	checkpointFileName = "checkpoint.db"
)

// OpenWAL opens (creating if needed) the log in dir.
func OpenWAL(dir string, syncEveryAppend bool) (*WAL, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(dir, walFileName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	return &WAL{dir: dir, f: f, w: bufio.NewWriterSize(f, 1<<16), sync: syncEveryAppend}, nil
}

// Append writes records and flushes (fsyncing when configured).
func (w *WAL) Append(recs []WALRecord) error {
	for _, r := range recs {
		payload := encodeRecord(r)
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
		if _, err := w.w.Write(hdr[:]); err != nil {
			return fmt.Errorf("wal append: %w", err)
		}
		if _, err := w.w.Write(payload); err != nil {
			return fmt.Errorf("wal append: %w", err)
		}
	}
	if err := w.w.Flush(); err != nil {
		return fmt.Errorf("wal flush: %w", err)
	}
	if w.sync {
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("wal sync: %w", err)
		}
	}
	return nil
}

// Close flushes and closes the log file.
func (w *WAL) Close() error {
	if err := w.w.Flush(); err != nil {
		return err
	}
	return w.f.Close()
}

func encodeRecord(r WALRecord) []byte {
	b := make([]byte, 0, 64)
	b = binary.LittleEndian.AppendUint64(b, r.TS)
	b = append(b, byte(r.Kind))
	b = binary.LittleEndian.AppendUint16(b, uint16(len(r.Table)))
	b = append(b, r.Table...)
	b = binary.LittleEndian.AppendUint64(b, r.RID)
	if r.Kind != WDelete {
		b = types.AppendRow(b, r.Row)
	}
	return b
}

func decodeRecord(b []byte) (WALRecord, error) {
	var r WALRecord
	if len(b) < 19 {
		return r, io.ErrUnexpectedEOF
	}
	r.TS = binary.LittleEndian.Uint64(b[0:8])
	r.Kind = WriteKind(b[8])
	nameLen := int(binary.LittleEndian.Uint16(b[9:11]))
	if len(b) < 11+nameLen+8 {
		return r, io.ErrUnexpectedEOF
	}
	r.Table = string(b[11 : 11+nameLen])
	off := 11 + nameLen
	r.RID = binary.LittleEndian.Uint64(b[off : off+8])
	off += 8
	if r.Kind != WDelete {
		row, _, err := types.DecodeRow(b[off:])
		if err != nil {
			return r, err
		}
		r.Row = row
	}
	return r, nil
}

// ReadAll replays every intact record in the log, stopping silently at the
// first truncated or corrupt tail record (a crash mid-append loses only the
// unsynced tail, never earlier records).
func (w *WAL) ReadAll(fn func(WALRecord) error) error {
	return readWALFile(filepath.Join(w.dir, walFileName), fn)
}

func readWALFile(path string, fn func(WALRecord) error) error {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<16)
	for {
		var hdr [8]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return nil // clean EOF or truncated header: stop
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if n > 1<<28 {
			return nil // implausible length: corrupt tail
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return nil // truncated payload: stop
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return nil // corrupt record: stop
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			return nil
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
}

// Checkpoint writes a consistent snapshot of the database at its current
// snapshot timestamp and truncates the log up to it. The checkpoint file
// stores, per table, every slot's rid and visible row so RowIDs stay stable
// across recovery (log records address rows by rid).
//
// Format: u64 checkpointTS, then per table: u16 nameLen | name | u64 rows,
// then per row: u64 rid | encoded row. A trailing magic seals the file.
func (db *Database) Checkpoint() error {
	if db.wal == nil {
		return errors.New("storage: checkpoint requires a WAL directory")
	}
	// Block commits so the checkpoint is a clean prefix of the log.
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	ts := db.SnapshotTS()

	tmp := filepath.Join(db.wal.dir, checkpointFileName+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<16)
	buf := binary.LittleEndian.AppendUint64(nil, ts)
	if _, err := w.Write(buf); err != nil {
		return err
	}
	for _, t := range db.Tables() {
		var rows [][]byte
		t.ScanVisible(ts, func(rid RowID, row types.Row) bool {
			b := binary.LittleEndian.AppendUint64(nil, rid)
			b = types.AppendRow(b, row)
			rows = append(rows, b)
			return true
		})
		hdr := binary.LittleEndian.AppendUint16(nil, uint16(len(t.Name())))
		hdr = append(hdr, t.Name()...)
		hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(rows)))
		if _, err := w.Write(hdr); err != nil {
			return err
		}
		for _, b := range rows {
			lenBuf := binary.LittleEndian.AppendUint32(nil, uint32(len(b)))
			if _, err := w.Write(lenBuf); err != nil {
				return err
			}
			if _, err := w.Write(b); err != nil {
				return err
			}
		}
	}
	if _, err := w.Write([]byte("CKPTDONE")); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(db.wal.dir, checkpointFileName)); err != nil {
		return err
	}
	// Truncate the log: everything up to ts is in the checkpoint.
	if err := db.wal.w.Flush(); err != nil {
		return err
	}
	if err := db.wal.f.Close(); err != nil {
		return err
	}
	nf, err := os.OpenFile(filepath.Join(db.wal.dir, walFileName), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	db.wal.f = nf
	db.wal.w = bufio.NewWriterSize(nf, 1<<16)
	return nil
}

// Recover rebuilds table contents from the newest checkpoint plus the log.
// The schema (tables and indexes) must already have been re-created; only
// data is restored. Recovery is idempotent and tolerates a missing
// checkpoint (replays the whole log) and a truncated log tail.
func (db *Database) Recover() error {
	if db.wal == nil {
		return errors.New("storage: recover requires a WAL directory")
	}
	db.commitMu.Lock()
	defer db.commitMu.Unlock()

	ckptTS, err := db.loadCheckpoint()
	if err != nil {
		return err
	}
	maxTS := ckptTS
	err = db.wal.ReadAll(func(rec WALRecord) error {
		if rec.TS <= ckptTS {
			return nil
		}
		t := db.Table(rec.Table)
		if t == nil {
			return fmt.Errorf("recover: log references unknown table %q", rec.Table)
		}
		t.mu.Lock()
		switch rec.Kind {
		case WInsert:
			// Slots must land at rec.RID: pad with dead slots if needed
			// (gaps arise when aborted batches skipped rids).
			for uint64(len(t.slots)) < rec.RID {
				t.slots = append(t.slots, &version{beginTS: 0, endTS: 0})
			}
			if uint64(len(t.slots)) == rec.RID {
				t.insertLocked(rec.Row, rec.TS)
			} else {
				t.slots[rec.RID] = &version{row: rec.Row, beginTS: rec.TS, endTS: TSMax}
				t.rowsTS.Store(rec.TS)
				for _, ix := range t.indexes {
					ix.tree.Insert(ix.KeyFor(rec.Row), rec.RID)
				}
			}
		case WUpdate:
			if rec.RID < uint64(len(t.slots)) {
				t.updateLocked(rec.RID, rec.Row, rec.TS)
			}
		case WDelete:
			if rec.RID < uint64(len(t.slots)) {
				t.deleteLocked(rec.RID, rec.TS)
			}
		}
		t.mu.Unlock()
		if rec.TS > maxTS {
			maxTS = rec.TS
		}
		return nil
	})
	if err != nil {
		return err
	}
	db.publish(maxTS)
	return nil
}

// loadCheckpoint restores table data from the checkpoint file, returning its
// timestamp (0 when absent).
func (db *Database) loadCheckpoint() (uint64, error) {
	path := filepath.Join(db.wal.dir, checkpointFileName)
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	if len(data) < 16 || string(data[len(data)-8:]) != "CKPTDONE" {
		return 0, errors.New("recover: checkpoint file incomplete; ignoring")
	}
	body := data[:len(data)-8]
	ts := binary.LittleEndian.Uint64(body[:8])
	off := 8
	for off < len(body) {
		if off+2 > len(body) {
			return 0, io.ErrUnexpectedEOF
		}
		nameLen := int(binary.LittleEndian.Uint16(body[off : off+2]))
		off += 2
		if off+nameLen+8 > len(body) {
			return 0, io.ErrUnexpectedEOF
		}
		name := string(body[off : off+nameLen])
		off += nameLen
		nRows := binary.LittleEndian.Uint64(body[off : off+8])
		off += 8
		t := db.Table(name)
		if t == nil {
			return 0, fmt.Errorf("recover: checkpoint references unknown table %q", name)
		}
		t.mu.Lock()
		for i := uint64(0); i < nRows; i++ {
			if off+4 > len(body) {
				t.mu.Unlock()
				return 0, io.ErrUnexpectedEOF
			}
			recLen := int(binary.LittleEndian.Uint32(body[off : off+4]))
			off += 4
			if off+recLen > len(body) {
				t.mu.Unlock()
				return 0, io.ErrUnexpectedEOF
			}
			rec := body[off : off+recLen]
			off += recLen
			rid := binary.LittleEndian.Uint64(rec[:8])
			row, _, err := types.DecodeRow(rec[8:])
			if err != nil {
				t.mu.Unlock()
				return 0, err
			}
			for uint64(len(t.slots)) < rid {
				t.slots = append(t.slots, &version{beginTS: 0, endTS: 0})
			}
			t.slots = append(t.slots, &version{row: row, beginTS: ts, endTS: TSMax})
			t.rowsTS.Store(ts)
			for _, ix := range t.indexes {
				ix.tree.Insert(ix.KeyFor(row), rid)
			}
		}
		t.mu.Unlock()
	}
	db.publish(ts)
	return ts, nil
}
