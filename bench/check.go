package main

import (
	"fmt"

	"shareddb"
	"shareddb/internal/baseline"
	"shareddb/internal/storage"
	"shareddb/internal/testutil"
	"shareddb/internal/tpcw"
	"shareddb/internal/types"
)

// checkedReads is how many captured reads are replayed through the
// baseline after a window.
const checkedReads = 200

// tieColumn names, for the one statement ordered on a non-unique key and
// cut by LIMIT, the output column it is ordered on. Rows tied at the cut
// may legitimately differ between two correct engines, so the comparison
// drops the rows carrying the cut's value from both sides.
var tieColumn = map[string]int{
	tpcw.StatementSQL()[tpcw.StGetBestSellers]: 4,
}

// oracle is a single storage database holding the system's current
// logical contents, and a snapshot of it to read at. The database under
// test is quiescent when the check runs (every lane has returned), so its
// latest snapshot is the one the replayed reads see.
type oracle struct {
	store *storage.Database
	ts    uint64
	done  func()
}

// newOracles returns the databases a correct read may agree with. An
// unsharded database has one: its own storage, pinned. A sharded one is
// merged into a fresh TPC-W database — partitioned tables from every
// shard, replicated tables from one — once per shard, taking that shard's
// replicas: a commit that conflicts on one shard and applies on another
// (cross-shard commits are not atomic) leaves replicas that differ, and a
// read served by either is within the documented contract.
func newOracles(db *shareddb.DB, replicated []string) ([]*oracle, error) {
	stores := db.Storages()
	if len(stores) == 1 {
		ts := stores[0].PinCurrentSnapshot()
		return []*oracle{{store: stores[0], ts: ts, done: func() { stores[0].UnpinSnapshot(ts) }}}, nil
	}
	isReplicated := nameSet(replicated)
	var out []*oracle
	for replica := range stores {
		merged, err := storage.Open(storage.Options{})
		if err != nil {
			return nil, err
		}
		if err := tpcw.CreateSchema(merged); err != nil {
			return nil, err
		}
		for _, t := range stores[0].Tables() {
			var ops []storage.WriteOp
			for i, st := range stores {
				if isReplicated[t.Name()] && i != replica {
					continue
				}
				st.Table(t.Name()).ScanVisible(st.SnapshotTS(), func(_ storage.RowID, row types.Row) bool {
					ops = append(ops, storage.WriteOp{Table: t.Name(), Kind: storage.WInsert, Row: row})
					return true
				})
			}
			results, _ := merged.ApplyOps(ops)
			for _, r := range results {
				if r.Err != nil {
					return nil, fmt.Errorf("oracle: merge %s: %w", t.Name(), r.Err)
				}
			}
		}
		out = append(out, &oracle{store: merged, ts: merged.SnapshotTS(), done: func() { merged.Close() }})
	}
	return out, nil
}

// reference runs a read through internal/baseline on one oracle.
type reference struct {
	o        *oracle
	engine   *baseline.Engine
	prepared map[int]*baseline.Stmt
}

func (r *reference) rows(sqls []string, c call) ([]types.Row, error) {
	st := r.prepared[c.stmt]
	if st == nil {
		var err error
		if st, err = r.engine.Prepare(sqls[c.stmt]); err != nil {
			return nil, fmt.Errorf("baseline prepare: %w", err)
		}
		r.prepared[c.stmt] = st
	}
	res, err := st.ExecAt(c.params, r.o.ts)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	return res.Rows, nil
}

// checkReads replays up to checkedReads captured reads through query (the
// surface under test) and through internal/baseline at each oracle's
// snapshot; the result must be canonically equal to one oracle's. It
// returns how many were checked and a description of each mismatch.
func checkReads(oracles []*oracle, sqls []string, reads []call, query func(c call) ([]types.Row, error)) (int, []string, error) {
	if len(reads) > checkedReads {
		reads = reads[:checkedReads]
	}
	refs := make([]*reference, len(oracles))
	for i, o := range oracles {
		refs[i] = &reference{o: o, engine: baseline.New(o.store, baseline.SystemXLike), prepared: map[int]*baseline.Stmt{}}
	}
	var wrong []string
	for _, c := range reads {
		got, err := query(c)
		if err != nil {
			wrong = append(wrong, fmt.Sprintf("statement %d %v: %v", c.stmt, c.params, err))
			continue
		}
		var mismatch string
		for _, ref := range refs {
			want, err := ref.rows(sqls, c)
			if err != nil {
				return 0, nil, err
			}
			g, w := got, want
			if col, tied := tieColumn[sqls[c.stmt]]; tied && len(g) == len(w) && len(w) > 0 {
				cut := w[len(w)-1][col]
				g, w = dropTied(g, col, cut), dropTied(w, col, cut)
			}
			if testutil.SameRows(g, w) {
				mismatch = ""
				break
			}
			mismatch = fmt.Sprintf("statement %d %v: %d rows, baseline %d rows, contents differ, e.g. %q vs %q",
				c.stmt, c.params, len(got), len(want), firstDiffering(g, w), firstDiffering(w, g))
		}
		if mismatch != "" {
			wrong = append(wrong, mismatch)
		}
	}
	return len(reads), wrong, nil
}

// firstDiffering returns the first canonical row of a that b does not hold
// at the same position.
func firstDiffering(a, b []types.Row) string {
	ca, cb := testutil.CanonRows(a), testutil.CanonRows(b)
	for i, row := range ca {
		if i >= len(cb) || cb[i] != row {
			return row
		}
	}
	return ""
}

func nameSet(names []string) map[string]bool {
	set := make(map[string]bool, len(names))
	for _, n := range names {
		set[n] = true
	}
	return set
}

func dropTied(rows []types.Row, col int, cut types.Value) []types.Row {
	var out []types.Row
	for _, r := range rows {
		if !r[col].Equal(cut) {
			out = append(out, r)
		}
	}
	return out
}

// tableRows counts each table's visible rows across the shards:
// partitioned tables sum, replicated tables count one copy.
func tableRows(db *shareddb.DB, replicated []string) map[string]int {
	isReplicated := nameSet(replicated)
	out := map[string]int{}
	for i, st := range db.Storages() {
		for _, t := range st.Tables() {
			if i > 0 && isReplicated[t.Name()] {
				continue
			}
			out[t.Name()] += t.CountVisible(st.SnapshotTS())
		}
	}
	return out
}

// checkGrowth verifies that every insert the engine acknowledged is in
// the table: for tables nothing deletes from, rows now minus rows at
// set-up must equal the acknowledged inserts. On a sharded database a
// commit that conflicts on one shard is reported as failed while its
// writes to the other shards stay (the documented contract: cross-shard
// commits are not atomic), so there the tables may hold more rows than
// were acknowledged; those are returned as orphans, not as wrong.
func checkGrowth(base, now, acked map[string]int, sharded bool) (wrong []string, orphans int) {
	for table, n := range acked {
		grew := now[table] - base[table]
		switch {
		case grew == n:
		case sharded && grew > n:
			orphans += grew - n
		default:
			wrong = append(wrong, fmt.Sprintf("table %s grew by %d rows, %d inserts were acknowledged", table, grew, n))
		}
	}
	return wrong, orphans
}

// recoveredShare closes the database, reopens it on the same WAL
// directory, recovers, and returns the share of the rows present before
// the close that are present after it (per table, capped at 1, weighted
// by rows). The database stays closed afterwards.
func (s *tpcwSystem) recoveredShare() (float64, error) {
	before := tableRows(s.db, s.cfg.ReplicatedTables)
	if err := s.db.Close(); err != nil {
		return 0, err
	}
	s.closed = true
	db, err := shareddb.Open(s.cfg)
	if err != nil {
		return 0, err
	}
	defer db.Close()
	if err := tpcw.CreateSchema(db.Storage()); err != nil {
		return 0, err
	}
	if err := db.Storage().Recover(); err != nil {
		return 0, fmt.Errorf("recover: %w", err)
	}
	after := tableRows(db, s.cfg.ReplicatedTables)
	total, kept := 0, 0
	for table, n := range before {
		total += n
		kept += min(n, after[table])
	}
	if total == 0 {
		return 0, nil
	}
	return float64(kept) / float64(total), nil
}
