package storage

import (
	"math"
	"slices"
	"testing"

	"shareddb/internal/btree"
	"shareddb/internal/expr"
	"shareddb/internal/queryset"
	"shareddb/internal/testutil"
	"shareddb/internal/types"
)

// probeMix is a probe cycle's worth of clients on the country index, in a
// deliberately unsorted arrival order: duplicate keys, a residual, a miss, a
// range and an edge look-up.
func probeMix(tab *Table) []ProbeClient {
	eq := func(id queryset.QueryID, country string) ProbeClient {
		return ProbeClient{ID: id, Key: btree.Key{types.NewString(country)}}
	}
	withResidual := eq(5, "CH")
	withResidual.Residual = &expr.Cmp{Op: expr.GT, L: colRef(tab, "account"), R: &expr.Const{Val: types.NewInt(300)}}
	return []ProbeClient{
		eq(7, "US"), eq(2, "CH"), eq(9, "DE"), eq(4, "US"), withResidual, eq(1, "ZZ"), eq(3, "FR"),
		{ID: 8, Lo: btree.Key{types.NewString("D")}, Hi: btree.Key{types.NewString("G")}, LoIncl: true},
		{ID: 6, Edge: EdgeMax},
	}
}

type probeEmission struct {
	rid RowID
	qs  string
}

func runProbe(tab *Table, ix *Index, ts uint64, clients []ProbeClient, bufs *ProbeBuffers) []probeEmission {
	var out []probeEmission
	tab.SharedProbePooled(ts, ix, clients, bufs, func(rid RowID, _ types.Row, qs queryset.Set) {
		out = append(out, probeEmission{rid, qs.String()})
	})
	return out
}

// The order in which distinct keys are traversed used to be a Go map's
// iteration order. It is now ascending key order, so the same clients yield
// the same (rid, query set) sequence on every run, with each key's rows in
// index order and all clients of a key in one set.
func TestSharedProbeEmissionOrderDeterministic(t *testing.T) {
	db, tab := seedUsers(t, 100)
	ts := db.SnapshotTS()
	ix := tab.IndexByName("users_country")
	first := runProbe(tab, ix, ts, probeMix(tab), nil)
	if len(first) == 0 {
		t.Fatal("probe cycle emitted nothing")
	}
	for run := 1; run < 20; run++ {
		got := runProbe(tab, ix, ts, probeMix(tab), nil)
		if len(got) != len(first) {
			t.Fatalf("run %d emitted %d tuples, run 0 emitted %d", run, len(got), len(first))
		}
		for i := range got {
			if got[i] != first[i] {
				t.Fatalf("run %d: emission %d = %+v, run 0 had %+v", run, i, got[i], first[i])
			}
		}
	}
	// Ascending keys — CH (ids 2 and 5 share the traversal, 5 behind its
	// residual), DE, FR, US — then the range client, then the edge client;
	// within a key, ascending rid.
	var runs []string
	seen := map[string]bool{}
	for i, e := range first {
		row, _ := tab.Visible(e.rid, ts)
		run := row[2].AsString() + e.qs
		if !seen[run] {
			seen[run] = true
			runs = append(runs, run)
		}
		if i > 0 {
			prev, _ := tab.Visible(first[i-1].rid, ts)
			if prev[2].Equal(row[2]) && first[i-1].rid >= e.rid {
				t.Errorf("emission %d: rid %d follows rid %d within key %s", i, e.rid, first[i-1].rid, row[2])
			}
		}
	}
	want := []string{"CH{2}", "CH{2, 5}", "DE{9}", "FR{3}", "US{4, 7}", "DE{8}", "FR{8}", "US{6}"}
	if !slices.Equal(runs, want) {
		t.Fatalf("(key, query set) runs in emission order = %v, want %v", runs, want)
	}
}

// A short key and a longer key it is a prefix of are different look-ups:
// grouping by sort must not merge them the way btree.CompareKeys alone would.
func TestSharedProbePrefixAndFullKeyStaySeparate(t *testing.T) {
	db, tab := seedUsers(t, 20)
	ix, err := tab.AddIndex("users_country_account", false, "country", "account")
	if err != nil {
		t.Fatal(err)
	}
	ts := db.SnapshotTS()
	row, _ := tab.Visible(0, ts) // user 0: CH, account 0
	clients := []ProbeClient{
		{ID: 1, Key: btree.Key{row[2], row[3]}},
		{ID: 2, Key: btree.Key{row[2]}},
	}
	counts := map[queryset.QueryID]int{}
	tab.SharedProbePooled(ts, ix, clients, nil, func(_ RowID, _ types.Row, qs queryset.Set) {
		for _, id := range qs.IDs() {
			counts[id]++
		}
	})
	if counts[1] != 1 || counts[2] != 4 {
		t.Errorf("full key matched %d rows (want 1), prefix matched %d (want 4)", counts[1], counts[2])
	}
}

// TestSharedProbeZeroAllocPerClient pins the steady-state pooled probe
// cycle — sort-based grouping, one lock, borrowed query sets — at zero
// allocations, whatever the number of clients (it used to encode one key
// string and touch one map slot per client per cycle).
func TestSharedProbeZeroAllocPerClient(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	db, tab := seedUsers(t, 256)
	ts := db.SnapshotTS()
	pk := tab.PrimaryKey()
	clients := make([]ProbeClient, 64)
	for i := range clients {
		clients[i] = ProbeClient{ID: queryset.QueryID(i + 1), Key: btree.Key{types.NewInt(int64(i * 37 % 128))}}
	}
	clients = append(clients,
		ProbeClient{ID: 65, Lo: btree.Key{types.NewInt(10)}, Hi: btree.Key{types.NewInt(12)}, LoIncl: true, HiIncl: true},
		ProbeClient{ID: 66, Edge: EdgeMax}, ProbeClient{ID: 67, Edge: EdgeMin})
	var bufs ProbeBuffers
	emitted := 0
	emit := func(RowID, types.Row, queryset.Set) { emitted++ }
	tab.SharedProbePooled(ts, pk, clients, &bufs, emit) // warm the scratch
	if emitted != 64+3+2 {
		t.Fatalf("probe cycle emitted %d tuples, want %d", emitted, 64+3+2)
	}
	allocs := testing.AllocsPerRun(100, func() {
		tab.SharedProbePooled(ts, pk, clients, &bufs, emit)
	})
	if allocs != 0 {
		t.Errorf("pooled probe cycle of %d clients allocates %.1f, want 0", len(clients), allocs)
	}
}

// edgeID runs one index-edge look-up and returns the selected row's id
// column, or -1 when no row qualifies.
func edgeID(tab *Table, ix *Index, prefix btree.Key, max bool, ts uint64, residual expr.Expr) int64 {
	l := tab.RLock()
	defer l.Unlock()
	if _, row, ok := l.IndexEdgeAt(ix, prefix, max, ts, residual); ok {
		return row[0].AsInt()
	}
	return -1
}

// The edge walk moves inward past everything a scan would not have counted:
// rows invisible at the snapshot, deleted rows, the stale entry a key update
// leaves behind, rows the residual rejects and — for MIN — NULL keys.
func TestIndexEdgeSkipsWhatAScanWouldNotCount(t *testing.T) {
	db, tab := newUserDB(t)
	ix, err := tab.AddIndex("users_account", false, "account")
	if err != nil {
		t.Fatal(err)
	}
	byCountry, err := tab.AddIndex("users_country_account", false, "country", "account")
	if err != nil {
		t.Fatal(err)
	}
	if got := edgeID(tab, ix, nil, true, db.SnapshotTS(), nil); got != -1 {
		t.Fatalf("MAX over an empty table selected row %d", got)
	}
	nullAccount := user(5, "e", "DE", 0)
	nullAccount[3] = types.Null
	insertUsers(t, db, user(1, "a", "CH", 10), user(2, "b", "CH", 40), user(3, "c", "DE", 30), user(4, "d", "DE", 20), nullAccount)
	ts1 := db.SnapshotTS()
	update := func(id, account int64) {
		t.Helper()
		res, _ := db.ApplyOps([]WriteOp{{Table: "users", Kind: WUpdate, Pred: eqPred(tab, "id", types.NewInt(id)),
			Set: []ColSet{{Col: 3, Val: &expr.Const{Val: types.NewInt(account)}}}}})
		if res[0].Err != nil || res[0].RowsAffected != 1 {
			t.Fatalf("update %d: %+v", id, res[0])
		}
	}
	update(2, 5) // the maximum moves down: (40, rid 1) is now a stale entry at the edge
	ts2 := db.SnapshotTS()
	res, _ := db.ApplyOps([]WriteOp{{Table: "users", Kind: WDelete, Pred: eqPred(tab, "id", types.NewInt(3))}})
	if res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	ts3 := db.SnapshotTS()
	insertUsers(t, db, user(6, "f", "CH", 99))
	ts4 := db.SnapshotTS()

	chOnly := eqPred(tab, "country", types.NewString("CH"))
	for _, c := range []struct {
		name     string
		ix       *Index
		prefix   btree.Key
		max      bool
		ts       uint64
		residual expr.Expr
		want     int64
	}{
		{"max, before any write", ix, nil, true, ts1, nil, 2},
		{"min skips the NULL key", ix, nil, false, ts1, nil, 1},
		{"max past the stale entry of the moved row", ix, nil, true, ts2, nil, 3},
		{"old snapshot still sees the moved row at its old key", ix, nil, true, ts1, nil, 2},
		{"min finds the moved row at its new key", ix, nil, false, ts2, nil, 2},
		{"max past a deleted row", ix, nil, true, ts3, nil, 4},
		{"the deleted row is still the max one snapshot earlier", ix, nil, true, ts2, nil, 3},
		{"a later insert is invisible to the older snapshot", ix, nil, true, ts3, nil, 4},
		{"and visible to its own", ix, nil, true, ts4, nil, 6},
		{"residual rejects the edge row", ix, nil, true, ts3, chOnly, 1},
		{"max under an equality prefix", byCountry, btree.Key{types.NewString("DE")}, true, ts1, nil, 3},
		{"min under an equality prefix skips NULL", byCountry, btree.Key{types.NewString("DE")}, false, ts1, nil, 4},
		{"prefix with no rows", byCountry, btree.Key{types.NewString("ZZ")}, true, ts4, nil, -1},
		{"a NULL prefix selects nothing once the predicate rides along", byCountry, btree.Key{types.Null}, true, ts4,
			eqPred(tab, "country", types.Null), -1},
	} {
		if got := edgeID(tab, c.ix, c.prefix, c.max, c.ts, c.residual); got != c.want {
			t.Errorf("%s: selected row id %d, want %d", c.name, got, c.want)
		}
	}
}

// Among rows whose values compare equal the aggregate keeps the first in
// row-id order — observable when equal values differ in their bits (0.0 and
// -0.0) — so the edge walk must not stop at the first qualifying entry of a
// tie run.
func TestIndexEdgeTieKeepsLowestRowID(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := db.CreateTable("m", types.NewSchema(
		types.Column{Qualifier: "m", Name: "id", Kind: types.KindInt},
		types.Column{Qualifier: "m", Name: "v", Kind: types.KindFloat}))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := tab.AddIndex("m_v", false, "v")
	if err != nil {
		t.Fatal(err)
	}
	negZero := math.Copysign(0, -1)
	var ops []WriteOp
	for i, v := range []float64{-1, 0, negZero, 0, negZero} {
		ops = append(ops, WriteOp{Table: "m", Kind: WInsert, Row: types.Row{types.NewInt(int64(i)), types.NewFloat(v)}})
	}
	if res, _ := db.ApplyOps(ops); res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	ts := db.SnapshotTS()
	if got := edgeID(tab, ix, nil, true, ts, nil); got != 1 {
		t.Errorf("MAX over {-1, 0, -0, 0, -0} selected row %d, want row 1 (the first zero)", got)
	}
	notFirst := &expr.Cmp{Op: expr.GT, L: &expr.ColRef{Idx: 0}, R: &expr.Const{Val: types.NewInt(1)}}
	if got := edgeID(tab, ix, nil, true, ts, notFirst); got != 2 {
		t.Errorf("with row 1 filtered out MAX selected row %d, want row 2", got)
	}
}
