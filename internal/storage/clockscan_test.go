package storage

import (
	"fmt"
	"math/rand"
	"testing"

	"shareddb/internal/expr"
	"shareddb/internal/queryset"
	"shareddb/internal/types"
)

func seedUsers(t *testing.T, n int) (*Database, *Table) {
	t.Helper()
	db, tab := newUserDB(t)
	countries := []string{"CH", "DE", "US", "FR", "IT"}
	rows := make([]types.Row, n)
	for i := 0; i < n; i++ {
		rows[i] = user(int64(i), fmt.Sprintf("user%03d", i), countries[i%len(countries)], int64(i*7%1000))
	}
	insertUsers(t, db, rows...)
	return db, tab
}

func colRef(t *Table, name string) *expr.ColRef {
	return &expr.ColRef{Idx: t.Schema().MustColIndex(name), Name: name}
}

func TestSharedScanEqualityQueries(t *testing.T) {
	db, tab := seedUsers(t, 100)
	ts := db.SnapshotTS()
	clients := []ScanClient{
		{ID: 1, Pred: eqPred(tab, "country", types.NewString("CH"))},
		{ID: 2, Pred: eqPred(tab, "country", types.NewString("DE"))},
		{ID: 3, Pred: eqPred(tab, "country", types.NewString("CH"))}, // same as Q1
	}
	got := map[queryset.QueryID]int{}
	rowsEmitted := 0
	tab.SharedScanPooled(ts, clients, 1, nil, func(_ RowID, row types.Row, qs queryset.Set) {
		rowsEmitted++
		for _, id := range qs.IDs() {
			got[id]++
		}
		// CH rows must carry both Q1 and Q3 — the sharing property.
		if row[2].AsString() == "CH" && (!qs.Contains(1) || !qs.Contains(3)) {
			t.Errorf("CH row missing shared subscribers: %v", qs)
		}
	})
	if got[1] != 20 || got[2] != 20 || got[3] != 20 {
		t.Errorf("per-query counts = %v", got)
	}
	// 20 CH + 20 DE rows scanned once each — not 40+20.
	if rowsEmitted != 40 {
		t.Errorf("rows emitted = %d, want 40 (shared, not duplicated)", rowsEmitted)
	}
}

func TestSharedScanRangeQueries(t *testing.T) {
	db, tab := seedUsers(t, 100)
	ts := db.SnapshotTS()
	gt := func(col string, v int64) expr.Expr {
		return &expr.Cmp{Op: expr.GT, L: colRef(tab, col), R: &expr.Const{Val: types.NewInt(v)}}
	}
	lt := func(col string, v int64) expr.Expr {
		return &expr.Cmp{Op: expr.LT, L: colRef(tab, col), R: &expr.Const{Val: types.NewInt(v)}}
	}
	clients := []ScanClient{
		{ID: 1, Pred: gt("account", 500)},
		{ID: 2, Pred: &expr.And{Kids: []expr.Expr{gt("account", 100), lt("account", 300)}}},
	}
	counts := map[queryset.QueryID]int{}
	tab.SharedScanPooled(ts, clients, 1, nil, func(_ RowID, row types.Row, qs queryset.Set) {
		for _, id := range qs.IDs() {
			counts[id]++
			acct := row[3].AsInt()
			if id == 1 && acct <= 500 {
				t.Errorf("Q1 got account %d", acct)
			}
			if id == 2 && (acct <= 100 || acct >= 300) {
				t.Errorf("Q2 got account %d", acct)
			}
		}
	})
	if counts[1] == 0 || counts[2] == 0 {
		t.Errorf("counts = %v", counts)
	}
}

func TestSharedScanRestQueries(t *testing.T) {
	db, tab := seedUsers(t, 50)
	ts := db.SnapshotTS()
	// LIKE and OR predicates cannot be predicate-indexed: rest class.
	clients := []ScanClient{
		{ID: 1, Pred: &expr.Like{L: colRef(tab, "name"), Pattern: &expr.Const{Val: types.NewString("user00%")}}},
		{ID: 2, Pred: &expr.Or{Kids: []expr.Expr{
			eqPred(tab, "country", types.NewString("CH")),
			eqPred(tab, "country", types.NewString("DE")),
		}}},
		{ID: 3, Pred: nil}, // full table
	}
	counts := map[queryset.QueryID]int{}
	tab.SharedScanPooled(ts, clients, 1, nil, func(_ RowID, _ types.Row, qs queryset.Set) {
		for _, id := range qs.IDs() {
			counts[id]++
		}
	})
	if counts[1] != 10 {
		t.Errorf("LIKE matched %d, want 10", counts[1])
	}
	if counts[2] != 20 {
		t.Errorf("OR matched %d, want 20", counts[2])
	}
	if counts[3] != 50 {
		t.Errorf("full scan matched %d, want 50", counts[3])
	}
}

func TestSharedScanNoClients(t *testing.T) {
	db, tab := seedUsers(t, 10)
	called := false
	tab.SharedScanPooled(db.SnapshotTS(), nil, 1, nil, func(RowID, types.Row, queryset.Set) { called = true })
	if called {
		t.Error("emit called with no clients")
	}
}

// sharedScanNaive answers a scan cycle without the predicate index: every
// client's predicate is evaluated against every record. It is the oracle of
// the property test below and the ablation side of BenchmarkSharedScanNaive
// (the value of query-data joins).
func sharedScanNaive(t *Table, ts uint64, clients []ScanClient, emit func(rid RowID, row types.Row, qs queryset.Set)) {
	var buf []queryset.QueryID
	t.ScanVisible(ts, func(rid RowID, row types.Row) bool {
		buf = buf[:0]
		for _, c := range clients {
			if expr.TruthyEval(c.Pred, row, nil) {
				buf = append(buf, c.ID)
			}
		}
		if len(buf) > 0 {
			emit(rid, row, queryset.Of(buf...))
		}
		return true
	})
}

// Property: the predicate-indexed ClockScan and sharedScanNaive (per-query
// evaluation) produce identical per-query result sets for random workloads.
// This is the correctness core of the ClockScan query-data join.
func TestSharedScanMatchesNaiveProperty(t *testing.T) {
	db, tab := seedUsers(t, 200)
	ts := db.SnapshotTS()
	r := rand.New(rand.NewSource(99))
	countries := []string{"CH", "DE", "US", "FR", "IT", "XX"}

	randPred := func() expr.Expr {
		switch r.Intn(5) {
		case 0:
			return eqPred(tab, "country", types.NewString(countries[r.Intn(len(countries))]))
		case 1:
			return eqPred(tab, "id", types.NewInt(int64(r.Intn(250))))
		case 2:
			return &expr.Cmp{Op: expr.CmpOp(2 + r.Intn(4)), L: colRef(tab, "account"),
				R: &expr.Const{Val: types.NewInt(int64(r.Intn(1000)))}}
		case 3:
			return &expr.And{Kids: []expr.Expr{
				eqPred(tab, "country", types.NewString(countries[r.Intn(len(countries))])),
				&expr.Cmp{Op: expr.GT, L: colRef(tab, "account"), R: &expr.Const{Val: types.NewInt(int64(r.Intn(800)))}},
			}}
		default:
			return &expr.Like{L: colRef(tab, "name"), Pattern: &expr.Const{Val: types.NewString("%" + fmt.Sprint(r.Intn(10)) + "%")}}
		}
	}

	for trial := 0; trial < 30; trial++ {
		nq := 1 + r.Intn(30)
		clients := make([]ScanClient, nq)
		for i := range clients {
			clients[i] = ScanClient{ID: queryset.QueryID(i + 1), Pred: randPred()}
		}
		collect := func(scan func(uint64, []ScanClient, func(RowID, types.Row, queryset.Set))) map[queryset.QueryID]map[RowID]bool {
			out := map[queryset.QueryID]map[RowID]bool{}
			scan(ts, clients, func(rid RowID, _ types.Row, qs queryset.Set) {
				for _, id := range qs.IDs() {
					if out[id] == nil {
						out[id] = map[RowID]bool{}
					}
					out[id][rid] = true
				}
			})
			return out
		}
		indexed := collect(func(ts uint64, clients []ScanClient, emit func(RowID, types.Row, queryset.Set)) {
			tab.SharedScanPooled(ts, clients, 1, nil, emit)
		})
		naive := collect(func(ts uint64, clients []ScanClient, emit func(RowID, types.Row, queryset.Set)) {
			sharedScanNaive(tab, ts, clients, emit)
		})
		if len(indexed) != len(naive) {
			t.Fatalf("trial %d: query coverage differs: %d vs %d", trial, len(indexed), len(naive))
		}
		for id, rows := range naive {
			if len(indexed[id]) != len(rows) {
				t.Fatalf("trial %d query %d: %d rows indexed vs %d naive", trial, id, len(indexed[id]), len(rows))
			}
			for rid := range rows {
				if !indexed[id][rid] {
					t.Fatalf("trial %d query %d: rid %d missing from indexed scan", trial, id, rid)
				}
			}
		}
	}
}

func TestSharedProbeEquality(t *testing.T) {
	db, tab := seedUsers(t, 100)
	ts := db.SnapshotTS()
	pk := tab.PrimaryKey()
	clients := []ProbeClient{
		{ID: 1, Key: []types.Value{types.NewInt(5)}},
		{ID: 2, Key: []types.Value{types.NewInt(5)}}, // duplicate key: shared traversal
		{ID: 3, Key: []types.Value{types.NewInt(7)}},
		{ID: 4, Key: []types.Value{types.NewInt(999)}}, // miss
	}
	emitted := 0
	got := map[queryset.QueryID]int64{}
	tab.SharedProbePooled(ts, pk, clients, nil, func(_ RowID, row types.Row, qs queryset.Set) {
		emitted++
		for _, id := range qs.IDs() {
			got[id] = row[0].AsInt()
		}
	})
	if emitted != 2 {
		t.Errorf("emitted %d rows, want 2 (key 5 shared)", emitted)
	}
	if got[1] != 5 || got[2] != 5 || got[3] != 7 {
		t.Errorf("got = %v", got)
	}
	if _, ok := got[4]; ok {
		t.Error("missing key should produce nothing")
	}
}

func TestSharedProbeRange(t *testing.T) {
	db, tab := seedUsers(t, 100)
	ts := db.SnapshotTS()
	pk := tab.PrimaryKey()
	clients := []ProbeClient{
		{ID: 1, Lo: []types.Value{types.NewInt(10)}, Hi: []types.Value{types.NewInt(14)}, LoIncl: true, HiIncl: true},
	}
	var ids []int64
	tab.SharedProbePooled(ts, pk, clients, nil, func(_ RowID, row types.Row, _ queryset.Set) {
		ids = append(ids, row[0].AsInt())
	})
	if len(ids) != 5 {
		t.Errorf("range probe found %v", ids)
	}
}

func TestSharedProbeResidual(t *testing.T) {
	db, tab := seedUsers(t, 100)
	ts := db.SnapshotTS()
	ix := tab.IndexByName("users_country")
	gt500 := &expr.Cmp{Op: expr.GT, L: colRef(tab, "account"), R: &expr.Const{Val: types.NewInt(500)}}
	clients := []ProbeClient{
		{ID: 1, Key: []types.Value{types.NewString("CH")}, Residual: gt500},
		{ID: 2, Key: []types.Value{types.NewString("CH")}},
	}
	counts := map[queryset.QueryID]int{}
	tab.SharedProbePooled(ts, ix, clients, nil, func(_ RowID, row types.Row, qs queryset.Set) {
		for _, id := range qs.IDs() {
			counts[id]++
			if id == 1 && row[3].AsInt() <= 500 {
				t.Errorf("residual violated: %v", row)
			}
		}
	})
	if counts[2] != 20 {
		t.Errorf("Q2 = %d, want 20", counts[2])
	}
	if counts[1] == 0 || counts[1] >= counts[2] {
		t.Errorf("Q1 = %d should be a strict non-empty subset of Q2", counts[1])
	}
}

func TestSharedProbeStaleEntriesAfterUpdate(t *testing.T) {
	db, tab := seedUsers(t, 10)
	// Move user 3 from its country to "ZZ": the country index now has a
	// stale entry; probes must not return the row under the old key.
	oldRow, _ := tab.Visible(3, db.SnapshotTS())
	oldCountry := oldRow[2].AsString()
	db.ApplyOps([]WriteOp{{
		Table: "users", Kind: WUpdate,
		Pred: eqPred(tab, "id", types.NewInt(3)),
		Set:  []ColSet{{Col: 2, Val: &expr.Const{Val: types.NewString("ZZ")}}},
	}})
	ts := db.SnapshotTS()
	ix := tab.IndexByName("users_country")

	var oldKeyIDs []int64
	tab.SharedProbePooled(ts, ix, []ProbeClient{{ID: 1, Key: []types.Value{types.NewString(oldCountry)}}}, nil,
		func(_ RowID, row types.Row, _ queryset.Set) { oldKeyIDs = append(oldKeyIDs, row[0].AsInt()) })
	for _, id := range oldKeyIDs {
		if id == 3 {
			t.Error("stale index entry returned moved row")
		}
	}
	var newKeyIDs []int64
	tab.SharedProbePooled(ts, ix, []ProbeClient{{ID: 1, Key: []types.Value{types.NewString("ZZ")}}}, nil,
		func(_ RowID, row types.Row, _ queryset.Set) { newKeyIDs = append(newKeyIDs, row[0].AsInt()) })
	if len(newKeyIDs) != 1 || newKeyIDs[0] != 3 {
		t.Errorf("new key probe = %v", newKeyIDs)
	}
}

func BenchmarkSharedScanIndexed(b *testing.B) {
	benchScan(b, true)
}

func BenchmarkSharedScanNaive(b *testing.B) {
	benchScan(b, false)
}

func benchScan(b *testing.B, indexed bool) {
	db, err := Open(Options{})
	if err != nil {
		b.Fatal(err)
	}
	tab, _ := db.CreateTable("users", usersSchema())
	tab.SetPrimaryKey("id")
	var ops []WriteOp
	for i := int64(0); i < 10000; i++ {
		ops = append(ops, WriteOp{Table: "users", Kind: WInsert, Row: user(i, fmt.Sprintf("u%d", i), fmt.Sprintf("C%d", i%50), i%1000)})
	}
	db.ApplyOps(ops)
	ts := db.SnapshotTS()
	clients := make([]ScanClient, 256)
	for i := range clients {
		clients[i] = ScanClient{ID: queryset.QueryID(i + 1),
			Pred: eqPred(tab, "country", types.NewString(fmt.Sprintf("C%d", i%50)))}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if indexed {
			tab.SharedScanPooled(ts, clients, 1, nil, func(RowID, types.Row, queryset.Set) {})
		} else {
			sharedScanNaive(tab, ts, clients, func(RowID, types.Row, queryset.Set) {})
		}
	}
}
