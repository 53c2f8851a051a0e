package storage

import (
	"math"
	"testing"

	"shareddb/internal/expr"
	"shareddb/internal/queryset"
	"shareddb/internal/types"
)

// Zone maps: every int vector keeps per-word bounds the range kernels use to
// decide whole words without reading a lane. These tests hold the shared
// scan to per-row evaluation through every way the bounds change — append,
// patch, tombstone, compaction, rebuild — and show the shortcut fires.

// intRangePred is col <op> v over an int column.
func intRangePred(col int, op expr.CmpOp, v int64) expr.Expr {
	return &expr.Cmp{Op: op, L: &expr.ColRef{Idx: col}, R: &expr.Const{Val: types.NewInt(v)}}
}

// checkScanMatchesNaive runs one scan cycle at ts and fails on any
// difference from per-query evaluation.
func checkScanMatchesNaive(t *testing.T, step string, tab *Table, ts uint64, clients []ScanClient, bufs *ColScanBuffers) {
	t.Helper()
	want := collectNaive(tab, ts, clients)
	got := collectColumnar(tab, ts, clients, bufs)
	if len(got) != len(want) {
		t.Fatalf("%s: %d emissions, per-row evaluation %d", step, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: emission %d is {rid %d, qs %s}, per-row evaluation {rid %d, qs %s}",
				step, i, got[i].rid, got[i].qs, want[i].rid, want[i].qs)
		}
	}
}

func TestZoneMapsMatchPerRowEvaluation(t *testing.T) {
	lowerColThresholds(t)
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// clu rises with the insertion order (every word's zone is narrow);
	// shu is a scrambled permutation (every zone is wide); both carry NULLs.
	tab, err := db.CreateTable("z", types.NewSchema(
		types.Column{Qualifier: "z", Name: "id", Kind: types.KindInt},
		types.Column{Qualifier: "z", Name: "clu", Kind: types.KindInt},
		types.Column{Qualifier: "z", Name: "shu", Kind: types.KindInt},
	))
	if err != nil {
		t.Fatal(err)
	}
	const n = 1000
	ops := make([]WriteOp, n)
	for i := 0; i < n; i++ {
		clu := types.NewInt(int64(i))
		if i%97 == 0 {
			clu = types.Null
		}
		ops[i] = WriteOp{Table: "z", Kind: WInsert, Row: types.Row{
			types.NewInt(int64(i)), clu, types.NewInt(int64(i*7919) % n),
		}}
	}
	db.ApplyOps(ops)
	oldTS := db.SnapshotTS()

	var clients []ScanClient
	add := func(p expr.Expr) {
		clients = append(clients, ScanClient{ID: queryset.QueryID(len(clients) + 1), Pred: p})
	}
	for _, col := range []int{1, 2} {
		add(intRangePred(col, expr.GT, 750))
		add(intRangePred(col, expr.LE, 120))
		add(expr.AndOf([]expr.Expr{intRangePred(col, expr.GE, 300), intRangePred(col, expr.LT, 420)}))
		add(expr.AndOf([]expr.Expr{intRangePred(col, expr.GE, 64), intRangePred(col, expr.LE, 127)}))
		add(intRangePred(col, expr.GE, math.MinInt64))
		add(intRangePred(col, expr.LT, math.MinInt64))
	}
	// A range with a residual: the zone map decides the range, the residual
	// still runs on every lane it admits.
	add(expr.AndOf([]expr.Expr{intRangePred(1, expr.GT, 500), intRangePred(2, expr.LT, 500)}))

	bufs := &ColScanBuffers{}
	ts := db.SnapshotTS()
	checkScanMatchesNaive(t, "after append", tab, ts, clients, bufs)
	if bufs.ps.zoneSkips == 0 {
		t.Fatal("no word of the clustered column was decided by its zone")
	}

	// Patches that carry values far outside their word's zone, in both
	// directions, and a NULL that leaves the zone wider than the lanes.
	update := func(id int64, col int, v types.Value) WriteOp {
		return WriteOp{Table: "z", Kind: WUpdate, Pred: intRangePred(0, expr.EQ, id),
			Set: []ColSet{{Col: col, Val: &expr.Const{Val: v}}}}
	}
	db.ApplyOps([]WriteOp{
		update(5, 1, types.NewInt(900)),
		update(800, 1, types.NewInt(10)),
		update(300, 1, types.NewInt(math.MaxInt64)),
		update(301, 1, types.NewInt(math.MinInt64)),
		update(70, 1, types.Null),
		update(640, 2, types.NewInt(-1)),
	})
	ts = db.SnapshotTS()
	checkScanMatchesNaive(t, "after out-of-zone patches", tab, ts, clients, bufs)

	// Tombstones, then enough of them to cross the compaction threshold:
	// compaction moves lanes between words and recomputes every zone.
	db.ApplyOps([]WriteOp{{Table: "z", Kind: WDelete, Pred: intRangePred(0, expr.LT, 200)}})
	ts = db.SnapshotTS()
	checkScanMatchesNaive(t, "after deletes", tab, ts, clients, bufs)
	before := tab.columnarStats().compactions
	db.ApplyOps([]WriteOp{{Table: "z", Kind: WDelete, Pred: expr.AndOf([]expr.Expr{
		intRangePred(0, expr.GE, 200), intRangePred(0, expr.LT, 820)})}})
	ts = db.SnapshotTS()
	checkScanMatchesNaive(t, "after compaction", tab, ts, clients, bufs)
	if tab.columnarStats().compactions == before {
		t.Fatal("the deletes did not compact the mirror")
	}

	// A pin older than the mirror rebuilds it, zones included; the next
	// forward pin rebuilds again.
	rebuilds := tab.columnarStats().rebuilds
	checkScanMatchesNaive(t, "at a backward pin", tab, oldTS, clients, bufs)
	checkScanMatchesNaive(t, "forward after the backward pin", tab, ts, clients, bufs)
	if got := tab.columnarStats().rebuilds; got < rebuilds+2 {
		t.Fatalf("backward and forward pins rebuilt %d times, want 2", got-rebuilds)
	}
}

// FuzzColumnarIntRange fuzzes a tape of appends, updates, deletes and NULLs
// over one int column, then a range with fuzzed bounds (the int extremes
// included) and inclusivities: the shared scan must equal per-row
// evaluation after every write.
func FuzzColumnarIntRange(f *testing.F) {
	f.Add([]byte{0, 5, 1, 3, 2, 9, 0, 200, 3, 4}, int64(3), int64(100), true, false)
	f.Add([]byte{0, 1, 0, 2, 0, 3, 1, 1, 2, 0, 0, 255}, int64(math.MinInt64), int64(math.MaxInt64), true, true)
	f.Add([]byte{3, 3, 3, 0, 9, 1, 2, 250}, int64(math.MaxInt64), int64(math.MinInt64), false, false)
	f.Fuzz(func(t *testing.T, tape []byte, lo, hi int64, loIncl, hiIncl bool) {
		if len(tape) > 512 {
			return
		}
		old := colCompactMinRows
		colCompactMinRows = 8
		defer func() { colCompactMinRows = old }()
		db, err := Open(Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		tab, err := db.CreateTable("f", types.NewSchema(
			types.Column{Qualifier: "f", Name: "id", Kind: types.KindInt},
			types.Column{Qualifier: "f", Name: "v", Kind: types.KindInt},
		))
		if err != nil {
			t.Fatal(err)
		}
		loOp, hiOp := expr.GT, expr.LT
		if loIncl {
			loOp = expr.GE
		}
		if hiIncl {
			hiOp = expr.LE
		}
		clients := []ScanClient{
			{ID: 1, Pred: expr.AndOf([]expr.Expr{intRangePred(1, loOp, lo), intRangePred(1, hiOp, hi)})},
			{ID: 2, Pred: intRangePred(1, loOp, lo)},
			{ID: 3, Pred: intRangePred(1, hiOp, hi)},
		}
		// The tape's values spread over the whole int64 range and cluster
		// around the bounds, so zones straddle, miss and cover them.
		val := func(b byte) types.Value {
			switch b % 8 {
			case 0:
				return types.Null
			case 1:
				return types.NewInt(math.MinInt64 + int64(b>>3))
			case 2:
				return types.NewInt(math.MaxInt64 - int64(b>>3))
			case 3:
				return types.NewInt(lo + int64(b>>3) - 16)
			case 4:
				return types.NewInt(hi + int64(b>>3) - 16)
			default:
				return types.NewInt(int64(b) * 1_000_003)
			}
		}
		bufs := &ColScanBuffers{}
		next := int64(0)
		for i := 0; i+1 < len(tape); i += 2 {
			op, arg := tape[i]%4, tape[i+1]
			var w WriteOp
			switch op {
			case 0, 1: // append a run of rows, clustered by arg
				var ops []WriteOp
				for k := 0; k < 1+int(arg%70); k++ {
					ops = append(ops, WriteOp{Table: "f", Kind: WInsert, Row: types.Row{types.NewInt(next), val(arg + byte(k))}})
					next++
				}
				db.ApplyOps(ops)
				continue
			case 2:
				w = WriteOp{Table: "f", Kind: WUpdate, Pred: intRangePred(0, expr.EQ, int64(arg)%max(next, 1)),
					Set: []ColSet{{Col: 1, Val: &expr.Const{Val: val(arg ^ 0x5a)}}}}
			default:
				w = WriteOp{Table: "f", Kind: WDelete, Pred: intRangePred(0, expr.LE, int64(arg)%max(next, 1))}
			}
			db.ApplyOps([]WriteOp{w})
			checkScanMatchesNaive(t, "tape step", tab, db.SnapshotTS(), clients, bufs)
		}
		checkScanMatchesNaive(t, "end of tape", tab, db.SnapshotTS(), clients, bufs)
	})
}
