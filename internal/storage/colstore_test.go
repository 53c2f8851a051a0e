package storage

import (
	"fmt"
	"math"
	"testing"

	"shareddb/internal/expr"
	"shareddb/internal/types"
)

// TestFloatBitsRoundTrip sends the FLOAT edge cases — both zeros, NaN, both
// infinities and a subnormal — through every place a FLOAT's bits are
// stored or derived from: the WAL/wire codec, the repF64 column mirror
// (append and update patch) and Value.Hash. Each must come back bit for bit.
func TestFloatBitsRoundTrip(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, -2.5}
	var c colVec
	c.reset(types.KindFloat)
	for i, f := range floats {
		v := types.NewFloat(f)
		if got := math.Float64bits(v.AsFloat()); got != math.Float64bits(f) {
			t.Errorf("%v: AsFloat bits %#x, want %#x", f, got, math.Float64bits(f))
		}

		dec, n, err := types.DecodeValue(types.AppendValue(nil, v))
		if err != nil || n != 9 || dec != v {
			t.Errorf("%v: codec round trip gave %v (%d bytes, %v)", f, dec, n, err)
		}

		c.appendVal(v, i)
		if got := math.Float64bits(c.f64[i]); got != math.Float64bits(f) {
			t.Errorf("%v: mirror append holds bits %#x", f, got)
		}
		c.setVal(types.NewFloat(1), i)
		c.setVal(v, i)
		if got := math.Float64bits(c.f64[i]); got != math.Float64bits(f) {
			t.Errorf("%v: mirror patch holds bits %#x", f, got)
		}

		want := types.NewInt(int64(f)).Hash() // integral floats hash like the equal INT
		if f != math.Trunc(f) || math.IsInf(f, 0) {
			want = hashBits(math.Float64bits(f)) // the rest by their bits
		}
		if got := v.Hash(); got != want {
			t.Errorf("%v: Hash %#x, want %#x", f, got, want)
		}
	}
	if c.rep != repF64 {
		t.Fatal("the mirror demoted a FLOAT column")
	}
}

// hashBits is Value.Hash's FNV-1a mix over one 64-bit word.
func hashBits(u uint64) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < 8; i++ {
		h ^= uint64(byte(u >> (8 * i)))
		h *= 1099511628211
	}
	return h
}

// TestMirrorWriteLogBounded: a table scanned once and then only written
// keeps its mirror's write log bounded; once the log has been dropped, scans
// at an older and at a newer snapshot still equal ScanVisible.
func TestMirrorWriteLogBounded(t *testing.T) {
	lowerColThresholds(t)
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tab, err := db.CreateTable("t", types.NewSchema(
		types.Column{Qualifier: "t", Name: "id", Kind: types.KindInt},
		types.Column{Qualifier: "t", Name: "v", Kind: types.KindInt}))
	if err != nil {
		t.Fatal(err)
	}
	insert := func(id int64) {
		db.ApplyOps([]WriteOp{{Table: "t", Kind: WInsert, Row: types.Row{types.NewInt(id), types.NewInt(id)}}})
	}
	for id := int64(0); id < 8; id++ {
		insert(id)
	}
	clients := []ScanClient{{ID: 1}}
	bufs := &ColScanBuffers{}
	collectColumnar(tab, db.SnapshotTS(), clients, bufs) // attach and build the mirror

	// Inserts, updates and deletes, with no scan in between.
	id := int64(8)
	byID := func(k int64) expr.Expr {
		return &expr.Cmp{Op: expr.EQ, L: &expr.ColRef{Idx: 0}, R: &expr.Const{Val: types.NewInt(k)}}
	}
	var older uint64
	writes := 10 * colRebuildMinPending
	for i := 0; i < writes; i++ {
		switch i % 3 {
		case 0:
			insert(id)
			id++
		case 1:
			db.ApplyOps([]WriteOp{{Table: "t", Kind: WUpdate, Pred: byID(id - 1),
				Set: []ColSet{{Col: 1, Val: &expr.Const{Val: types.NewInt(int64(-i))}}}}})
		default:
			db.ApplyOps([]WriteOp{{Table: "t", Kind: WDelete, Pred: byID(id - 5)}})
		}
		if i == writes/2 {
			older = db.SnapshotTS()
		}
		tab.mu.RLock()
		n := len(tab.colm.pending)
		tab.mu.RUnlock()
		if n > colRebuildMinPending {
			t.Fatalf("after %d writes the 8-row mirror's log holds %d records, want <= %d", i+1, n, colRebuildMinPending)
		}
	}

	visible := func(ts uint64) []colEmission {
		var out []colEmission
		tab.ScanVisible(ts, func(rid RowID, row types.Row) bool {
			out = append(out, colEmission{rid: rid, qs: "{1}", rp: &row[0]})
			return true
		})
		return out
	}
	for _, ts := range []uint64{older, db.SnapshotTS(), older} {
		got, want := collectColumnar(tab, ts, clients, bufs), visible(ts)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("scan at %d after the log overflowed:\n got %v\nwant %v", ts, got, want)
		}
	}
}
