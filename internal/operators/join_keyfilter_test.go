package operators

import (
	"fmt"
	"slices"
	"testing"

	"shareddb/internal/expr"
	"shareddb/internal/queryset"
	"shareddb/internal/storage"
	"shareddb/internal/types"
)

// A hash join that reads its outer from the column mirror skips, under the
// build-key filter (HashJoinOp.keySet), every outer row whose key is in no
// build bucket. FuzzHashJoinKeyFilter holds such a join to the same join
// streaming its outer, which never filters: per-query rows must be equal in
// value and order.

// keyFilterKey is the outer key byte b decodes to: one of 18 points spaced
// step apart from base, nudged by -1, 0 or +1 so the edges of the build
// keys' span are hit from both sides; NULL on every byte ≡ 28 (mod 29).
func keyFilterKey(b byte, base, step int64) types.Value {
	if b%29 == 28 {
		return types.Null
	}
	return types.NewInt(base + int64(b%18)*step + []int64{-1, 0, 0, 1}[b>>6])
}

// keyFilterBuild decodes a byte per build tuple: its key — one of 17 points
// spaced step apart from base — and the key's kind. Most keys are INTs; the
// rest are a BOOL, a TIME, an integral FLOAT (5.0 must match 5), a
// fractional FLOAT, a NULL and a string. Odd tuples belong to queries 2 and
// 5 only.
func keyFilterBuild(bs []byte, base, step int64) []Tuple {
	out := make([]Tuple, len(bs))
	for i, b := range bs {
		k := base + int64(b%17)*step
		var key types.Value
		switch b / 17 {
		case 9:
			key = types.NewBool(k&1 == 1)
		case 10:
			key = types.Value{K: types.KindTime, Int: k}
		case 11, 12:
			key = types.NewFloat(float64(k))
		case 13:
			key = types.NewFloat(float64(k) + 0.5)
		case 14:
			key = types.Null
		case 15:
			key = types.NewString(fmt.Sprint(k))
		default:
			key = types.NewInt(k)
		}
		qs := queryset.Of(1, 2, 3, 5)
		if i%2 == 1 {
			qs = queryset.Of(2, 5)
		}
		out[i] = Tuple{Row: types.Row{key, types.NewString(fmt.Sprintf("in%d", i))}, QS: qs}
	}
	return out
}

// keyFilterWrites turns a tape into writes on ol: a byte per write
// inserting a fresh row, setting k1 on the rows with id ≡ b (mod 7), or
// deleting one id. nextID is the next unused primary key.
func keyFilterWrites(tape []byte, base, step int64, nextID *int64) []storage.WriteOp {
	var ops []storage.WriteOp
	for _, b := range tape {
		switch b % 3 {
		case 0:
			ops = append(ops, storage.WriteOp{Table: "ol", Kind: storage.WInsert, Row: types.Row{
				types.NewInt(*nextID), keyFilterKey(b, base, step), types.NewString("w"), types.NewInt(int64(b % 4))}})
			*nextID++
		case 1:
			ops = append(ops, storage.WriteOp{Table: "ol", Kind: storage.WUpdate,
				Pred: &expr.Cmp{Op: expr.EQ, L: &expr.Arith{Op: expr.Mod, L: &expr.ColRef{Idx: 0}, R: &expr.Const{Val: types.NewInt(7)}},
					R: &expr.Const{Val: types.NewInt(int64(b % 7))}},
				Set: []storage.ColSet{{Col: 1, Val: &expr.Const{Val: keyFilterKey(b/3, base, step)}}}})
		default:
			ops = append(ops, storage.WriteOp{Table: "ol", Kind: storage.WDelete,
				Pred: &expr.Cmp{Op: expr.EQ, L: &expr.ColRef{Idx: 0}, R: &expr.Const{Val: types.NewInt(int64(b/3) % (*nextID + 1))}}})
		}
	}
	return ops
}

// keyFilterTable creates ol(id INT, k1 INT, k2 VARCHAR, qty INT), the
// fused-join fixture's layout, with one row per byte of rows.
func keyFilterTable(t *testing.T, rows []byte, base, step int64) (*storage.Database, *storage.Table) {
	t.Helper()
	db, err := storage.Open(storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	tab, err := db.CreateTable("ol", types.NewSchema(
		types.Column{Qualifier: "ol", Name: "id", Kind: types.KindInt},
		types.Column{Qualifier: "ol", Name: "k1", Kind: types.KindInt},
		types.Column{Qualifier: "ol", Name: "k2", Kind: types.KindString},
		types.Column{Qualifier: "ol", Name: "qty", Kind: types.KindInt},
	))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.SetPrimaryKey("id"); err != nil {
		t.Fatal(err)
	}
	ops := make([]storage.WriteOp, len(rows))
	for i, b := range rows {
		ops[i] = storage.WriteOp{Table: "ol", Kind: storage.WInsert, Row: types.Row{
			types.NewInt(int64(i)), keyFilterKey(b, base, step), types.NewString("r"), types.NewInt(int64(b % 4))}}
	}
	if len(ops) > 0 {
		applyOK(t, db, ops...)
	}
	return db, tab
}

// keyFilterPreds are the queries' scan predicates over ol.
var keyFilterPreds = map[queryset.QueryID]expr.Expr{
	1: nil,
	2: &expr.Cmp{Op: expr.GT, L: &expr.ColRef{Idx: 0}, R: &expr.Const{Val: types.NewInt(20)}},
	3: &expr.Cmp{Op: expr.EQ, L: &expr.ColRef{Idx: 3}, R: &expr.Const{Val: types.NewInt(2)}},
	5: &expr.Cmp{Op: expr.LE, L: &expr.ColRef{Idx: 0}, R: &expr.Const{Val: types.NewInt(150)}},
}

// keyFilterCase runs one fuzzed join: the outer table as rows and the first
// half of tape leave it, optionally demoted (an integral FLOAT and a string
// stored in k1), read at that snapshot while the rest of the tape lands
// after it. It returns the join's KeyFilterCycles.
func keyFilterCase(t *testing.T, rows, build, tape []byte, base, step int64, demote bool) uint64 {
	t.Helper()
	db, tab := keyFilterTable(t, rows, base, step)
	nextID := int64(len(rows))
	half := len(tape) / 2
	if before := keyFilterWrites(tape[:half], base, step, &nextID); len(before) > 0 {
		applyOK(t, db, before...)
	}
	if demote {
		applyOK(t, db,
			storage.WriteOp{Table: "ol", Kind: storage.WInsert, Row: types.Row{types.NewInt(nextID), types.NewFloat(float64(base)), types.NewString("d"), types.NewInt(2)}},
			storage.WriteOp{Table: "ol", Kind: storage.WInsert, Row: types.Row{types.NewInt(nextID + 1), types.NewString("3"), types.NewString("d"), types.NewInt(2)}})
		nextID += 2
	}
	ts := db.SnapshotTS()
	// Pin the mirror at the snapshot before the later writes land, so the
	// join reads a mirror that lags the table.
	tab.SharedScan(ts, []storage.ScanClient{{ID: 1}}, &storage.ColScanBuffers{}, func(storage.RowID, types.Row, queryset.Set) {})
	if after := keyFilterWrites(tape[half:], base, step, &nextID); len(after) > 0 {
		applyOK(t, db, after...)
	}
	fc := fusedCase{inner: keyFilterBuild(build, base, step), innerKeys: []int{0}, outerKeys: []int{1}, preds: keyFilterPreds}
	hj := fc.op()
	got := fc.fused(hj, tab, ts)
	want := fc.streamed(t, tab, ts)
	if !slices.Equal(got, want) {
		t.Fatalf("filtered outer emitted %d tuples, streamed %d\nfiltered: %v\nstreamed: %v", len(got), len(want), got, want)
	}
	if n := fc.matches(tab, ts); len(got) != n {
		t.Fatalf("join emitted %d tuples, nested loops find %d matches", len(got), n)
	}
	return hj.KeyFilterCycles()
}

// FuzzHashJoinKeyFilter drives fuzzed outer tables, build keys, write tapes
// and key spans (1 to 2⁴⁰) through a mirror-fed hash join and holds it to
// the same join streaming its outer. rows: a byte per outer row. build: a
// byte per build tuple (key and kind). tape: a byte per write; the first
// half lands before the snapshot. spanBits: the build keys lie 2^spanBits/16
// apart (at least 1). base: the smallest key's offset. demote stores an
// integral FLOAT and a string in the outer key column.
func FuzzHashJoinKeyFilter(f *testing.F) {
	keys := func(bs ...byte) []byte { return bs }
	rows := make([]byte, 300)
	for i := range rows {
		rows[i] = byte(i * 37)
	}
	f.Add(rows, keys(0, 3, 5, 12, 16, 3), keys(0, 1, 2, 3, 4, 5), uint8(0), int64(0), false)
	f.Add(rows, keys(1, 7, 16, 203, 200, 15), keys(9, 10, 11), uint8(6), int64(-40), false)
	f.Add(rows, keys(2, 8, 187, 190, 16), keys(), uint8(10), int64(1000), false)
	f.Add(rows, keys(0, 5, 16, 221, 4), keys(3, 6), uint8(2), int64(0), false)
	f.Add(rows, keys(0, 5, 16, 238, 4), keys(3, 6), uint8(2), int64(0), false)
	f.Add(rows, keys(0, 5, 16, 243, 4), keys(3, 6), uint8(2), int64(0), false)
	f.Add(rows, keys(0, 5, 16, 165), keys(1, 4, 7), uint8(40), int64(-7), false)
	f.Add(rows, keys(0, 3, 4, 5, 6, 7, 8), keys(2, 5, 8, 0), uint8(3), int64(64), true)
	f.Add(keys(), keys(1, 2), keys(0, 3, 6, 9), uint8(0), int64(0), false)
	f.Fuzz(func(t *testing.T, rows, build, tape []byte, spanBits uint8, base int64, demote bool) {
		if len(rows) > 512 || len(build) > 64 || len(tape) > 64 || base > 1<<50 || base < -1<<50 {
			return
		}
		step := max(int64(1)<<(spanBits%41)/16, 1)
		keyFilterCase(t, rows, build, tape, base, step, demote)
	})
}

// TestHashJoinKeyFilterEngages pins when the build-key filter runs: one INT,
// BOOL, TIME or integral FLOAT key column whose span needs at most one word
// per distinct build key, over an outer key column that is an int vector.
func TestHashJoinKeyFilterEngages(t *testing.T) {
	rows := make([]byte, 300)
	for i := range rows {
		rows[i] = byte(i * 37)
	}
	for _, tc := range []struct {
		name   string
		build  []byte
		step   int64
		demote bool
		want   bool
	}{
		{"INT keys", []byte{0, 3, 5, 12, 16}, 1, false, true},
		{"one key", []byte{4}, 1, false, true},
		{"BOOL, TIME and integral FLOAT keys", []byte{154, 172, 190, 209}, 1, false, true},
		{"NULL keys never build", []byte{0, 3, 238}, 1, false, true},
		{"a fractional FLOAT key", []byte{0, 3, 221}, 1, false, false},
		{"a string key", []byte{0, 3, 255}, 1, false, false},
		{"span wider than a word per key", []byte{0, 3, 16}, 64, false, false},
		{"demoted outer column", []byte{0, 3, 5, 12, 16}, 1, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := keyFilterCase(t, rows, tc.build, nil, 0, tc.step, tc.demote) > 0; got != tc.want {
				t.Errorf("filter ran: %v, want %v", got, tc.want)
			}
		})
	}
}
