package operators

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"shareddb/internal/queryset"
	"shareddb/internal/storage"
	"shareddb/internal/types"
)

// emission is one tuple an operator emitted: its row, rendered, and its
// query set.
type emission struct {
	row string
	qs  []queryset.QueryID
}

// perTupleIndexJoin is the reference the key-ordered index join must
// reproduce: one seek per outer tuple in batch order, each tuple's matches in
// index order with the tuple's query set, and no seek at all for a key with
// a NULL column.
func perTupleIndexJoin(tab *storage.Table, ix *storage.Index, ts uint64, cfg JoinOuter, b *Batch) []emission {
	var out []emission
	for _, t := range b.Tuples {
		key := make([]types.Value, len(cfg.KeyCols))
		for i, c := range cfg.KeyCols {
			key[i] = t.Row[c]
		}
		if slices.ContainsFunc(key, types.Value.IsNull) {
			continue
		}
		tab.IndexSeekAt(ix, key, ts, func(_ storage.RowID, inner types.Row) bool {
			row := make(types.Row, len(cfg.OutCols))
			for i, oc := range cfg.OutCols {
				if oc.Inner {
					row[i] = inner[oc.Col]
				} else {
					row[i] = t.Row[oc.Col]
				}
			}
			out = append(out, emission{row.String(), slices.Clone(t.QS.IDs())})
			return true
		})
	}
	return out
}

// orderFixture is an inner table (id, k, j, tag) with duplicate k values,
// NULL k values and a band of k values past 2³², indexed on (k) and on
// (k, j).
func orderFixture(t *testing.T) (tab *storage.Table, ixK, ixKJ *storage.Index, ts uint64) {
	t.Helper()
	db, err := storage.Open(storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	tab, err = db.CreateTable("inner", types.NewSchema(
		types.Column{Qualifier: "inner", Name: "id", Kind: types.KindInt},
		types.Column{Qualifier: "inner", Name: "k", Kind: types.KindInt},
		types.Column{Qualifier: "inner", Name: "j", Kind: types.KindInt},
		types.Column{Qualifier: "inner", Name: "tag", Kind: types.KindString},
	))
	if err != nil {
		t.Fatal(err)
	}
	tab.SetPrimaryKey("id")
	if ixK, err = tab.AddIndex("inner_k", false, "k"); err != nil {
		t.Fatal(err)
	}
	if ixKJ, err = tab.AddIndex("inner_kj", false, "k", "j"); err != nil {
		t.Fatal(err)
	}
	var ops []storage.WriteOp
	for n := int64(0); n < 600; n++ {
		k := types.NewInt(n % 150)
		switch {
		case n%41 == 0:
			k = types.Null
		case n%10 == 0:
			k = types.NewInt(1<<33 + n%4)
		}
		tag := "x"
		if n%3 == 0 {
			tag = "y"
		}
		ops = append(ops, storage.WriteOp{Table: "inner", Kind: storage.WInsert,
			Row: types.Row{types.NewInt(n), k, types.NewInt(n % 3), types.NewString(tag)}})
	}
	results, _ := db.ApplyOps(ops)
	for _, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	return tab, ixK, ixKJ, db.SnapshotTS()
}

// TestIndexJoinKeyOrderedEmission feeds the index join batches whose keys
// are shuffled, repeated and partly NULL, on the radix path and unsorted in
// batch order (mixed INT/FLOAT keys, keys spanning 2³², two key columns),
// and through a two-column index probed by its one-column prefix.
// Every batch must emit exactly what the per-tuple seek loop emits: the same
// rows with the same query sets, in the same order.
func TestIndexJoinKeyOrderedEmission(t *testing.T) {
	tab, ixK, ixKJ, ts := orderFixture(t)
	tasks := []Task{{Query: 1}, {Query: 2}, {Query: 3}}
	rng := rand.New(rand.NewSource(37))
	sets := []queryset.Set{queryset.Of(1), queryset.Of(2), queryset.Of(2, 3), queryset.Of(1, 2, 3)}
	// batch builds an outer batch (o_id, key, j) from key draws, shuffled.
	batch := func(n int, key func(i int) types.Value) *Batch {
		b := &Batch{Stream: 1}
		for i := 0; i < n; i++ {
			b.Tuples = append(b.Tuples, Tuple{
				Row: types.Row{types.NewInt(int64(i)), key(i), types.NewInt(int64(rng.Intn(3)))},
				QS:  sets[rng.Intn(len(sets))],
			})
		}
		rng.Shuffle(len(b.Tuples), func(x, y int) { b.Tuples[x], b.Tuples[y] = b.Tuples[y], b.Tuples[x] })
		return b
	}
	intKey := func(int) types.Value {
		if rng.Intn(12) == 0 {
			return types.Null
		}
		return types.NewInt(rng.Int63n(170)) // duplicates, and keys past the table's 0..149
	}
	for _, tc := range []struct {
		name  string
		ix    *storage.Index
		cols  []int
		key   func(i int) types.Value
		radix bool
	}{
		{"radix", ixK, []int{1}, intKey, true},
		{"mixed INT/FLOAT", ixK, []int{1}, func(i int) types.Value {
			if i%7 == 0 {
				return types.NewFloat(float64(rng.Intn(40)) / 2) // integral ones match INT keys
			}
			return intKey(i)
		}, false},
		{"span ≥ 2³²", ixK, []int{1}, func(i int) types.Value {
			if i%5 == 0 {
				return types.NewInt(1<<33 + rng.Int63n(6))
			}
			return intKey(i)
		}, false},
		{"prefix of (k, j)", ixKJ, []int{1}, intKey, true},
		{"two columns", ixKJ, []int{1, 2}, intKey, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := JoinOuter{KeyCols: tc.cols, OutStream: 3, OutCols: []OutCol{{Col: 0}, {Col: 1}, {Inner: true, Col: 0}, {Inner: true, Col: 3}}}
			ij := &IndexJoinOp{Table: tab, Index: tc.ix, Outers: map[int]JoinOuter{1: cfg}}
			h := newAllocHarness(ij, queryset.Of(1, 2, 3))
			var got []emission
			h.onTuple = func(_ int, tp Tuple) {
				got = append(got, emission{tp.Row.String(), slices.Clone(tp.QS.IDs())})
			}
			for round := 0; round < 3; round++ { // scratch reused across batches and cycles
				b1, b2 := batch(700, tc.key), batch(90, tc.key)
				want := append(perTupleIndexJoin(tab, tc.ix, ts, cfg, b1), perTupleIndexJoin(tab, tc.ix, ts, cfg, b2)...)
				got = got[:0]
				h.cycle(tasks, ts, func(c *Cycle) {
					ij.Consume(c, b1)
					if ij.seek.order.radix != tc.radix {
						t.Errorf("radix path = %v, want %v", ij.seek.order.radix, tc.radix)
					}
					ij.Consume(c, b2)
				})
				if len(want) == 0 {
					t.Fatal("fixture: the reference emits nothing")
				}
				if !slices.EqualFunc(got, want, func(a, b emission) bool { return a.row == b.row && slices.Equal(a.qs, b.qs) }) {
					t.Fatalf("round %d: emitted %d tuples, reference %d; first difference at %s", round, len(got), len(want), firstDiff(got, want))
				}
			}
		})
	}
}

func firstDiff(got, want []emission) string {
	for i := range min(len(got), len(want)) {
		if got[i].row != want[i].row || !slices.Equal(got[i].qs, want[i].qs) {
			return fmt.Sprintf("%d: %v vs %v", i, got[i], want[i])
		}
	}
	return fmt.Sprint(min(len(got), len(want)))
}
