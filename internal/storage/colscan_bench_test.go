package storage

import (
	"fmt"
	"testing"

	"shareddb/internal/expr"
	"shareddb/internal/queryset"
	"shareddb/internal/types"
)

// benchItemsTable seeds an item-shaped table (int id, string title, float
// cost) mirroring the TPC-W columns the microbench statements scan.
func benchItemsTable(b *testing.B, n int) (*Database, *Table, uint64) {
	b.Helper()
	db, err := Open(Options{})
	if err != nil {
		b.Fatal(err)
	}
	sch := types.NewSchema(
		types.Column{Qualifier: "item", Name: "i_id", Kind: types.KindInt},
		types.Column{Qualifier: "item", Name: "i_title", Kind: types.KindString},
		types.Column{Qualifier: "item", Name: "i_cost", Kind: types.KindFloat},
	)
	tab, err := db.CreateTable("item", sch)
	if err != nil {
		b.Fatal(err)
	}
	tab.SetPrimaryKey("i_id")
	ops := make([]WriteOp, 0, n)
	for i := 0; i < n; i++ {
		ops = append(ops, WriteOp{Table: "item", Kind: WInsert, Row: types.Row{
			types.NewInt(int64(i)),
			types.NewString(fmt.Sprintf("Title %05d abcdefgh", i)),
			types.NewFloat(float64(i%1000) / 10),
		}})
	}
	db.ApplyOps(ops)
	return db, tab, db.SnapshotTS()
}

func benchColumnarScan(b *testing.B, clients []ScanClient) {
	_, tab, ts := benchItemsTable(b, 10000)
	var bufs ColScanBuffers
	// prime the mirror outside the timed loop
	tab.SharedScan(ts, clients, &bufs, func(RowID, types.Row, queryset.Set) {})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.SharedScan(ts, clients, &bufs, func(RowID, types.Row, queryset.Set) {})
	}
}

// BenchmarkColumnarScanLike is the scan_columnar batch shape: 64 LIKE
// prefix predicates over the title column.
func BenchmarkColumnarScanLike(b *testing.B) {
	clients := make([]ScanClient, 64)
	for i := range clients {
		clients[i] = ScanClient{ID: queryset.QueryID(i + 1), Pred: &expr.Like{
			L:       &expr.ColRef{Idx: 1},
			Pattern: &expr.Const{Val: types.NewString(fmt.Sprintf("Title %02d%%", i%100))},
		}}
	}
	benchColumnarScan(b, clients)
}

// BenchmarkColumnarScanIntRange: 64 int range predicates over i_id.
func BenchmarkColumnarScanIntRange(b *testing.B) {
	clients := make([]ScanClient, 64)
	for i := range clients {
		clients[i] = ScanClient{ID: queryset.QueryID(i + 1), Pred: &expr.Cmp{
			Op: expr.GT, L: &expr.ColRef{Idx: 0}, R: &expr.Const{Val: types.NewInt(int64(i * 150))},
		}}
	}
	benchColumnarScan(b, clients)
}

// BenchmarkColumnarScanFloatRange: 64 float range predicates over i_cost.
func BenchmarkColumnarScanFloatRange(b *testing.B) {
	clients := make([]ScanClient, 64)
	for i := range clients {
		clients[i] = ScanClient{ID: queryset.QueryID(i + 1), Pred: &expr.Cmp{
			Op: expr.LT, L: &expr.ColRef{Idx: 2}, R: &expr.Const{Val: types.NewFloat(float64(i) * 1.5)},
		}}
	}
	benchColumnarScan(b, clients)
}

// BenchmarkColumnarScanEq: 64 equality predicates over i_id.
func BenchmarkColumnarScanEq(b *testing.B) {
	clients := make([]ScanClient, 64)
	for i := range clients {
		clients[i] = ScanClient{ID: queryset.QueryID(i + 1), Pred: &expr.Cmp{
			Op: expr.EQ, L: &expr.ColRef{Idx: 0}, R: &expr.Const{Val: types.NewInt(int64(i * 7))},
		}}
	}
	benchColumnarScan(b, clients)
}

// BenchmarkColumnarScanLikeMiss: 64 LIKE predicates that never match —
// isolates pure kernel cost (no emission).
func BenchmarkColumnarScanLikeMiss(b *testing.B) {
	clients := make([]ScanClient, 64)
	for i := range clients {
		clients[i] = ScanClient{ID: queryset.QueryID(i + 1), Pred: &expr.Like{
			L:       &expr.ColRef{Idx: 1},
			Pattern: &expr.Const{Val: types.NewString(fmt.Sprintf("Zitle %02d%%", i%100))},
		}}
	}
	benchColumnarScan(b, clients)
}

// BenchmarkColumnarScanIntRangeMiss: 64 int ranges that never match.
func BenchmarkColumnarScanIntRangeMiss(b *testing.B) {
	clients := make([]ScanClient, 64)
	for i := range clients {
		clients[i] = ScanClient{ID: queryset.QueryID(i + 1), Pred: &expr.Cmp{
			Op: expr.GT, L: &expr.ColRef{Idx: 0}, R: &expr.Const{Val: types.NewInt(int64(1000000 + i))},
		}}
	}
	benchColumnarScan(b, clients)
}

// BenchmarkColumnarScanFloatRangeMiss: 64 float ranges that never match.
func BenchmarkColumnarScanFloatRangeMiss(b *testing.B) {
	clients := make([]ScanClient, 64)
	for i := range clients {
		clients[i] = ScanClient{ID: queryset.QueryID(i + 1), Pred: &expr.Cmp{
			Op: expr.LT, L: &expr.ColRef{Idx: 2}, R: &expr.Const{Val: types.NewFloat(-1 - float64(i))},
		}}
	}
	benchColumnarScan(b, clients)
}
