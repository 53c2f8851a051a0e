package storage

import (
	"fmt"
	"math/rand"
	"testing"

	"shareddb/internal/expr"
	"shareddb/internal/queryset"
	"shareddb/internal/types"
)

// Differential correctness sweep for the ClockScan (the batched, predicate-
// indexed shared scan): for random schemas, rows and predicate batches, the
// batched answer of every query must equal a naive per-query evaluation of
// its predicate over the visible rows — same row ids, same order. The sweep
// covers all four client classes the predicate index distinguishes:
// equality (hashed), range (compiled typed bounds), residual-conjunct
// (indexed conjunct + per-row residual), and no-predicate/rest (LIKE, OR,
// NOT, IS NULL, full scans). The scan runs over 64-row chunks so a chunk
// boundary falls inside most tables.

// fuzzValue generates a value for a column kind; withNull allows SQL NULL.
// Numeric domains are deliberately tiny so predicates hit often, and float
// columns mix integral and fractional values to stress INT/FLOAT coercion
// (Compare coerces; the equality hash must agree via key canonicalization).
func fuzzValue(r *rand.Rand, kind types.Kind, withNull bool) types.Value {
	if withNull && r.Intn(10) == 0 {
		return types.Null
	}
	switch kind {
	case types.KindInt:
		return types.NewInt(int64(r.Intn(21) - 10))
	case types.KindFloat:
		f := float64(r.Intn(21) - 10)
		if r.Intn(2) == 0 {
			f += 0.5
		}
		return types.NewFloat(f)
	default:
		return types.NewString(string(rune('a' + r.Intn(5))))
	}
}

// fuzzConst generates a comparison constant for a column: usually the
// column's own kind, sometimes the other numeric kind (an INT literal
// compared against a FLOAT column and vice versa — the SQL front-end
// produces exactly that for `WHERE fcol = 5`).
func fuzzConst(r *rand.Rand, kind types.Kind) types.Value {
	if kind == types.KindFloat && r.Intn(3) == 0 {
		return types.NewInt(int64(r.Intn(21) - 10))
	}
	if kind == types.KindInt && r.Intn(3) == 0 {
		f := float64(r.Intn(21) - 10)
		if r.Intn(2) == 0 {
			f += 0.5
		}
		return types.NewFloat(f)
	}
	return fuzzValue(r, kind, false)
}

// fuzzPred builds one random predicate over the schema, drawn from the four
// client classes.
func fuzzPred(r *rand.Rand, kinds []types.Kind) expr.Expr {
	col := func() int { return r.Intn(len(kinds)) }
	cmp := func(op expr.CmpOp) expr.Expr {
		c := col()
		return &expr.Cmp{Op: op, L: &expr.ColRef{Idx: c}, R: &expr.Const{Val: fuzzConst(r, kinds[c])}}
	}
	rangeOps := []expr.CmpOp{expr.LT, expr.LE, expr.GT, expr.GE}
	switch r.Intn(10) {
	case 0, 1: // equality client
		return cmp(expr.EQ)
	case 2, 3: // range client (half the time with an unbounded lower bound)
		return cmp(rangeOps[r.Intn(len(rangeOps))])
	case 4: // residual-conjunct client: equality + extra conjuncts
		kids := []expr.Expr{cmp(expr.EQ), cmp(rangeOps[r.Intn(len(rangeOps))])}
		if r.Intn(2) == 0 {
			kids = append(kids, cmp(expr.NE))
		}
		return &expr.And{Kids: kids}
	case 5: // residual-conjunct client: range + range (BETWEEN shape)
		c := col()
		lo := fuzzConst(r, kinds[c])
		hi := fuzzConst(r, kinds[c])
		return &expr.And{Kids: []expr.Expr{
			&expr.Cmp{Op: expr.GE, L: &expr.ColRef{Idx: c}, R: &expr.Const{Val: lo}},
			&expr.Cmp{Op: expr.LE, L: &expr.ColRef{Idx: c}, R: &expr.Const{Val: hi}},
		}}
	case 6: // rest: disjunction
		return &expr.Or{Kids: []expr.Expr{cmp(expr.EQ), cmp(expr.EQ)}}
	case 7: // rest: negation / IS NULL
		if r.Intn(2) == 0 {
			return &expr.Not{Kid: cmp(expr.EQ)}
		}
		return &expr.IsNull{Kid: &expr.ColRef{Idx: col()}, Negate: r.Intn(2) == 0}
	case 8: // rest: NE only (not indexable)
		return cmp(expr.NE)
	default: // no-predicate client
		return nil
	}
}

func TestClockScanDifferentialFuzz(t *testing.T) {
	lowerColThresholds(t)
	r := rand.New(rand.NewSource(20120725))
	kindPool := []types.Kind{types.KindInt, types.KindFloat, types.KindString}
	for trial := 0; trial < 150; trial++ {
		ncols := 1 + r.Intn(4)
		kinds := make([]types.Kind, ncols)
		cols := make([]types.Column, ncols)
		for i := range cols {
			kinds[i] = kindPool[r.Intn(len(kindPool))]
			cols[i] = types.Column{Qualifier: "t", Name: fmt.Sprintf("c%d", i), Kind: kinds[i]}
		}
		db, err := Open(Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.CreateTable("t", types.NewSchema(cols...)); err != nil {
			t.Fatal(err)
		}
		tab := db.Table("t")
		nrows := r.Intn(250)
		ops := make([]WriteOp, nrows)
		for i := range ops {
			row := make(types.Row, ncols)
			for c := range row {
				row[c] = fuzzValue(r, kinds[c], true)
			}
			ops[i] = WriteOp{Table: "t", Kind: WInsert, Row: row}
		}
		db.ApplyOps(ops)
		ts := db.SnapshotTS()

		nq := 1 + r.Intn(40)
		clients := make([]ScanClient, nq)
		for i := range clients {
			clients[i] = ScanClient{ID: queryset.QueryID(i + 1), Pred: fuzzPred(r, kinds)}
		}

		perQuery := func(scan func(emit func(RowID, types.Row, queryset.Set))) map[queryset.QueryID][]RowID {
			out := make(map[queryset.QueryID][]RowID)
			scan(func(rid RowID, _ types.Row, qs queryset.Set) {
				for _, id := range qs.IDs() {
					out[id] = append(out[id], rid)
				}
			})
			return out
		}
		want := perQuery(func(emit func(RowID, types.Row, queryset.Set)) {
			sharedScanNaive(tab, ts, clients, emit)
		})

		got := perQuery(func(emit func(RowID, types.Row, queryset.Set)) {
			tab.SharedScan(ts, clients, &ColScanBuffers{}, emit)
		})
		for _, c := range clients {
			w, g := want[c.ID], got[c.ID]
			if len(w) != len(g) {
				t.Fatalf("trial %d query %d (pred %v): %d rows, oracle %d",
					trial, c.ID, c.Pred, len(g), len(w))
			}
			for i := range w {
				if w[i] != g[i] {
					t.Fatalf("trial %d query %d (pred %v): row %d = rid %d, oracle rid %d",
						trial, c.ID, c.Pred, i, g[i], w[i])
				}
			}
		}
		if len(got) > len(want) {
			t.Fatalf("trial %d: answered %d queries, oracle answered %d", trial, len(got), len(want))
		}
		db.Close()
	}
}

// Range probes with and without a lower bound on one int column: unbounded
// sides normalize to the int extremes and pick the one-sided word kernels,
// exclusive bounds close by one, and probes sharing a lower bound must all
// be evaluated. Each query's rows are pinned exactly.
func TestClockScanRangeProbeUnboundedLowerBounds(t *testing.T) {
	db, tab := newUserDB(t)
	for i := int64(0); i < 40; i++ {
		insertUsers(t, db, user(i, fmt.Sprintf("u%d", i), "CH", i*10))
	}
	ts := db.SnapshotTS()
	lt := func(v int64) expr.Expr {
		return &expr.Cmp{Op: expr.LT, L: colRef(tab, "account"), R: &expr.Const{Val: types.NewInt(v)}}
	}
	ge := func(v int64) expr.Expr {
		return &expr.Cmp{Op: expr.GE, L: colRef(tab, "account"), R: &expr.Const{Val: types.NewInt(v)}}
	}
	between := func(lo, hi int64) expr.Expr {
		return &expr.And{Kids: []expr.Expr{ge(lo), lt(hi)}}
	}
	clients := []ScanClient{
		{ID: 1, Pred: lt(50)},            // unbounded lower bound, sorts first
		{ID: 2, Pred: lt(250)},           // unbounded lower bound, wider
		{ID: 3, Pred: between(100, 200)}, // bounded Lo=100
		{ID: 4, Pred: between(100, 300)}, // same Lo=100 (tie in the sort)
		{ID: 5, Pred: ge(300)},           // bounded Lo=300
	}
	counts := map[queryset.QueryID]int{}
	tab.SharedScan(ts, clients, &ColScanBuffers{}, func(_ RowID, row types.Row, qs queryset.Set) {
		acct := row[3].AsInt()
		for _, id := range qs.IDs() {
			counts[id]++
			ok := false
			switch id {
			case 1:
				ok = acct < 50
			case 2:
				ok = acct < 250
			case 3:
				ok = acct >= 100 && acct < 200
			case 4:
				ok = acct >= 100 && acct < 300
			case 5:
				ok = acct >= 300
			}
			if !ok {
				t.Errorf("query %d wrongly matched account %d", id, acct)
			}
		}
	})
	// accounts are 0,10,...,390
	want := map[queryset.QueryID]int{1: 5, 2: 25, 3: 10, 4: 20, 5: 10}
	for id, w := range want {
		if counts[id] != w {
			t.Errorf("query %d matched %d rows, want %d", id, counts[id], w)
		}
	}
}
