package tpcw

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"shareddb/internal/baseline"
	"shareddb/internal/core"
	"shareddb/internal/expr"
	"shareddb/internal/plan"
	"shareddb/internal/storage"
	"shareddb/internal/testutil"
	"shareddb/internal/types"
)

// TestReuseInvalidationDifferential runs every TPC-W read statement after
// every kind of commit the read set test must tell apart, at pipeline depths
// 1 and 4: after no write, and after a write only to columns outside a
// statement's read set, its read is answered from the memo; after a write to
// each column in its read set, an insert and a delete on a table it reads,
// it runs. Every answer matches a NoFold engine over the same database row
// for row and the query-at-a-time baseline as a multiset. Each column write
// must change some answer of every statement that reads the column, so a
// read set missing any column fails here.
func TestReuseInvalidationDifferential(t *testing.T) {
	for _, depth := range []int{1, 4} {
		t.Run(fmt.Sprintf("depth=%d", depth), func(t *testing.T) { reuseInvalidation(t, depth) })
	}
}

// probe is one read statement call.
type probe struct {
	id     StmtID
	params []types.Value
}

func reuseInvalidation(t *testing.T, depth int) {
	db, _ := setupDB(t, smallScale())
	defer db.Close()
	sx, err := NewBaselineSystem(db, baseline.SystemXLike)
	if err != nil {
		t.Fatal(err)
	}
	addCartLines(t, sx)
	shared, err := NewSharedSystem(db, core.Config{MaxInFlightGenerations: depth})
	if err != nil {
		t.Fatal(err)
	}
	defer shared.Close()
	ref, err := NewSharedSystem(db, core.Config{MaxInFlightGenerations: depth, NoFold: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	// One probe per fold identity: two ids with one SQL text share a
	// handle, and the second would take the first one's answer.
	var probes []probe
	params := readParams()
	for id, sqlText := range StatementSQL() {
		if !strings.HasPrefix(sqlText, "SELECT") {
			continue
		}
		for _, ps := range params[StmtID(id)] {
			if !slices.ContainsFunc(probes, func(p probe) bool {
				return shared.stmts[p.id] == shared.stmts[id] && slices.Equal(p.params, ps)
			}) {
				probes = append(probes, probe{StmtID(id), ps})
			}
		}
	}

	// check runs every probe and returns the answers. With runs set, a
	// probe must run exactly when runs says its statement's read set was
	// written, and be answered from the memo otherwise.
	check := func(what string, runs func(*plan.Statement) bool) [][]types.Row {
		t.Helper()
		out := make([][]types.Row, len(probes))
		for i, p := range probes {
			before := shared.Engine().Stats()
			got, err := shared.Query(p.id, p.params...)
			if err != nil {
				t.Fatalf("%s: stmt %d: %v", what, p.id, err)
			}
			after := shared.Engine().Stats()
			want, err := ref.Query(p.id, p.params...)
			if err != nil {
				t.Fatalf("%s: reference stmt %d: %v", what, p.id, err)
			}
			base, err := sx.Query(p.id, p.params...)
			if err != nil {
				t.Fatalf("%s: baseline stmt %d: %v", what, p.id, err)
			}
			ran, reused := after.QueriesRun-before.QueriesRun, after.ReusedQueries-before.ReusedQueries
			if runs != nil {
				if w := runs(shared.stmts[p.id]); ran != 1 || w != (reused == 0) {
					t.Errorf("%s: stmt %d %v answered %d times, reused %d, want it to run: %v", what, p.id, p.params, ran, reused, w)
				}
			}
			if !slices.EqualFunc(got, want, slices.Equal[types.Row]) {
				t.Errorf("%s: stmt %d %v\ngot       %v\nreference %v", what, p.id, p.params, got, want)
			}
			if !testutil.SameRows(got, base) {
				t.Errorf("%s: stmt %d %v\ngot      %v\nbaseline %v", what, p.id, p.params, testutil.CanonRows(got), testutil.CanonRows(base))
			}
			out[i] = want
		}
		return out
	}
	commit := func(what string, fill func(tx core.Tx)) {
		t.Helper()
		tx := shared.Engine().BeginTx()
		fill(tx)
		if err := shared.Engine().SubmitTx(tx).Wait(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}

	check("first run", nil)
	prev := check("no write", func(*plan.Statement) bool { return false })
	for _, tab := range db.Tables() {
		pk := tab.PrimaryKey().Cols
		for c, col := range tab.Schema().Cols {
			what := fmt.Sprintf("%s.%s", tab.Name(), col.Name)
			reads := func(s *plan.Statement) bool {
				return slices.ContainsFunc(s.ReadSet, func(r plan.TableRead) bool {
					return r.Table == tab && slices.Contains(r.Cols, c)
				})
			}
			// Scramble the column: every row takes its successor's value
			// (its own, for a key column) mapped into a domain disjoint from
			// the original one, which keeps keys unique and moves every
			// order, match and aggregate that reads the column.
			rows := visibleRows(db, tab)
			scrambled := make([]types.Row, len(rows))
			for i, r := range rows {
				src := rows[(i+1)%len(rows)]
				if slices.Contains(pk, c) {
					src = r
				}
				scrambled[i] = r.Clone()
				scrambled[i][c] = scramble(src[c])
			}
			commit(what+" scrambled", func(tx core.Tx) {
				for i, r := range rows {
					tx.Update(tab.Name(), keyPred(pk, r), []storage.ColSet{{Col: c, Val: &expr.Const{Val: scrambled[i][c]}}})
				}
			})
			got := check(what+" scrambled", reads)
			for id, s := range shared.stmts {
				if s.IsWrite() || !reads(s) {
					continue
				}
				moved := false
				for i, p := range probes {
					moved = moved || shared.stmts[p.id] == s && !slices.EqualFunc(got[i], prev[i], slices.Equal[types.Row])
				}
				if !moved {
					t.Errorf("fixture: scrambling %s changes no answer of stmt %d, which reads it", what, id)
				}
			}
			commit(what+" restored", func(tx core.Tx) {
				for i, r := range rows {
					tx.Update(tab.Name(), keyPred(pk, scrambled[i]), []storage.ColSet{{Col: c, Val: &expr.Const{Val: r[c]}}})
				}
			})
			prev = check(what+" restored", reads)
		}

		reads := func(s *plan.Statement) bool {
			return slices.ContainsFunc(s.ReadSet, func(r plan.TableRead) bool { return r.Table == tab })
		}
		rows := visibleRows(db, tab)
		if len(rows) == 0 {
			continue
		}
		victim := rows[len(rows)/2]
		commit(tab.Name()+" delete", func(tx core.Tx) { tx.Delete(tab.Name(), keyPred(pk, victim)) })
		check(tab.Name()+" delete", reads)
		commit(tab.Name()+" insert", func(tx core.Tx) { tx.Insert(tab.Name(), victim) })
		prev = check(tab.Name()+" insert", reads)
	}
}

// visibleRows copies the table's rows at the current snapshot, in row order.
func visibleRows(db *storage.Database, tab *storage.Table) []types.Row {
	var rows []types.Row
	tab.ScanVisible(db.SnapshotTS(), func(_ storage.RowID, r types.Row) bool {
		rows = append(rows, r.Clone())
		return true
	})
	return rows
}

// keyPred selects row by its primary key.
func keyPred(pk []int, row types.Row) expr.Expr {
	kids := make([]expr.Expr, len(pk))
	for i, c := range pk {
		kids[i] = &expr.Cmp{Op: expr.EQ, L: &expr.ColRef{Idx: c}, R: &expr.Const{Val: row[c]}}
	}
	return expr.AndOf(kids)
}

// scramble maps v one-to-one into a domain no generated value lies in:
// numbers go negative and reverse their order, strings gain a prefix.
func scramble(v types.Value) types.Value {
	switch v.K {
	case types.KindInt, types.KindTime:
		return types.Value{K: v.K, Int: -v.Int - 1_000_000}
	case types.KindFloat:
		return types.NewFloat(-v.AsFloat() - 1e6)
	case types.KindString:
		return types.NewString("~" + v.Str)
	}
	return v
}
