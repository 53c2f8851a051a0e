package plan

import (
	"slices"

	"shareddb/internal/expr"
	"shareddb/internal/sql"
	"shareddb/internal/storage"
)

// TableRead is one table in a read statement's read set: a commit that
// inserts or deletes one of its rows, or changes one of Cols in place, can
// change the statement's result; any other commit cannot.
type TableRead struct {
	Table *storage.Table
	Cols  []int // ascending
}

// ChangedSince reports whether a commit after ts touched the statement's
// read set, so that a result it produced at snapshot ts may no longer be
// its result now.
func (s *Statement) ChangedSince(ts uint64) bool {
	for _, r := range s.ReadSet {
		if r.Table.ChangedSince(ts, r.Cols) {
			return true
		}
	}
	return false
}

// baseCol is a base-table column a plan column is computed from.
type baseCol struct {
	table string
	col   int
}

// readSetWalk collects, over the bound logical plan, the base columns each
// plan column derives from (its lineage) and the ones the statement
// references.
type readSetWalk struct {
	refs   map[string]map[int]bool
	tables []string // first-scan order
}

// readSet derives a read statement's read set from its bound logical plan:
// every scanned table, with every column that any predicate, join key,
// projection, grouping, aggregate, HAVING or sort key references.
func readSet(db *storage.Database, lp sql.LogicalPlan) []TableRead {
	w := &readSetWalk{refs: map[string]map[int]bool{}}
	w.walk(lp)
	out := make([]TableRead, len(w.tables))
	for i, name := range w.tables {
		cols := make([]int, 0, len(w.refs[name]))
		for c := range w.refs[name] {
			cols = append(cols, c)
		}
		slices.Sort(cols)
		out[i] = TableRead{Table: db.Table(name), Cols: cols}
	}
	return out
}

// walk returns the lineage of lp's output columns, recording every column
// lp references on the way.
func (w *readSetWalk) walk(lp sql.LogicalPlan) [][]baseCol {
	switch n := lp.(type) {
	case *sql.Scan:
		if w.refs[n.Table] == nil {
			w.refs[n.Table] = map[int]bool{}
			w.tables = append(w.tables, n.Table)
		}
		lin := make([][]baseCol, n.Out.Len())
		for i := range lin {
			lin[i] = []baseCol{{n.Table, i}}
		}
		w.ref(lin, n.Pred)
		return lin
	case *sql.Join:
		l, r := w.walk(n.Left), w.walk(n.Right)
		for _, c := range n.LeftKeys {
			w.refCol(l, c)
		}
		for _, c := range n.RightKeys {
			w.refCol(r, c)
		}
		lin := append(l[:len(l):len(l)], r...)
		w.ref(lin, n.Residual)
		return lin
	case *sql.Filter:
		lin := w.walk(n.In)
		w.ref(lin, n.Pred)
		return lin
	case *sql.Group:
		in := w.walk(n.In)
		lin := make([][]baseCol, 0, len(n.GroupCols)+len(n.Aggs))
		for _, c := range n.GroupCols {
			w.refCol(in, c)
			lin = append(lin, in[c])
		}
		for _, a := range n.Aggs {
			lin = append(lin, w.ref(in, a.Arg))
		}
		w.ref(lin, n.Having)
		return lin
	case *sql.Sort:
		lin := w.walk(n.In)
		for _, k := range n.Keys {
			w.ref(lin, k.Expr)
		}
		return lin
	case *sql.Project:
		in := w.walk(n.In)
		lin := make([][]baseCol, len(n.Exprs))
		for i, e := range n.Exprs {
			lin[i] = w.ref(in, e)
		}
		return lin
	default: // Limit, Distinct: columns pass through
		return w.walk(lp.Child())
	}
}

// ref records the columns e references and returns their lineage.
func (w *readSetWalk) ref(lin [][]baseCol, e expr.Expr) []baseCol {
	var src []baseCol
	for c := range expr.Columns(e) {
		w.refCol(lin, c)
		src = append(src, lin[c]...)
	}
	return src
}

func (w *readSetWalk) refCol(lin [][]baseCol, c int) {
	for _, b := range lin[c] {
		w.refs[b.table][b.col] = true
	}
}
