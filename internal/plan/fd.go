package plan

import (
	"slices"

	"shareddb/internal/expr"
	"shareddb/internal/sql"
	"shareddb/internal/storage"
	"shareddb/internal/types"
)

// The functional-dependency rules. A unique index over columns of one table
// instance (one scan of a statement) determines every other column of that
// instance: at one snapshot a key value names at most one row. That holds for
// a NULL key too, since a unique index admits one NULL key as it admits one of
// any value (storage.checkUnique compares keys with Value.Equal). Joins only
// repeat an instance's rows, so the dependency survives them.
//
// Two rules use it. The FD key (carried): a group column the other group
// columns determine is carried by the group-by — copied from each group's
// first row — instead of hashed. The FD lift (liftLookup): a group-by over a
// unique-index join whose inner columns are only group columns groups the
// outer side and joins after.

// noFD turns both rules off (tests only): the plan then compiles as if no
// column determined another.
var noFD bool

// colSource is the base-table column behind one output column of a logical
// subtree: its scan (one table instance) and column.
type colSource struct {
	scan *sql.Scan
	col  int
}

// sources maps every output column of lp to its scan and column through
// filters and joins. It returns nil when lp holds anything else: a group-by's
// output is no table's column.
func sources(lp sql.LogicalPlan) []colSource {
	switch n := lp.(type) {
	case *sql.Scan:
		out := make([]colSource, n.Out.Len())
		for i := range out {
			out[i] = colSource{n, i}
		}
		return out
	case *sql.Filter:
		return sources(n.In)
	case *sql.Join:
		l, r := sources(n.Left), sources(n.Right)
		if l == nil || r == nil {
			return nil
		}
		return append(l, r...)
	}
	return nil
}

// uniqueKeyAmong returns the first unique index of scan's table whose every
// column is among keys, or nil.
func (p *GlobalPlan) uniqueKeyAmong(scan *sql.Scan, keys map[colSource]bool) *storage.Index {
	t := p.db.Table(scan.Table)
	if t == nil {
		return nil
	}
	for _, ix := range t.Indexes() {
		if ix.Unique && !slices.ContainsFunc(ix.Cols, func(c int) bool { return !keys[colSource{scan, c}] }) {
			return ix
		}
	}
	return nil
}

// keySet is the set of sources behind cols.
func keySet(src []colSource, cols []int) map[colSource]bool {
	keys := make(map[colSource]bool, len(cols))
	for _, c := range cols {
		keys[src[c]] = true
	}
	return keys
}

// carried is the FD key: for the group columns cols of a group-by over lp, it
// reports which ones the others determine — a column of a table instance with
// a unique index over group columns, other than that index's own. The first
// such index of each instance decides, so no two columns determine each other
// and every group keeps at least one hashed column. nil: none is carried.
func (p *GlobalPlan) carried(lp sql.LogicalPlan, cols []int) []bool {
	src := sources(lp)
	if noFD || src == nil {
		return nil
	}
	keys := keySet(src, cols)
	keyOf := map[*sql.Scan]*storage.Index{}
	var out []bool
	for i, c := range cols {
		s := src[c]
		ix, seen := keyOf[s.scan]
		if !seen {
			ix = p.uniqueKeyAmong(s.scan, keys)
			keyOf[s.scan] = ix
		}
		if ix != nil && !slices.Contains(ix.Cols, s.col) {
			if out == nil {
				out = make([]bool, len(cols))
			}
			out[i] = true
		}
	}
	return out
}

// liftLookup is the FD lift. A group-by directly over a join into a unique
// index over exactly the join keys (uniqueInner) whose inner columns are
// group columns only (no aggregate or HAVING reads one), and whose outer join
// keys the remaining group columns determine, becomes the group-by of the
// join's outer side, the join keys added as group columns where missing,
// joined afterwards. Each outer row joins at most one inner row and all rows
// of one group share their join key, so the join keeps or drops whole groups
// and changes no aggregate; the group-by emits in first-arrival order, so the
// groups that join keep their order. The join then looks up one inner row
// per group — past a Top-N's cut, only the rows it keeps (deferredLookup).
//
// lp is what compileSelect leaves below the sort srt (nil: none) and the
// projection exprs; liftLookup returns the three rewritten, the sort keys
// and projection remapped onto the lifted join's columns, or unchanged when
// lp does not match.
func (p *GlobalPlan) liftLookup(lp sql.LogicalPlan, srt *sql.Sort, exprs []expr.Expr) (sql.LogicalPlan, *sql.Sort, []expr.Expr) {
	lifted, remap := p.lift(lp)
	if lifted == nil {
		return lp, srt, exprs
	}
	to := func(c int) int { return remap[c] }
	if srt != nil {
		keys := make([]sql.SortKey, len(srt.Keys))
		for i, k := range srt.Keys {
			keys[i] = sql.SortKey{Expr: expr.MapColumns(k.Expr, to), Desc: k.Desc}
		}
		srt = &sql.Sort{In: lifted, Keys: keys}
	}
	mapped := make([]expr.Expr, len(exprs))
	for i, e := range exprs {
		mapped[i] = expr.MapColumns(e, to)
	}
	return lifted, srt, mapped
}

// lift returns liftLookup's rewritten subtree and, for each output column
// of the group-by, the column of the join that replaces it; nil when lp
// does not match.
func (p *GlobalPlan) lift(lp sql.LogicalPlan) (sql.LogicalPlan, []int) {
	g, ok := lp.(*sql.Group)
	if noFD || !ok {
		return nil, nil
	}
	j, ok := g.In.(*sql.Join)
	if !ok {
		return nil, nil
	}
	rscan, ix := p.uniqueInner(j)
	if ix == nil {
		return nil, nil
	}
	outer := j.Left.Schema().Len()
	readsInner := func(e expr.Expr) bool {
		for c := range expr.Columns(e) {
			if c >= outer {
				return true
			}
		}
		return false
	}
	for _, a := range g.Aggs {
		if readsInner(a.Arg) {
			return nil, nil
		}
	}
	src := sources(j.Left)
	if src == nil {
		return nil, nil
	}
	var cols []int // the outer group columns, then the missing join keys
	for _, c := range g.GroupCols {
		if c < outer {
			cols = append(cols, c)
		}
	}
	keys := keySet(src, cols)
	for _, k := range j.LeftKeys {
		if slices.Contains(cols, k) {
			continue
		}
		if p.uniqueKeyAmong(src[k].scan, keys) == nil {
			return nil, nil
		}
		cols = append(cols, k)
	}

	// Output column maps: the old group-by's columns onto the join's.
	nAggs := len(g.Aggs)
	width := len(cols) + nAggs
	remap := make([]int, len(g.GroupCols)+nAggs)
	for i, c := range g.GroupCols {
		if c < outer {
			remap[i] = slices.Index(cols, c)
		} else {
			remap[i] = width + c - outer
		}
	}
	for i := 0; i < nAggs; i++ {
		remap[len(g.GroupCols)+i] = len(cols) + i
	}
	for c := range expr.Columns(g.Having) {
		if remap[c] >= width {
			return nil, nil
		}
	}

	in := j.Left.Schema().Cols
	outCols := make([]types.Column, 0, width)
	for _, c := range cols {
		outCols = append(outCols, in[c])
	}
	outCols = append(outCols, g.Out.Cols[len(g.GroupCols):]...)
	lg := &sql.Group{In: j.Left, GroupCols: cols, Aggs: g.Aggs, Out: types.NewSchema(outCols...),
		Having: expr.MapColumns(g.Having, func(c int) int { return remap[c] })}
	leftKeys := make([]int, len(j.LeftKeys))
	for i, k := range j.LeftKeys {
		leftKeys[i] = slices.Index(cols, k)
	}
	return &sql.Join{Left: lg, Right: rscan, LeftKeys: leftKeys, RightKeys: j.RightKeys, Out: lg.Out.Concat(rscan.Out)}, remap
}
