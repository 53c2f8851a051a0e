package plan

import (
	"slices"

	"shareddb/internal/expr"
	"shareddb/internal/sql"
	"shareddb/internal/storage"
	"shareddb/internal/types"
)

// The rewrite layer. The physical choices of the shared plan's second step
// (paper §3.2, Figure 3) are named rules over each statement's logical plan.
// They run in this order, once per statement, before compile emits a node.
// Each rule matches its own precondition and records what it chose in the
// annotated plan, where a later rule may read it; compile only lays out
// nodes, edges and steps from those choices. A rule the plan disables (tests
// only) does not run, so the plan compiles as if its precondition never held.
var rules = []struct {
	name  string
	apply func(a *annotated)
}{
	{"index-join", indexJoin},
	{"fd-lift", fdLift},
	{"index-edge", indexEdge},
	{"index-probe", indexProbe},
	{"mirror-input", mirrorInput},
	{"deferred-lookup", deferredLookup},
	{"fd-key", fdKey},
	{"group-join", groupJoin},
}

// annotated is one statement's logical plan below its projection — lp,
// under an optional sort and limit — and the rules' choices, keyed by
// logical node.
type annotated struct {
	db      *storage.Database
	stmt    int // the statement's id, for sharing signatures
	lp      sql.LogicalPlan
	sort    *sql.Sort // nil: none
	limit   int       // -1: none
	project []expr.Expr

	ixJoins  map[*sql.Join]*lookup // index-join
	probes   map[*sql.Scan]probe   // index-probe and index-edge
	mirrored map[*sql.Scan]bool    // mirror-input
	deferred bool                  // deferred-lookup: the sort looks lp's inner up for the rows it keeps
	carry    map[*sql.Group][]bool // fd-key
	grouped  map[*sql.Group]bool   // group-join: the group-by folds into its input hash join
}

// lookup is index-join's choice for one join: seek index ix of the inner
// table with the outer key columns keys, in index order. inner is the inner
// side's layout: stored rows, full width. unique: ix is unique over exactly
// the keys, so each outer row joins at most one inner row.
type lookup struct {
	table  *storage.Table
	ix     *storage.Index
	inner  *streamInfo
	keys   []int
	unique bool
}

// probe is an index access path for a base-table scan: seek ix with key
// (constants or parameters, in index order), or read one edge of it, and
// keep the rows residual holds.
type probe struct {
	ix       *storage.Index
	edge     storage.EdgeKind
	key      []expr.Expr
	residual expr.Expr
}

// rewrite annotates lp, the plan below a statement's sort srt (nil: none),
// limit and projection, with every rule p has not disabled.
func (p *GlobalPlan) rewrite(stmt int, lp sql.LogicalPlan, srt *sql.Sort, limit int, project []expr.Expr) *annotated {
	a := &annotated{db: p.db, stmt: stmt, lp: lp, sort: srt, limit: limit, project: project,
		ixJoins: map[*sql.Join]*lookup{}, probes: map[*sql.Scan]probe{},
		mirrored: map[*sql.Scan]bool{}, carry: map[*sql.Group][]bool{}, grouped: map[*sql.Group]bool{}}
	for _, r := range rules {
		if !p.disabled[r.name] {
			r.apply(a)
		}
	}
	return a
}

// walk calls f on every node of lp.
func walk(lp sql.LogicalPlan, f func(sql.LogicalPlan)) {
	for ; lp != nil; lp = lp.Child() {
		f(lp)
		if j, ok := lp.(*sql.Join); ok {
			walk(j.Right, f)
		}
	}
}

// indexJoin is index-join, the paper's Figure 6 mix of NL⋈ and Hash⋈: an
// equi-join whose inner is a base table reached by key alone (a bare scan,
// no predicate), with an index whose leading columns are the inner join
// keys in any order, seeks that index per outer row, the key pairs permuted
// into index order. An inner with a per-query predicate keeps the shared
// hash join: the inner's shared scan evaluates that predicate once per row
// for all queries, where an index join would re-evaluate it per (row,
// query).
func indexJoin(a *annotated) {
	walk(a.lp, func(n sql.LogicalPlan) {
		j, ok := n.(*sql.Join)
		if !ok || len(j.RightKeys) == 0 {
			return
		}
		rscan, ok := j.Right.(*sql.Scan)
		if !ok || rscan.Pred != nil {
			return
		}
		table := a.db.Table(rscan.Table)
		for _, ix := range table.Indexes() {
			var keys []int
			for _, c := range ix.Cols[:min(len(ix.Cols), len(j.RightKeys))] {
				if k := slices.Index(j.RightKeys, c); k >= 0 {
					keys = append(keys, j.LeftKeys[k])
				}
			}
			if len(keys) == len(j.RightKeys) {
				a.ixJoins[j] = &lookup{table: table, ix: ix, keys: keys, unique: ix.Unique && len(ix.Cols) == len(keys),
					inner: &streamInfo{schema: rscan.Out, origins: tableOrigins(table)}}
				return
			}
		}
	})
}

// The functional-dependency rules. A unique index over columns of one table
// instance (one scan of a statement) determines every other column of that
// instance: at one snapshot a key value names at most one row. That holds for
// a NULL key too, since a unique index admits one NULL key as it admits one of
// any value (storage.checkUnique compares keys with Value.Equal). Joins only
// repeat an instance's rows, so the dependency survives them.

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
func (a *annotated) uniqueKeyAmong(scan *sql.Scan, keys map[colSource]bool) *storage.Index {
	for _, ix := range a.db.Table(scan.Table).Indexes() {
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

// fdLift is fd-lift. A group-by at the root directly over a unique index
// join (index-join) whose inner columns are group columns only (no
// aggregate or HAVING reads one), and whose outer join keys the remaining
// group columns determine, becomes the group-by of the join's outer side,
// the join keys added as group columns where missing, joined afterwards.
// Each outer row joins at most one inner row and all rows of one group share
// their join key, so the join keeps or drops whole groups and changes no
// aggregate; the group-by emits in first-arrival order, so the groups that
// join keep their order. The join then looks up one inner row per group —
// past a Top-N's cut, only the rows it keeps (deferred-lookup). The sort keys
// and projection are remapped onto the lifted join's columns.
func fdLift(a *annotated) {
	g, ok := a.lp.(*sql.Group)
	if !ok {
		return
	}
	j, ok := g.In.(*sql.Join)
	if !ok || a.ixJoins[j] == nil || !a.ixJoins[j].unique {
		return
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
	for _, ag := range g.Aggs {
		if readsInner(ag.Arg) {
			return
		}
	}
	src := sources(j.Left)
	if src == nil {
		return
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
		if a.uniqueKeyAmong(src[k].scan, keys) == nil {
			return
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
			return
		}
	}
	to := func(c int) int { return remap[c] }

	in := j.Left.Schema().Cols
	outCols := make([]types.Column, 0, width)
	for _, c := range cols {
		outCols = append(outCols, in[c])
	}
	outCols = append(outCols, g.Out.Cols[len(g.GroupCols):]...)
	lg := &sql.Group{In: j.Left, GroupCols: cols, Aggs: g.Aggs, Out: types.NewSchema(outCols...),
		Having: expr.MapColumns(g.Having, to)}
	onto := func(ks []int) []int {
		out := make([]int, len(ks))
		for i, k := range ks {
			out[i] = slices.Index(cols, k)
		}
		return out
	}
	rscan := j.Right.(*sql.Scan)
	lifted := &sql.Join{Left: lg, Right: rscan, LeftKeys: onto(j.LeftKeys), RightKeys: j.RightKeys, Out: lg.Out.Concat(rscan.Out)}
	lk := *a.ixJoins[j]
	lk.keys = onto(lk.keys)
	a.lp, a.ixJoins[lifted] = lifted, &lk
	if a.sort != nil {
		keys := make([]sql.SortKey, len(a.sort.Keys))
		for i, k := range a.sort.Keys {
			keys[i] = sql.SortKey{Expr: expr.MapColumns(k.Expr, to), Desc: k.Desc}
		}
		a.sort = &sql.Sort{In: lifted, Keys: keys}
	}
	project := make([]expr.Expr, len(a.project))
	for i, e := range a.project {
		project[i] = expr.MapColumns(e, to)
	}
	a.project = project
}

// indexEdge is index-edge: a scalar MIN(c) or MAX(c) — no GROUP BY, no other
// aggregate — over a base table whose predicate is empty or only pins, by
// equality, the index columns in front of c, reads its input from that edge
// of the index instead of a scan: one row, the extreme visible one
// (storage.Locked.IndexEdgeAt), feeding the same shared group node a scan
// would. The whole predicate stays the residual: an equality on NULL selects
// nothing, though the index holds NULL keys.
func indexEdge(a *annotated) {
	edges := map[sql.AggFunc]storage.EdgeKind{sql.AggMin: storage.EdgeMin, sql.AggMax: storage.EdgeMax}
	walk(a.lp, func(n sql.LogicalPlan) {
		g, ok := n.(*sql.Group)
		if !ok || len(g.GroupCols) != 0 || len(g.Aggs) != 1 || g.Aggs[0].Distinct {
			return
		}
		scan, isScan := g.In.(*sql.Scan)
		arg, isCol := g.Aggs[0].Arg.(*expr.ColRef)
		edge, isEdge := edges[g.Aggs[0].Func]
		if !isScan || !isCol || !isEdge {
			return
		}
		conjs := expr.Conjuncts(scan.Pred)
		pins := expr.PinsOf(scan.Pred)
		if len(pins) != len(conjs) {
			return // a conjunct pins nothing, or a column twice
		}
		pinned := len(pins)
		for _, ix := range a.db.Table(scan.Table).Indexes() {
			if len(ix.Cols) <= pinned || ix.Cols[pinned] != arg.Idx {
				continue
			}
			if key := pins.Operands(ix.Cols[:pinned]); key != nil {
				a.probes[scan] = probe{ix: ix, edge: edge, key: key, residual: scan.Pred}
				return
			}
		}
	})
}

// indexProbe is index-probe: a base-table scan no index edge answers, whose
// predicate pins an index prefix by equality, seeks the index with the
// longest such prefix (a unique one on ties) and keeps the other conjuncts
// as its residual. A range predicate deliberately does not probe: a
// per-query range probe re-traverses the index for every concurrent query,
// which defeats sharing, while the shared scan answers all range queries of
// a generation in one pass through its predicate interval index (§4.4) —
// bounded work regardless of concurrency. (The query-at-a-time baseline
// keeps range probes: optimal for one query.)
func indexProbe(a *annotated) {
	walk(a.lp, func(n sql.LogicalPlan) {
		scan, ok := n.(*sql.Scan)
		if _, done := a.probes[scan]; !ok || done {
			return
		}
		conjs := expr.Conjuncts(scan.Pred)
		pins := expr.PinsOf(scan.Pred)
		best, k := storage.PinnedIndex(a.db.Table(scan.Table).Indexes(), pins)
		if k == 0 {
			return
		}
		used := map[int]bool{}
		for _, col := range best.Cols[:k] {
			pin, _ := pins.Of(col)
			used[pin.At] = true
		}
		var residual []expr.Expr
		for i, c := range conjs {
			if !used[i] {
				residual = append(residual, c)
			}
		}
		a.probes[scan] = probe{ix: best, key: pins.Operands(best.Cols[:k]), residual: expr.AndOf(residual)}
	})
}

// mirrorInput is mirror-input: a hash join's outer or a group-by's input
// that is one direct shared scan of a base table (a bare scan no index
// probe answers) is read by its consumer from the table's column mirror:
// no scan node, step or edge, and the consumer's task carries the table and
// the bound scan predicate (operators.JoinSpec, GroupSpec). Every activation
// of the statement reaches the input that way, so nothing is decided per
// generation. A hash join reads its fused outer once its build completes.
func mirrorInput(a *annotated) {
	walk(a.lp, func(n sql.LogicalPlan) {
		var in sql.LogicalPlan
		switch x := n.(type) {
		case *sql.Join:
			if a.ixJoins[x] == nil {
				in = x.Left
			}
		case *sql.Group:
			in = x.In
		}
		if scan, ok := in.(*sql.Scan); ok {
			if _, probed := a.probes[scan]; !probed {
				a.mirrored[scan] = true
			}
		}
	})
}

// deferredLookup is deferred-lookup, the cut-before-join rule: a Top-N (a
// sort with LIMIT N > 0) directly over a unique index join (index-join)
// whose sort keys read only outer columns sorts the outer rows and looks the
// inner row up only for the rows its cut keeps (operators.SortOp). Each
// outer row joins at most one inner row, so the result is the
// join-then-sort result.
func deferredLookup(a *annotated) {
	j, ok := a.lp.(*sql.Join)
	if a.sort == nil || a.limit <= 0 || !ok || a.ixJoins[j] == nil || !a.ixJoins[j].unique {
		return
	}
	outer := j.Left.Schema().Len()
	for _, k := range a.sort.Keys {
		for col := range expr.Columns(k.Expr) {
			if col >= outer {
				return
			}
		}
	}
	a.deferred = true
}

// fdKey is fd-key: a group column the other group columns determine — a
// column of a table instance with a unique index over group columns, other
// than that index's own — is carried by the group-by, copied from each
// group's first row, instead of hashed. The first such index of each
// instance decides, so no two columns determine each other and every group
// keeps at least one hashed column.
func fdKey(a *annotated) {
	walk(a.lp, func(n sql.LogicalPlan) {
		g, ok := n.(*sql.Group)
		if !ok {
			return
		}
		src := sources(g.In)
		if src == nil {
			return
		}
		keys := keySet(src, g.GroupCols)
		keyOf := map[*sql.Scan]*storage.Index{}
		for i, c := range g.GroupCols {
			s := src[c]
			ix, seen := keyOf[s.scan]
			if !seen {
				ix = a.uniqueKeyAmong(s.scan, keys)
				keyOf[s.scan] = ix
			}
			if ix != nil && !slices.Contains(ix.Cols, s.col) {
				if a.carry[g] == nil {
					a.carry[g] = make([]bool, len(g.GroupCols))
				}
				a.carry[g][i] = true
			}
		}
	})
}

// groupJoin is group-join (Moerkotte & Neumann's groupjoin, VLDB 2011): a
// group-by directly over a shared hash join whose outer is read from the
// column mirror (mirror-input) aggregates inside the join when each build
// bucket is one group — its hashed group columns are exactly the inner key
// columns, it carries only inner columns (fd-key), and its aggregates read
// only outer columns — and the inner is one table instance with a unique
// index among its key columns, so an outer row matches at most one build
// row (operators.HashJoinOp.Group). The join then builds no joined tuple;
// HAVING reads the group-by's own output and needs nothing.
func groupJoin(a *annotated) {
	walk(a.lp, func(n sql.LogicalPlan) {
		g, ok := n.(*sql.Group)
		if !ok {
			return
		}
		j, ok := g.In.(*sql.Join)
		if !ok || len(j.RightKeys) == 0 || a.ixJoins[j] != nil {
			return
		}
		lscan, ok := j.Left.(*sql.Scan)
		if !ok || !a.mirrored[lscan] {
			return
		}
		rscan, ok := j.Right.(*sql.Scan)
		if !ok || a.uniqueKeyAmong(rscan, keySet(sources(rscan), j.RightKeys)) == nil {
			return
		}
		outer := j.Left.Schema().Len()
		hashed := map[int]bool{}
		for i, c := range g.GroupCols {
			if c < outer {
				return // an outer column: a bucket may hold several groups
			}
			if a.carry[g] == nil || !a.carry[g][i] {
				hashed[c-outer] = true
			}
		}
		if len(hashed) != len(j.RightKeys) || slices.ContainsFunc(j.RightKeys, func(k int) bool { return !hashed[k] }) {
			return
		}
		for _, ag := range g.Aggs {
			for c := range expr.Columns(ag.Arg) {
				if c >= outer {
					return
				}
			}
		}
		a.grouped[g] = true
	})
}
