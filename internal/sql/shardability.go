package sql

// Statement shardability classification for the hash-partitioned engine
// (internal/shard): tables are either *partitioned* — each shard owns the
// rows whose partition key (by default the primary key) hashes to it — or
// *replicated* — every shard holds a full copy (dimension tables, tables
// without a primary key). PlanShards decides, per statement and at prepare
// time,
//
//   - where the statement's work lives: one owning shard (writes and reads
//     pinning a full partition key), any single shard (reads touching only
//     replicated tables), or every shard (broadcast), and
//   - how per-shard results recombine into the client result: concatenation
//     in shard order, a k-way merge preserving ORDER BY, or partial-
//     aggregate recombination for GROUP BY — including a rewrite of the
//     per-shard statement when the original's results are not mergeable
//     (sort keys outside the projection, AVG, DISTINCT aggregates).
//
// Joins are only shardable when every pair of matching rows is guaranteed
// co-located: each join edge must touch at most one partitioned table
// (replicated tables join anywhere), or pair the partition keys of both
// partitioned tables (a co-partitioned join). Non-co-located joins are
// rejected at prepare time with a placement hint — the same contract as
// distributed SQL engines built on hash partitioning plus reference
// tables.
//
// The recombination contracts are deterministic merges over partitioned
// state, with AVG shipped as sum+count pairs and DISTINCT
// aggregates shipped as per-shard-deduplicated value sets (here: extra
// GROUP BY columns), never as unmergeable finals.

import (
	"fmt"

	"shareddb/internal/expr"
	"shareddb/internal/types"
)

// ShardCatalog extends Catalog with the placement metadata the router
// partitions on.
type ShardCatalog interface {
	Catalog
	// TablePlacement reports how the table is distributed: the schema
	// column indices of its partition key, or replicated=true for tables
	// fully copied to every shard. ok=false for unknown tables.
	TablePlacement(table string) (partCols []int, replicated bool, ok bool)
}

// RouteKind says where a statement executes.
type RouteKind uint8

// Route kinds.
const (
	// RouteBroadcast fans the statement out to every shard.
	RouteBroadcast RouteKind = iota
	// RoutePoint sends the statement to the one shard owning the
	// partition key pinned by the statement (INSERT values, or a full
	// partition-key equality predicate).
	RoutePoint
	// RouteAny lets any single shard answer (reads over replicated tables
	// only) — the router load-balances across shards.
	RouteAny
)

// MergeKind enumerates how per-shard read results recombine.
type MergeKind uint8

// Merge kinds.
const (
	// MergeConcat concatenates per-shard results in shard order.
	MergeConcat MergeKind = iota
	// MergeOrdered k-way merges per-shard results on the statement's sort
	// keys (ties keep shard order) and re-cuts LIMIT.
	MergeOrdered
	// MergeGrouped recombines per-shard partial aggregates by group key,
	// then applies HAVING, ORDER BY, LIMIT, projection and DISTINCT.
	MergeGrouped
)

// AggMerge describes how one output aggregate recombines from the partial
// statement's output columns. Positions index the per-shard result row; -1
// marks unused components.
type AggMerge struct {
	Func     AggFunc
	Distinct bool
	// ArgPos (DISTINCT aggregates): the partial-output column carrying the
	// aggregate's argument values — the partial statement groups by the
	// argument, so each shard ships its distinct (group, value) pairs and
	// the router re-deduplicates across shards.
	ArgPos int
	// Sum/Count/Min/Max positions of the partial aggregates. AVG uses
	// SumPos+CountPos (sum of sums over sum of counts); COUNT uses
	// CountPos; SUM/MIN/MAX their own.
	SumPos, CountPos, MinPos, MaxPos int
}

// MergeSpec is the per-statement recipe, compiled at prepare time, for
// recombining per-shard results into the client result.
type MergeSpec struct {
	Kind MergeKind

	// Limit re-cuts the merged stream (-1 = none). Per-shard statements
	// keep their own LIMIT where a shard's top-N is a superset of its
	// contribution to the global top-N.
	Limit int
	// Distinct dedups merged rows on the projected columns. The per-shard
	// rewrite strips SELECT DISTINCT whenever rows must merge before
	// deduplication (ordered and grouped merges).
	Distinct bool

	// MergeOrdered: compare merged rows on SortCols/SortDesc (positions in
	// the per-shard output); Strip trailing columns were appended by the
	// rewrite to carry sort keys and are cut after the merge.
	SortCols []int
	SortDesc []bool
	Strip    int

	// MergeGrouped: the first GroupCols columns of a per-shard row are the
	// statement's group key; Aggs recombine the rest. The recombined row
	// layout is [group cols ++ aggregate results] — exactly the grouped
	// pipeline's output schema — over which Having, SortKeys and Project
	// are bound. Scalar statements (no GROUP BY) produce exactly one row,
	// with SQL's empty-input defaults when no shard contributes.
	GroupCols int
	Aggs      []AggMerge
	Scalar    bool
	Having    expr.Expr
	SortKeys  []SortKey
	Project   []expr.Expr
}

// ShardStatement is the shardability classification of one statement.
type ShardStatement struct {
	Route RouteKind
	// KeyExprs (RoutePoint): the partition-key value expressions in
	// partition-column order; evaluated with the activation's parameters
	// they identify the owning shard.
	KeyExprs []expr.Expr

	// Reads: Exec is the statement every shard prepares (the original, or
	// a partial rewrite) and Merge how its results recombine (nil = pass
	// the answering shard's result through unchanged). OutSchema is the
	// client-visible result schema.
	Exec      *SelectStmt
	Merge     *MergeSpec
	OutSchema *types.Schema

	// Writes: the bound write plan. WriteReplicated marks writes to a
	// replicated table — they broadcast and every shard applies the same
	// mutation (the router reports one shard's RowsAffected instead of
	// the sum). UpdatesKey flags an UPDATE assigning a partition-key
	// column — rows cannot migrate between shards, so the router rejects
	// these on multi-shard deployments.
	Write           *WritePlan
	WriteReplicated bool
	UpdatesKey      bool
}

// PlanShards classifies a parsed statement for execution over hash-
// partitioned shards.
func PlanShards(stmt Statement, cat ShardCatalog) (*ShardStatement, error) {
	switch s := stmt.(type) {
	case *SelectStmt:
		return planShardSelect(s, cat)
	case *InsertStmt:
		wp, err := planInsert(s, cat)
		if err != nil {
			return nil, err
		}
		cols, replicated, ok := cat.TablePlacement(s.Table)
		if !ok {
			return nil, fmt.Errorf("sql: unknown table %q", s.Table)
		}
		out := &ShardStatement{Write: wp}
		if replicated || len(cols) == 0 {
			out.Route = RouteBroadcast
			out.WriteReplicated = true
			return out, nil
		}
		out.Route = RoutePoint
		for _, c := range cols {
			out.KeyExprs = append(out.KeyExprs, wp.Values[c])
		}
		return out, nil
	case *UpdateStmt:
		wp, err := planUpdate(s, cat)
		if err != nil {
			return nil, err
		}
		out, cols, err := classifyPredWrite(wp, cat)
		if err != nil {
			return nil, err
		}
		for _, sc := range wp.Set {
			for _, c := range cols {
				if sc.Col == c {
					out.UpdatesKey = true
				}
			}
		}
		return out, nil
	case *DeleteStmt:
		wp, err := planDelete(s, cat)
		if err != nil {
			return nil, err
		}
		out, _, err := classifyPredWrite(wp, cat)
		return out, err
	default:
		return nil, fmt.Errorf("sql: statement %T cannot be classified for sharding", stmt)
	}
}

// classifyPredWrite routes an UPDATE/DELETE: replicated tables broadcast
// (every copy applies the mutation); partitioned tables go to the owning
// shard when the predicate pins the full partition key by equality, else
// broadcast (partitions are disjoint, so the union of per-shard effects
// equals the unsharded write).
func classifyPredWrite(wp *WritePlan, cat ShardCatalog) (*ShardStatement, []int, error) {
	cols, replicated, ok := cat.TablePlacement(wp.Table)
	if !ok {
		return nil, nil, fmt.Errorf("sql: unknown table %q", wp.Table)
	}
	out := &ShardStatement{Route: RouteBroadcast, Write: wp}
	if replicated || len(cols) == 0 {
		out.WriteReplicated = true
		return out, nil, nil
	}
	if keys := keyEqualityExprs(wp.Pred, cols); keys != nil {
		out.Route = RoutePoint
		out.KeyExprs = keys
	}
	return out, cols, nil
}

// keyEqualityExprs extracts the partition key's value expressions from the
// top-level equality conjuncts of pred, or nil when the predicate does not
// pin every key column. Matching mirrors the engine's index selection: the
// first `col = operand` conjunct per column wins, operands are constants or
// parameters.
func keyEqualityExprs(pred expr.Expr, keyCols []int) []expr.Expr {
	eq := map[int]expr.Expr{}
	for _, c := range expr.Conjuncts(pred) {
		col, operand, ok := eqOperand(c)
		if !ok {
			continue
		}
		if _, dup := eq[col]; !dup {
			eq[col] = operand
		}
	}
	keys := make([]expr.Expr, len(keyCols))
	for i, c := range keyCols {
		e, ok := eq[c]
		if !ok {
			return nil
		}
		keys[i] = e
	}
	return keys
}

// eqOperand recognizes col = operand where operand is a constant or a
// statement parameter.
func eqOperand(e expr.Expr) (col int, operand expr.Expr, ok bool) {
	c, isCmp := e.(*expr.Cmp)
	if !isCmp || c.Op != expr.EQ {
		return 0, nil, false
	}
	if cr, o := c.L.(*expr.ColRef); o && isRoutingOperand(c.R) {
		return cr.Idx, c.R, true
	}
	if cr, o := c.R.(*expr.ColRef); o && isRoutingOperand(c.L) {
		return cr.Idx, c.L, true
	}
	return 0, nil, false
}

func isRoutingOperand(e expr.Expr) bool {
	switch e.(type) {
	case *expr.Const, *expr.Param:
		return true
	}
	return false
}

// fromPlacement is the placement of one FROM entry.
type fromPlacement struct {
	name       string
	partCols   []int // local schema indices; nil when replicated
	replicated bool
	offset     int // first column in the combined (join output) schema
	width      int
}

// planShardSelect classifies a SELECT. The original statement is bound once
// (against any shard's catalog — schemas are identical) to recover the
// peeled logical shape: Distinct → Project → Limit → Sort → [Group] → rest.
func planShardSelect(s *SelectStmt, cat ShardCatalog) (*ShardStatement, error) {
	lp, err := PlanSelect(s, cat)
	if err != nil {
		return nil, err
	}
	cur := lp
	distinct := false
	if d, ok := cur.(*Distinct); ok {
		distinct = true
		cur = d.In
	}
	proj, ok := cur.(*Project)
	if !ok {
		return nil, fmt.Errorf("sql: expected projection at plan root, got %T", cur)
	}
	cur = proj.In
	limit := -1
	if l, ok := cur.(*Limit); ok {
		limit = l.N
		cur = l.In
	}
	var srt *Sort
	if x, ok := cur.(*Sort); ok {
		srt = x
		cur = x.In
	}
	var grp *Group
	if x, ok := cur.(*Group); ok {
		grp = x
		cur = x.In
	}

	// Placement of every FROM entry, with its offset in the combined join
	// output schema (FROM order, left-deep — the same layout PlanSelect
	// binds against).
	tables := make([]fromPlacement, len(s.From))
	offset := 0
	partitioned := 0
	for i, ref := range s.From {
		schema, ok := cat.TableSchema(ref.Table)
		if !ok {
			return nil, fmt.Errorf("sql: unknown table %q", ref.Table)
		}
		cols, replicated, ok := cat.TablePlacement(ref.Table)
		if !ok {
			return nil, fmt.Errorf("sql: unknown table %q", ref.Table)
		}
		tables[i] = fromPlacement{name: ref.Table, partCols: cols,
			replicated: replicated || len(cols) == 0, offset: offset, width: schema.Len()}
		if !tables[i].replicated {
			partitioned++
		}
		offset += schema.Len()
	}

	out := &ShardStatement{OutSchema: proj.Out}

	// Reads over replicated tables only: any single shard holds all the
	// data — the router load-balances and passes the result through.
	if partitioned == 0 {
		out.Route = RouteAny
		out.Exec = s
		return out, nil
	}

	// Co-location: every pair of partitioned FROM entries must be linked
	// (transitively) by equality between their partition keys, so matching
	// rows share a shard.
	if partitioned >= 2 {
		if err := checkCoLocation(cur, tables); err != nil {
			return nil, err
		}
	}

	// Point route: exactly one partitioned FROM entry whose partition key
	// is fully pinned by equality reads rows that can only live on the
	// owning shard; replicated tables are present there too, so the whole
	// statement (joins, grouping, ordering, LIMIT included) runs unchanged
	// on that shard. A scalar aggregate over the other shards' empty
	// partitions would only contribute neutral elements.
	if partitioned == 1 {
		var pt *fromPlacement
		for i := range tables {
			if !tables[i].replicated {
				pt = &tables[i]
			}
		}
		if scan := scanAt(cur, pt.offset, tables); scan != nil {
			if keys := keyEqualityExprs(scan.Pred, pt.partCols); keys != nil {
				out.Route = RoutePoint
				out.KeyExprs = keys
				out.Exec = s
				return out, nil
			}
		}
	}

	out.Route = RouteBroadcast
	switch {
	case grp != nil:
		return planGroupedShard(s, out, grp, srt, proj, limit, distinct)
	case srt != nil:
		return planOrderedShard(s, out, srt, proj, limit, distinct)
	default:
		// Concatenation in shard order. The per-shard statement is the
		// original: per-shard DISTINCT only removes rows the router's
		// cross-shard dedup would remove anyway, and a shard's first
		// LIMIT-n distinct rows are a superset of its contribution to the
		// global first n.
		out.Exec = s
		out.Merge = &MergeSpec{Kind: MergeConcat, Limit: limit, Distinct: distinct}
		return out, nil
	}
}

// collectScans returns the base-table scans of a bound plan fragment in
// left-to-right order — FROM order, by PlanSelect's left-deep
// construction.
func collectScans(lp LogicalPlan, out []*Scan) []*Scan {
	switch n := lp.(type) {
	case nil:
		return out
	case *Scan:
		return append(out, n)
	case *Join:
		out = collectScans(n.Left, out)
		return collectScans(n.Right, out)
	case *Filter:
		return collectScans(n.In, out)
	default:
		return out
	}
}

// scanAt returns the scan of the FROM entry at the given combined-schema
// offset.
func scanAt(lp LogicalPlan, offset int, tables []fromPlacement) *Scan {
	scans := collectScans(lp, nil)
	if len(scans) != len(tables) {
		return nil
	}
	for i := range tables {
		if tables[i].offset == offset {
			return scans[i]
		}
	}
	return nil
}

// checkCoLocation verifies that the partitioned FROM entries form one
// component under partition-key-equality edges: an equality (join key or
// residual conjunct) between the single-column partition keys of two
// partitioned entries links them; all partitioned entries must end up
// linked, else matching rows may live on different shards.
func checkCoLocation(lp LogicalPlan, tables []fromPlacement) error {
	entryOf := func(global int) int {
		for i := len(tables) - 1; i >= 0; i-- {
			if global >= tables[i].offset {
				return i
			}
		}
		return 0
	}
	// Union-find over FROM entries.
	parent := make([]int, len(tables))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }

	// A global equality pair (a, b) links its entries when each side is
	// its (partitioned) entry's single partition-key column.
	link := func(a, b int) {
		ta, tb := entryOf(a), entryOf(b)
		if ta == tb {
			return
		}
		pa, pb := &tables[ta], &tables[tb]
		if pa.replicated || pb.replicated {
			return
		}
		if len(pa.partCols) != 1 || len(pb.partCols) != 1 {
			return
		}
		if a-pa.offset == pa.partCols[0] && b-pb.offset == pb.partCols[0] {
			union(ta, tb)
		}
	}
	var walk func(LogicalPlan)
	walk = func(lp LogicalPlan) {
		switch n := lp.(type) {
		case nil:
		case *Join:
			scans := collectScans(n.Right, nil)
			// Right side of a PlanSelect join is a single base scan; find
			// its entry by matching the schema width boundary: left width
			// is the offset of the right entry.
			if len(scans) == 1 {
				rightOffset := -1
				leftWidth := n.Left.Schema().Len()
				for i := range tables {
					if tables[i].offset == leftWidth {
						rightOffset = tables[i].offset
						break
					}
				}
				if rightOffset >= 0 {
					for i := range n.LeftKeys {
						link(n.LeftKeys[i], rightOffset+n.RightKeys[i])
					}
				}
			}
			walk(n.Left)
			walk(n.Right)
		case *Filter:
			for _, c := range expr.Conjuncts(n.Pred) {
				if cmp, ok := c.(*expr.Cmp); ok && cmp.Op == expr.EQ {
					l, lok := cmp.L.(*expr.ColRef)
					r, rok := cmp.R.(*expr.ColRef)
					if lok && rok {
						link(l.Idx, r.Idx)
					}
				}
			}
			walk(n.In)
		}
	}
	walk(lp)

	root := -1
	for i := range tables {
		if tables[i].replicated {
			continue
		}
		if root < 0 {
			root = find(i)
			continue
		}
		if find(i) != root {
			return fmt.Errorf("sql: tables %q and %q are partitioned but not joined on their partition keys; "+
				"matching rows may live on different shards — replicate one of them or partition on the join key",
				tables[root].name, tables[i].name)
		}
	}
	return nil
}

// planOrderedShard builds the rewrite for ORDER BY without grouping: the
// per-shard statement appends the sort-key expressions to the select list
// (so the router can compare rows the projection dropped the keys from) and
// strips SELECT DISTINCT (rows must merge before deduplication — a shard
// deduplicating locally could under-fill the global LIMIT cut). Per-shard
// ORDER BY and LIMIT stay: each shard ships its own top-N, sorted.
func planOrderedShard(s *SelectStmt, out *ShardStatement, srt *Sort, proj *Project, limit int, distinct bool) (*ShardStatement, error) {
	exec := &SelectStmt{
		Items:   append([]SelectItem{}, s.Items...),
		From:    s.From,
		Where:   s.Where,
		OrderBy: s.OrderBy,
		Limit:   s.Limit,
	}
	spec := &MergeSpec{
		Kind:     MergeOrdered,
		Limit:    limit,
		Distinct: distinct,
		Strip:    len(srt.Keys),
	}
	base := proj.Out.Len()
	for i, oi := range s.OrderBy {
		exec.Items = append(exec.Items, SelectItem{Expr: resolveAlias(oi.Expr, s.Items)})
		spec.SortCols = append(spec.SortCols, base+i)
		spec.SortDesc = append(spec.SortDesc, oi.Desc)
	}
	out.Exec = exec
	out.Merge = spec
	return out, nil
}

// planGroupedShard builds the partial-aggregate rewrite: every shard runs
//
//	SELECT <group cols>, <distinct-agg args>, <partial aggregates>
//	FROM ... WHERE ...
//	GROUP BY <group cols>, <distinct-agg args>
//
// with no HAVING, ORDER BY, LIMIT or DISTINCT — those only apply to the
// recombined groups at the router. AVG ships as a SUM+COUNT pair; DISTINCT
// aggregates extend the group key with the aggregate's argument, so each
// shard ships its distinct (group, value) pairs and the router aggregates
// over the cross-shard-deduplicated value sets. This is also what makes
// HAVING over DISTINCT aggregates work across shards: the HAVING predicate
// evaluates against the recombined aggregate row, never against per-shard
// partials.
func planGroupedShard(s *SelectStmt, out *ShardStatement, grp *Group, srt *Sort, proj *Project, limit int, distinct bool) (*ShardStatement, error) {
	fcs, err := harvestAggCalls(s)
	if err != nil {
		return nil, err
	}
	if len(fcs) != len(grp.Aggs) {
		return nil, fmt.Errorf("sql: aggregate harvest mismatch (%d calls, %d specs)", len(fcs), len(grp.Aggs))
	}

	exec := &SelectStmt{From: s.From, Where: s.Where, Limit: -1}
	for _, gn := range s.GroupBy {
		exec.GroupBy = append(exec.GroupBy, gn)
		exec.Items = append(exec.Items, SelectItem{Expr: gn})
	}

	spec := &MergeSpec{
		Kind:      MergeGrouped,
		Limit:     limit,
		Distinct:  distinct,
		GroupCols: len(grp.GroupCols),
		Scalar:    len(grp.GroupCols) == 0,
		Having:    grp.Having,
		Project:   proj.Exprs,
	}
	if srt != nil {
		spec.SortKeys = srt.Keys
	}

	// Distinct-aggregate arguments become extra group columns. Arguments
	// that already are group columns reuse them; others append one column
	// per distinct bound column.
	argPos := map[int]int{} // bound column index → partial output position
	for i, as := range grp.Aggs {
		if !as.Distinct {
			continue
		}
		cr, isCol := as.Arg.(*expr.ColRef)
		if !isCol {
			return nil, fmt.Errorf("sql: %s(DISTINCT <expression>) cannot be merged across shards; use a plain column argument", as.Func)
		}
		if _, seen := argPos[cr.Idx]; seen {
			continue
		}
		pos := -1
		for j, gc := range grp.GroupCols {
			if gc == cr.Idx {
				pos = j
				break
			}
		}
		if pos < 0 {
			pos = len(exec.Items)
			exec.GroupBy = append(exec.GroupBy, fcs[i].Arg)
			exec.Items = append(exec.Items, SelectItem{Expr: fcs[i].Arg})
		}
		argPos[cr.Idx] = pos
	}

	// Partial aggregates, deduplicated by signature across the statement's
	// aggregates (AVG(x)+SUM(x) share one partial SUM(x)).
	partialPos := map[string]int{}
	addPartial := func(name string, star bool, arg Node) int {
		fc := &FuncCall{Name: name, Star: star, Arg: arg}
		sig := aggSignature(fc)
		if pos, ok := partialPos[sig]; ok {
			return pos
		}
		pos := len(exec.Items)
		partialPos[sig] = pos
		exec.Items = append(exec.Items, SelectItem{Expr: fc})
		return pos
	}
	for i, as := range grp.Aggs {
		am := AggMerge{Func: as.Func, Distinct: as.Distinct,
			ArgPos: -1, SumPos: -1, CountPos: -1, MinPos: -1, MaxPos: -1}
		if as.Distinct {
			cr := as.Arg.(*expr.ColRef)
			am.ArgPos = argPos[cr.Idx]
		} else {
			switch as.Func {
			case AggCount:
				am.CountPos = addPartial("COUNT", fcs[i].Star, fcs[i].Arg)
			case AggSum:
				am.SumPos = addPartial("SUM", false, fcs[i].Arg)
			case AggMin:
				am.MinPos = addPartial("MIN", false, fcs[i].Arg)
			case AggMax:
				am.MaxPos = addPartial("MAX", false, fcs[i].Arg)
			case AggAvg:
				am.SumPos = addPartial("SUM", false, fcs[i].Arg)
				am.CountPos = addPartial("COUNT", false, fcs[i].Arg)
			default:
				return nil, fmt.Errorf("sql: unknown aggregate function %d", as.Func)
			}
		}
		spec.Aggs = append(spec.Aggs, am)
	}

	out.Exec = exec
	out.Merge = spec
	return out, nil
}

// harvestAggCalls walks the select list, HAVING and ORDER BY in the same
// order as buildGroup, returning the deduplicated aggregate calls aligned
// with Group.Aggs.
func harvestAggCalls(s *SelectStmt) ([]*FuncCall, error) {
	var out []*FuncCall
	seen := map[string]bool{}
	var harvest func(Node) error
	harvest = func(n Node) error {
		switch x := n.(type) {
		case nil:
			return nil
		case *FuncCall:
			sig := aggSignature(x)
			if !seen[sig] {
				seen[sig] = true
				out = append(out, x)
			}
			return nil
		case *BinOp:
			if err := harvest(x.L); err != nil {
				return err
			}
			return harvest(x.R)
		case *UnOp:
			return harvest(x.Kid)
		default:
			return nil
		}
	}
	for _, it := range s.Items {
		if err := harvest(it.Expr); err != nil {
			return nil, err
		}
	}
	if err := harvest(s.Having); err != nil {
		return nil, err
	}
	for _, oi := range s.OrderBy {
		if err := harvest(resolveAlias(oi.Expr, s.Items)); err != nil {
			return nil, err
		}
	}
	return out, nil
}
