package plan

import (
	"fmt"
	"slices"
	"strings"

	"shareddb/internal/btree"
	"shareddb/internal/expr"
	"shareddb/internal/operators"
	"shareddb/internal/sql"
	"shareddb/internal/storage"
	"shareddb/internal/types"
)

// dbCatalog adapts the storage catalog for the SQL binder.
type dbCatalog struct{ db *storage.Database }

func (c dbCatalog) TableSchema(name string) (*types.Schema, bool) {
	t := c.db.Table(name)
	if t == nil {
		return nil, false
	}
	return t.Schema(), true
}

// Prepare parses, binds and compiles a statement into the global plan,
// sharing operators with previously registered statements wherever the
// sharing signatures match. Prepare is idempotent by SQL text: a text
// prepared before returns the statement compiled for it then. Prepare may
// be called at any time between generations — this is also how ad-hoc
// queries join the plan (§3.2: plan operators act as materialized views for
// ad-hoc queries).
func (p *GlobalPlan) Prepare(sqlText string) (*Statement, error) {
	if s := p.Registered(sqlText); s != nil {
		return s, nil
	}
	stmtAST, err := sql.Parse(sqlText)
	if err != nil {
		return nil, err
	}
	return p.prepare(sqlText, stmtAST, true)
}

// Registered returns the statement Prepare compiled for sqlText, or nil. It
// never waits for a generation in flight.
func (p *GlobalPlan) Registered(sqlText string) *Statement {
	p.textMu.RLock()
	defer p.textMu.RUnlock()
	return p.byText[sqlText]
}

// PrepareParsed compiles an already-parsed statement into the global plan.
// The shard router prepares rewritten (partial) statements through this
// path, since those exist as ASTs rather than SQL text; they stay out of the
// text registry, so every call compiles a new statement. The AST is bound
// against this plan's catalog and must not be mutated afterwards.
func (p *GlobalPlan) PrepareParsed(sqlText string, stmtAST sql.Statement) (*Statement, error) {
	return p.prepare(sqlText, stmtAST, false)
}

func (p *GlobalPlan) prepare(sqlText string, stmtAST sql.Statement, register bool) (*Statement, error) {
	bound, err := sql.PlanStatement(stmtAST, dbCatalog{p.db})
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	// Two first prepares of one text both missed Registered: the later one
	// returns the statement the earlier one registered.
	if s := p.byText[sqlText]; register && s != nil {
		return s, nil
	}

	s := &Statement{ID: len(p.stmts), SQL: sqlText, NumParams: sql.NumParams(stmtAST), SinkLimit: -1}
	switch b := bound.(type) {
	case *sql.WritePlan:
		s.Write = b
	case sql.LogicalPlan:
		if err := p.compileSelect(s, b); err != nil {
			return nil, err
		}
	case *sql.DDLPlan:
		return nil, fmt.Errorf("plan: DDL must be executed, not prepared: %s", sqlText)
	default:
		return nil, fmt.Errorf("plan: unsupported statement %T", bound)
	}
	p.stmts = append(p.stmts, s)
	if register {
		p.textMu.Lock()
		p.byText[sqlText] = s
		p.textMu.Unlock()
	}
	return s, nil
}

// compiled is the result of compiling one logical subtree for one statement.
type compiled struct {
	node   *operators.Node
	stream *streamInfo
	steps  []stepBinding
	edges  []*operators.Edge

	// Scan provenance: set only by compileScan's shared-ClockScan branch
	// (and deliberately NOT propagated through filters, joins, groups or
	// sorts), so a non-empty scanTable means "this subtree is one clock scan
	// of scanTable under scanPred" — what a consumer that reads its input
	// from the column mirror (compileInput) requires.
	scanTable string
	scanPred  expr.Expr
}

// compileSelect peels the top of the logical plan (Distinct → Project →
// Limit → Sort), applies the FD lift (liftLookup) to what is left, remapping
// the sort keys and projection onto the lifted join, and compiles the rest
// bottom-up into shared nodes.
func (p *GlobalPlan) compileSelect(s *Statement, lp sql.LogicalPlan) error {
	if d, ok := lp.(*sql.Distinct); ok {
		s.Distinct = true
		lp = d.In
	}
	proj, ok := lp.(*sql.Project)
	if !ok {
		return fmt.Errorf("plan: expected projection at plan root, got %T", lp)
	}
	lp = proj.In
	limit := -1
	if l, ok := lp.(*sql.Limit); ok {
		limit = l.N
		lp = l.In
	}
	var sortLP *sql.Sort
	if srt, ok := lp.(*sql.Sort); ok {
		sortLP = srt
		lp = srt.In
	}
	lp, sortLP, projExprs := p.liftLookup(lp, sortLP, proj.Exprs)

	var c compiled
	var err error
	if j, dl := p.deferredLookup(sortLP, limit, lp); dl != nil {
		if c, err = p.compile(s, j.Left); err == nil {
			c, err = p.compileSort(s, c, sortLP, limit, dl)
		}
	} else if c, err = p.compile(s, lp); err == nil && sortLP != nil {
		c, err = p.compileSort(s, c, sortLP, limit, nil)
	}
	if err != nil {
		return err
	}
	if sortLP == nil {
		s.SinkLimit = limit
	}

	// reject self-joins: one query id cannot play two roles at one node
	seen := map[*operators.Node]bool{}
	for _, st := range c.steps {
		if seen[st.node] {
			return fmt.Errorf("plan: statement visits node %q twice (self-joins are not supported)", st.node.Name)
		}
		seen[st.node] = true
	}

	te := p.edge(c.node, p.sink)
	s.steps = c.steps
	s.pathEdges = dedupEdges(append(c.edges, te))
	s.terminalStream = c.stream.id
	s.Project = make([]expr.Expr, len(projExprs))
	for i, pe := range projExprs {
		s.Project[i] = c.stream.physicalExpr(pe)
	}
	s.OutSchema = proj.Out
	return nil
}

func dedupEdges(es []*operators.Edge) []*operators.Edge {
	seen := map[*operators.Edge]bool{}
	out := es[:0]
	for _, e := range es {
		if !seen[e] {
			seen[e] = true
			out = append(out, e)
		}
	}
	return out
}

// compile dispatches on the logical node type.
func (p *GlobalPlan) compile(s *Statement, lp sql.LogicalPlan) (compiled, error) {
	switch n := lp.(type) {
	case *sql.Scan:
		c, err := p.compileScan(n)
		if err != nil || c.node != nil {
			return c, err
		}
		return p.withScanNode(c), nil
	case *sql.Filter:
		return p.compileFilter(s, n)
	case *sql.Join:
		return p.compileJoin(s, n)
	case *sql.Group:
		return p.compileGroup(s, n)
	default:
		return compiled{}, fmt.Errorf("plan: unexpected logical node %T below the plan root", lp)
	}
}

// matchEqOperand recognizes col = operand where operand is a constant or a
// statement parameter (parameters are still unbound at compile time).
func matchEqOperand(e expr.Expr) (col int, operand expr.Expr, ok bool) {
	c, isCmp := e.(*expr.Cmp)
	if !isCmp || c.Op != expr.EQ {
		return 0, nil, false
	}
	if cr, o := c.L.(*expr.ColRef); o && isOperand(c.R) {
		return cr.Idx, c.R, true
	}
	if cr, o := c.R.(*expr.ColRef); o && isOperand(c.L) {
		return cr.Idx, c.L, true
	}
	return 0, nil, false
}

// matchRangeOperand recognizes col <op> operand for inequalities.
func matchRangeOperand(e expr.Expr) (col int, op expr.CmpOp, operand expr.Expr, ok bool) {
	c, isCmp := e.(*expr.Cmp)
	if !isCmp {
		return 0, 0, nil, false
	}
	switch c.Op {
	case expr.LT, expr.LE, expr.GT, expr.GE:
	default:
		return 0, 0, nil, false
	}
	if cr, o := c.L.(*expr.ColRef); o && isOperand(c.R) {
		return cr.Idx, c.Op, c.R, true
	}
	if cr, o := c.R.(*expr.ColRef); o && isOperand(c.L) {
		return cr.Idx, c.Op.Flip(), c.L, true
	}
	return 0, 0, nil, false
}

func isOperand(e expr.Expr) bool {
	switch e.(type) {
	case *expr.Const, *expr.Param:
		return true
	}
	return false
}

// compileScan chooses the access path for a base-table read: an index probe
// when an index prefix is pinned by equality (or a leading-column range),
// else the shared ClockScan.
func (p *GlobalPlan) compileScan(scan *sql.Scan) (compiled, error) {
	table := p.db.Table(scan.Table)
	if table == nil {
		return compiled{}, fmt.Errorf("plan: unknown table %q", scan.Table)
	}
	conjs := expr.Conjuncts(scan.Pred)
	eqOperands := map[int]expr.Expr{}
	eqConjunct := map[int]int{} // col → index into conjs
	for i, c := range conjs {
		if col, operand, ok := matchEqOperand(c); ok {
			if _, dup := eqOperands[col]; !dup {
				eqOperands[col] = operand
				eqConjunct[col] = i
			}
		}
	}

	// longest equality-covered index prefix wins
	var bestIx *storage.Index
	bestLen := 0
	for _, ix := range table.Indexes() {
		n := 0
		for _, c := range ix.Cols {
			if _, ok := eqOperands[c]; ok {
				n++
			} else {
				break
			}
		}
		if n > bestLen || (n == bestLen && n > 0 && ix.Unique && !bestIx.Unique) {
			bestIx, bestLen = ix, n
		}
	}

	if bestLen > 0 {
		used := map[int]bool{}
		keyExprs := make([]expr.Expr, bestLen)
		for i := 0; i < bestLen; i++ {
			col := bestIx.Cols[i]
			keyExprs[i] = eqOperands[col]
			used[eqConjunct[col]] = true
		}
		var residual []expr.Expr
		for i, c := range conjs {
			if !used[i] {
				residual = append(residual, c)
			}
		}
		res := expr.AndOf(residual)
		src := p.getProbe(table, bestIx, storage.EdgeNone)
		step := stepBinding{node: src.node, makeSpec: func(params []types.Value) interface{} {
			return operators.ProbeSpec{Key: evalKey(keyExprs, params), Residual: expr.Bind(res, params)}
		}}
		return compiled{node: src.node, stream: p.streams[src.stream], steps: []stepBinding{step}}, nil
	}

	// Range predicates deliberately do NOT use index range probes here:
	// a per-query range probe re-traverses the index for every concurrent
	// query, which defeats sharing. The shared ClockScan answers all range
	// queries of a generation in one pass through its predicate interval
	// index (§4.4) — bounded work regardless of concurrency. (The
	// query-at-a-time baseline keeps range probes: optimal for one query.)

	// Shared ClockScan: the stream layout and scan provenance only. The
	// scan node itself is created by withScanNode when something consumes
	// its stream; an operator that reads this input from the column mirror
	// needs no node.
	return compiled{stream: p.scanStream(table), scanTable: scan.Table, scanPred: scan.Pred}, nil
}

// withScanNode routes a shared-ClockScan subtree through the table's scan
// node, creating the node on first use.
func (p *GlobalPlan) withScanNode(c compiled) compiled {
	src := p.getScan(p.db.Table(c.scanTable))
	pred := c.scanPred
	c.node = src.node
	c.steps = []stepBinding{{node: src.node, makeSpec: func(params []types.Value) interface{} {
		return operators.ScanSpec{Pred: expr.Bind(pred, params)}
	}}}
	return c
}

// compileInput compiles the input of a hash join's outer or a group-by. A
// direct base-table scan that compileScan answers with the shared ClockScan
// stays node-less: the consumer reads it from the column mirror itself
// (wireInput). Anything else compiles as usual.
func (p *GlobalPlan) compileInput(s *Statement, lp sql.LogicalPlan) (compiled, error) {
	if scan, ok := lp.(*sql.Scan); ok {
		return p.compileScan(scan)
	}
	return p.compile(s, lp)
}

// wireInput connects input c to node. A node-less direct scan gets no edge:
// node reads it from its table's column mirror (Describe names the table),
// and its table and unbound scan predicate are returned for node's task
// spec. Any other input's edge is appended to edges.
func (p *GlobalPlan) wireInput(node *operators.Node, c compiled, edges []*operators.Edge) ([]*operators.Edge, *storage.Table, expr.Expr) {
	if c.node != nil {
		return append(edges, p.edge(c.node, node)), nil, nil
	}
	m := p.mirrors[node]
	if m == nil {
		m = map[int]string{}
		p.mirrors[node] = m
	}
	m[c.stream.id] = c.scanTable
	return edges, p.db.Table(c.scanTable), c.scanPred
}

// evalKey binds a probe key's operands (constants or parameters).
func evalKey(keyExprs []expr.Expr, params []types.Value) btree.Key {
	key := make(btree.Key, len(keyExprs))
	for i, ke := range keyExprs {
		key[i] = ke.Eval(nil, params)
	}
	return key
}

func tableOrigins(t *storage.Table) []origin {
	out := make([]origin, t.Schema().Len())
	for i := range out {
		out[i] = origin{Table: t.Name(), Col: i}
	}
	return out
}

// scanStream returns the stream of a table's shared scan — its rows, full
// width — allocating it on first use, whether or not a scan node exists.
func (p *GlobalPlan) scanStream(t *storage.Table) *streamInfo {
	if si, ok := p.scanStreams[t.Name()]; ok {
		return si
	}
	si := p.allocStream(t.Schema(), tableOrigins(t))
	p.scanStreams[t.Name()] = si
	return si
}

func (p *GlobalPlan) getScan(t *storage.Table) *sourceRef {
	if ref, ok := p.scanNodes[t.Name()]; ok {
		return ref
	}
	si := p.scanStream(t)
	node := p.addNode("scan("+t.Name()+")", &operators.ScanOp{Table: t, OutStream: si.id})
	ref := &sourceRef{node: node, stream: si.id}
	p.scanNodes[t.Name()] = ref
	return ref
}

// getProbe returns the shared probe node of one index. Index-edge look-ups
// get a node of their own per edge, named apart ("probe(t/ix) [max]"), so
// the plan shows which MIN/MAX statements never reach a scan.
func (p *GlobalPlan) getProbe(t *storage.Table, ix *storage.Index, edge storage.EdgeKind) *sourceRef {
	name := "probe(" + t.Name() + "/" + ix.Name + ")"
	switch edge {
	case storage.EdgeMin:
		name += " [min]"
	case storage.EdgeMax:
		name += " [max]"
	}
	if ref, ok := p.probeNodes[name]; ok {
		return ref
	}
	si := p.allocStream(t.Schema(), tableOrigins(t))
	node := p.addNode(name, &operators.ProbeOp{Table: t, Index: ix, OutStream: si.id})
	ref := &sourceRef{node: node, stream: si.id, edge: edge != storage.EdgeNone}
	p.probeNodes[name] = ref
	return ref
}

// compileIndexEdge is the index-edge rule: a scalar MIN(c) or MAX(c) — no
// GROUP BY, no other aggregate — over a base table whose predicate is empty
// or only pins, by equality, the index columns in front of c, reads its
// input from that edge of the index instead of a scan: one row, the extreme
// visible one (storage.Locked.IndexEdgeAt), feeding the same shared group
// node a scan would. ok is false when the shape does not match.
func (p *GlobalPlan) compileIndexEdge(g *sql.Group) (c compiled, ok bool) {
	scan, isScan := g.In.(*sql.Scan)
	if !isScan || len(g.GroupCols) != 0 || len(g.Aggs) != 1 || g.Aggs[0].Distinct {
		return compiled{}, false
	}
	var edge storage.EdgeKind
	switch g.Aggs[0].Func {
	case sql.AggMin:
		edge = storage.EdgeMin
	case sql.AggMax:
		edge = storage.EdgeMax
	default:
		return compiled{}, false
	}
	arg, isCol := g.Aggs[0].Arg.(*expr.ColRef)
	table := p.db.Table(scan.Table)
	if !isCol || table == nil {
		return compiled{}, false
	}
	eqOperands := map[int]expr.Expr{}
	for _, conj := range expr.Conjuncts(scan.Pred) {
		col, operand, isEq := matchEqOperand(conj)
		if _, dup := eqOperands[col]; !isEq || dup {
			return compiled{}, false
		}
		eqOperands[col] = operand
	}
	n := len(eqOperands)
	for _, ix := range table.Indexes() {
		if len(ix.Cols) <= n || ix.Cols[n] != arg.Idx {
			continue
		}
		keyExprs := make([]expr.Expr, n)
		for i := range keyExprs {
			keyExprs[i] = eqOperands[ix.Cols[i]]
		}
		if slices.Contains(keyExprs, nil) {
			continue
		}
		src := p.getProbe(table, ix, edge)
		pred := scan.Pred
		step := stepBinding{node: src.node, makeSpec: func(params []types.Value) interface{} {
			// The whole predicate rides along as the residual: an equality
			// on NULL selects nothing, though the index holds NULL keys.
			return operators.ProbeSpec{Key: evalKey(keyExprs, params), Edge: edge, Residual: expr.Bind(pred, params)}
		}}
		return compiled{node: src.node, stream: p.streams[src.stream], steps: []stepBinding{step}}, true
	}
	return compiled{}, false
}

// compileFilter routes the subtree through the shared filter node attached
// to its producer.
func (p *GlobalPlan) compileFilter(s *Statement, f *sql.Filter) (compiled, error) {
	c, err := p.compile(s, f.In)
	if err != nil {
		return compiled{}, err
	}
	fnode, ok := p.filterFor[c.node.ID]
	if !ok {
		fnode = p.addNode("filter<"+c.node.Name+">", &operators.FilterOp{})
		p.filterFor[c.node.ID] = fnode
	}
	e := p.edge(c.node, fnode)
	pred := c.stream.physicalExpr(f.Pred)
	step := stepBinding{node: fnode, makeSpec: func(params []types.Value) interface{} {
		return operators.FilterSpec{Pred: expr.Bind(pred, params)}
	}}
	return compiled{
		node:   fnode,
		stream: c.stream, // filters pass streams through
		steps:  append(c.steps, step),
		edges:  append(c.edges, e),
	}, nil
}

// compileJoin compiles an equi-join: an index nested-loop join when the
// right side is a base table, reached by key alone, with a matching index
// (the inner table is then probed directly), else a shared hash join whose
// build side is the compiled right subtree.
//
// A hash join whose outer is one direct shared ClockScan of a base table
// fuses that scan (compileInput): the statement gets no scan step and no
// scan→join edge, and its join task carries the table and the bound scan
// predicate, so the join reads the outer from the column mirror once its
// build completes (operators.JoinSpec). Every activation of the statement
// reaches the outer that way, so nothing is decided per generation. An
// outer fed by any other operator streams in.
func (p *GlobalPlan) compileJoin(s *Statement, j *sql.Join) (compiled, error) {
	if len(j.LeftKeys) == 0 {
		return compiled{}, fmt.Errorf("plan: cross joins are not supported in the shared plan")
	}

	// Join method selection (mirrors the paper's Figure 6 mix of NL⋈ and
	// Hash⋈): an index nested-loop join only when the inner is a base table
	// reached purely by key — if the inner scan carries a per-query
	// predicate, the shared hash join wins, because the inner ClockScan's
	// predicate index evaluates that predicate once per row for all
	// queries, whereas an index join would re-evaluate it per (row, query).
	if rscan, ok := j.Right.(*sql.Scan); ok && rscan.Pred == nil {
		table := p.db.Table(rscan.Table)
		if ix := indexMatching(table, j.RightKeys); ix != nil {
			left, err := p.compile(s, j.Left)
			if err != nil {
				return compiled{}, err
			}
			return p.compileIndexJoin(s, left, j, rscan, table, ix)
		}
	}

	left, err := p.compileInput(s, j.Left)
	if err != nil {
		return compiled{}, err
	}
	right, err := p.compile(s, j.Right)
	if err != nil {
		return compiled{}, err
	}
	sig := fmt.Sprintf("hash|%d|%d|%v", right.node.ID, right.stream.id, j.RightKeys)
	var ref *joinRef
	for _, cand := range p.joinNodes[sig] {
		if keys, ok := cand.outerKeys[left.stream.id]; !ok || intsEqual(keys, j.LeftKeys) {
			ref = cand
			break
		}
	}
	if ref == nil {
		op := &operators.HashJoinOp{
			InnerKeyCols: right.stream.physicalCols(j.RightKeys),
			InnerStream:  right.stream.id,
			Outers:       map[int]operators.JoinOuter{},
		}
		node := p.addNode(fmt.Sprintf("⋈hash(%s)", right.node.Name), op)
		ie := p.edge(right.node, node)
		op.SetInnerEdge(ie)
		ref = &joinRef{node: node, op: op, innerStream: right.stream.id, outerKeys: map[int][]int{}}
		p.joinNodes[sig] = append(p.joinNodes[sig], ref)
	}
	outCfg, ok := ref.op.Outers[left.stream.id]
	if !ok {
		outCfg = p.addJoinOuter(ref.op.Outers, left.stream, right.stream, j.LeftKeys)
		ref.outerKeys[left.stream.id] = j.LeftKeys
	}
	ie := p.edge(right.node, ref.node)
	edges, table, pred := p.wireInput(ref.node, left, append(append(left.edges, right.edges...), ie))
	outer := left.stream.id
	step := stepBinding{node: ref.node, makeSpec: func(params []types.Value) interface{} {
		return operators.JoinSpec{Table: table, Outer: outer, Pred: expr.Bind(pred, params)}
	}}
	return compiled{
		node:   ref.node,
		stream: p.streams[outCfg.OutStream],
		steps:  append(append(left.steps, right.steps...), step),
		edges:  edges,
	}, nil
}

// indexMatching returns an index of t whose leading columns are exactly the
// given key columns (in any order up to position len(keys)), or nil.
func indexMatching(t *storage.Table, keys []int) *storage.Index {
	if t == nil {
		return nil
	}
	for _, ix := range t.Indexes() {
		if len(ix.Cols) < len(keys) {
			continue
		}
		// keys must cover exactly the index's first len(keys) columns
		covered := true
		for i := 0; i < len(keys); i++ {
			if ix.Cols[i] != keys[i] {
				covered = false
				break
			}
		}
		if covered {
			return ix
		}
	}
	return nil
}

// addJoinOuter registers outer as a probe-side stream of a join (outers is
// the operator's Outers map) and allocates the out-stream. The out-stream's
// logical schema is concat(outer, inner); physically it starts empty and
// carries a column only once a statement demands it (streamInfo.physical).
func (p *GlobalPlan) addJoinOuter(outers map[int]operators.JoinOuter, outer, inner *streamInfo, keys []int) operators.JoinOuter {
	osi := p.allocStream(outer.schema.Concat(inner.schema),
		append(append([]origin{}, outer.origins...), inner.origins...))
	osi.join = &joinLayout{outer: outer, inner: inner, outers: outers, phys: make([]int, osi.schema.Len())}
	for i := range osi.join.phys {
		osi.join.phys[i] = -1
	}
	cfg := operators.JoinOuter{KeyCols: outer.physicalCols(keys), OutStream: osi.id}
	outers[outer.id] = cfg
	return cfg
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (p *GlobalPlan) compileIndexJoin(s *Statement, left compiled, j *sql.Join, rscan *sql.Scan, table *storage.Table, ix *storage.Index) (compiled, error) {
	sig := "ix|" + table.Name() + "/" + ix.Name
	var ref *ixJoinRef
	for _, cand := range p.ixJoins[sig] {
		if keys, exists := cand.outerKeys[left.stream.id]; !exists || intsEqual(keys, j.LeftKeys) {
			ref = cand
			break
		}
	}
	if ref == nil {
		op := &operators.IndexJoinOp{Table: table, Index: ix, Outers: map[int]operators.JoinOuter{}}
		node := p.addNode("⋈ix("+table.Name()+")", op)
		ref = &ixJoinRef{node: node, op: op, outerKeys: map[int][]int{}}
		p.ixJoins[sig] = append(p.ixJoins[sig], ref)
	}
	outCfg, exists := ref.op.Outers[left.stream.id]
	if !exists {
		// The inner side is the indexed table itself: stored rows, full width.
		inner := &streamInfo{schema: rscan.Out, origins: tableOrigins(table)}
		outCfg = p.addJoinOuter(ref.op.Outers, left.stream, inner, j.LeftKeys)
		ref.outerKeys[left.stream.id] = j.LeftKeys
	}
	oe := p.edge(left.node, ref.node)
	step := stepBinding{node: ref.node, makeSpec: func([]types.Value) interface{} { return nil }}
	return compiled{
		node:   ref.node,
		stream: p.streams[outCfg.OutStream],
		steps:  append(left.steps, step),
		edges:  append(left.edges, oe),
	}, nil
}

// compileGroup merges group-bys whose group keys and aggregates have the
// same provenance signature. A group column the other group columns
// determine (carried, the FD key) is carried from each group's first row
// instead of hashed. A group-by over one direct shared ClockScan of
// a base table reads that input from the column mirror itself
// (compileInput), exactly like a hash join's fused outer: no scan step, no
// scan→group edge, and the group task carries the table and the bound scan
// predicate (operators.GroupSpec).
func (p *GlobalPlan) compileGroup(s *Statement, g *sql.Group) (compiled, error) {
	c, edge := p.compileIndexEdge(g)
	if !edge {
		var err error
		if c, err = p.compileInput(s, g.In); err != nil {
			return compiled{}, err
		}
	}
	// The FD key: a carried column is marked "+" in the signature.
	carry := p.carried(g.In, g.GroupCols)
	var sigParts []string
	var keyCols, carryCols []int
	for i, col := range g.GroupCols {
		part := c.stream.origins[col].String()
		if carry != nil && carry[i] {
			part = "+" + part
			carryCols = append(carryCols, col)
		} else {
			keyCols = append(keyCols, col)
		}
		sigParts = append(sigParts, part)
	}
	aggs := make([]operators.AggDef, len(g.Aggs))
	for i, a := range g.Aggs {
		aggs[i] = operators.AggDef{Kind: operators.AggKind(a.Func), Distinct: a.Distinct}
		sigParts = append(sigParts, fmt.Sprintf("%s|%v|%s", a.Func, a.Distinct,
			originString(a.Arg, c.stream.origins, s.ID)))
	}
	sig := fmt.Sprintf("group|%s", strings.Join(sigParts, ","))

	ref, ok := p.groupNodes[sig]
	if !ok {
		origins := make([]origin, g.Out.Len())
		for i, col := range g.GroupCols {
			origins[i] = c.stream.origins[col]
		}
		for i, a := range g.Aggs {
			origins[len(g.GroupCols)+i] = origin{Synth: a.Name}
		}
		osi := p.allocStream(g.Out, origins)
		op := &operators.GroupOp{
			Streams:   map[int]operators.GroupStream{},
			Aggs:      aggs,
			Carry:     carry,
			OutStream: osi.id,
		}
		node := p.addNode("Γ("+strings.Join(sigParts, ",")+")", op)
		ref = &groupRef{node: node, op: op, outStream: osi.id}
		p.groupNodes[sig] = ref
	}
	if _, exists := ref.op.Streams[c.stream.id]; !exists {
		aggArgs := make([]expr.Expr, len(g.Aggs))
		for i, a := range g.Aggs {
			aggArgs[i] = c.stream.physicalExpr(a.Arg)
		}
		ref.op.Streams[c.stream.id] = operators.GroupStream{GroupCols: c.stream.physicalCols(keyCols),
			CarryCols: c.stream.physicalCols(carryCols), AggArgs: aggArgs}
	}
	edges, table, pred := p.wireInput(ref.node, c, c.edges)
	having, input, scalar := g.Having, c.stream.id, len(g.GroupCols) == 0
	step := stepBinding{node: ref.node, makeSpec: func(params []types.Value) interface{} {
		return operators.GroupSpec{Having: expr.Bind(having, params), Scalar: scalar,
			Table: table, Input: input, Pred: expr.Bind(pred, params)}
	}}
	return compiled{
		node:   ref.node,
		stream: p.streams[ref.outStream],
		steps:  append(c.steps, step),
		edges:  edges,
	}, nil
}

// uniqueInner returns the inner scan and index of a join that compileJoin
// compiles as an index join into a unique index over exactly the join key
// columns — the inner a bare base-table scan, no residual — so each outer
// row joins at most one inner row; ix is nil for any other join.
func (p *GlobalPlan) uniqueInner(j *sql.Join) (rscan *sql.Scan, ix *storage.Index) {
	rscan, ok := j.Right.(*sql.Scan)
	if j.Residual != nil || !ok || rscan.Pred != nil {
		return nil, nil
	}
	ix = indexMatching(p.db.Table(rscan.Table), j.RightKeys)
	if ix == nil || !ix.Unique || len(ix.Cols) != len(j.RightKeys) {
		return nil, nil
	}
	return rscan, ix
}

// lookup is a unique-index join deferred past a Top-N's cut: the indexed
// inner table, its index, the inner side's stream layout and the join key
// columns in the outer stream's logical schema.
type lookup struct {
	table *storage.Table
	ix    *storage.Index
	inner *streamInfo
	keys  []int
}

// deferredLookup is the cut-before-join rule. A Top-N (Sort with LIMIT N >
// 0) directly over a join that compileJoin would compile as an index join —
// the inner a bare base-table scan, no residual — into a unique index over
// exactly the join key columns, with sort keys that read only outer columns,
// sorts the outer stream and joins only the rows the cut keeps
// (operators.SortOp). Each outer row joins at most one inner row, so the
// result is the join-then-sort result. It returns nil when the shape does
// not match.
func (p *GlobalPlan) deferredLookup(srt *sql.Sort, limit int, lp sql.LogicalPlan) (*sql.Join, *lookup) {
	j, ok := lp.(*sql.Join)
	if srt == nil || limit <= 0 || !ok {
		return nil, nil
	}
	rscan, ix := p.uniqueInner(j)
	if ix == nil {
		return nil, nil
	}
	table := p.db.Table(rscan.Table)
	outer := j.Left.Schema().Len()
	for _, k := range srt.Keys {
		for col := range expr.Columns(k.Expr) {
			if col >= outer {
				return nil, nil
			}
		}
	}
	return j, &lookup{table: table, ix: ix, inner: &streamInfo{schema: rscan.Out, origins: tableOrigins(table)}, keys: j.LeftKeys}
}

// compileSort merges sorts (and Top-Ns, which are sorts with per-query
// limits) whose keys have the same provenance signature. With lk set, c is
// the outer side of a deferred join and the sort's out-stream is that
// join's. A node configures each input stream once, so a second node of one
// signature opens only when a statement needs another configuration for a
// stream the first already has (with or without a deferred join).
func (p *GlobalPlan) compileSort(s *Statement, c compiled, srt *sql.Sort, limit int, lk *lookup) (compiled, error) {
	var sigParts []string
	for _, k := range srt.Keys {
		sigParts = append(sigParts, fmt.Sprintf("%s|%v", originString(k.Expr, c.stream.origins, s.ID), k.Desc))
	}
	sig := "sort|" + strings.Join(sigParts, ",")
	var ref *sortRef
	for _, cand := range p.sortNodes[sig] {
		if have, ok := cand.lookups[c.stream.id]; !ok || sameLookup(have, lk) {
			ref = cand
			break
		}
	}
	if ref == nil {
		op := &operators.SortOp{Streams: map[int]operators.SortStream{}, Lookups: map[int]operators.JoinOuter{}}
		node := p.addNode("sort("+strings.Join(sigParts, ",")+")", op)
		ref = &sortRef{node: node, op: op, lookups: map[int]*lookup{}}
		p.sortNodes[sig] = append(p.sortNodes[sig], ref)
	}
	cfg, exists := ref.op.Streams[c.stream.id]
	if !exists {
		keys := make([]operators.SortKey, len(srt.Keys))
		for i, k := range srt.Keys {
			keys[i] = operators.SortKey{E: c.stream.physicalExpr(k.Expr), Desc: k.Desc}
		}
		cfg = operators.SortStream{Keys: keys, OutStream: c.stream.id}
		if lk != nil {
			cfg.OutStream = p.addJoinOuter(ref.op.Lookups, c.stream, lk.inner, lk.keys).OutStream
			cfg.Lookup = &operators.IndexLookup{Table: lk.table, Index: lk.ix}
		}
		ref.op.Streams[c.stream.id] = cfg
		ref.lookups[c.stream.id] = lk
	}
	e := p.edge(c.node, ref.node)
	lim := limit
	step := stepBinding{node: ref.node, makeSpec: func([]types.Value) interface{} {
		return operators.SortSpec{Limit: lim}
	}}
	return compiled{
		node:   ref.node,
		stream: p.streams[cfg.OutStream],
		steps:  append(c.steps, step),
		edges:  append(c.edges, e),
	}, nil
}

// sameLookup reports whether two sort-stream configurations defer the same
// join (both nil: neither defers one).
func sameLookup(a, b *lookup) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.table == b.table && a.ix == b.ix && intsEqual(a.keys, b.keys)
}

// originString renders a bound expression with column references replaced
// by their provenance, for sharing signatures. Expressions containing
// parameters are never shareable across statements: the statement id is
// mixed into their signature.
func originString(e expr.Expr, origins []origin, stmtID int) string {
	if e == nil {
		return ""
	}
	var hasParam bool
	var render func(e expr.Expr) string
	render = func(e expr.Expr) string {
		switch x := e.(type) {
		case *expr.ColRef:
			if x.Idx < len(origins) {
				return origins[x.Idx].String()
			}
			return fmt.Sprintf("$%d", x.Idx)
		case *expr.Const:
			return x.Val.String()
		case *expr.Param:
			hasParam = true
			return fmt.Sprintf("?%d", x.Idx)
		case *expr.Cmp:
			return "(" + render(x.L) + x.Op.String() + render(x.R) + ")"
		case *expr.Arith:
			return "(" + render(x.L) + x.Op.String() + render(x.R) + ")"
		case *expr.And:
			parts := make([]string, len(x.Kids))
			for i, k := range x.Kids {
				parts[i] = render(k)
			}
			return "(" + strings.Join(parts, " AND ") + ")"
		case *expr.Or:
			parts := make([]string, len(x.Kids))
			for i, k := range x.Kids {
				parts[i] = render(k)
			}
			return "(" + strings.Join(parts, " OR ") + ")"
		case *expr.Not:
			return "NOT " + render(x.Kid)
		default:
			return fmt.Sprintf("%T", e)
		}
	}
	out := render(e)
	if hasParam {
		out += fmt.Sprintf("@stmt%d", stmtID)
	}
	return out
}
