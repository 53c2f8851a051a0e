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
// A scan its consumer reads from the column mirror has no node.
type compiled struct {
	node   *operators.Node
	stream *streamInfo
	steps  []stepBinding
	edges  []*operators.Edge
}

// compileSelect peels the top of the logical plan (Distinct → Project →
// Limit → Sort), runs the rewrite rules over what is left (rewrite) and lays
// the annotated plan out bottom-up as shared nodes.
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
	a := p.rewrite(s.ID, lp, sortLP, limit, proj.Exprs)

	var c compiled
	var err error
	if a.deferred {
		j := a.lp.(*sql.Join)
		if c, err = p.compile(a, j.Left); err == nil {
			c, err = p.compileSort(a, c, a.ixJoins[j])
		}
	} else if c, err = p.compile(a, a.lp); err == nil && a.sort != nil {
		c, err = p.compileSort(a, c, nil)
	}
	if err != nil {
		return err
	}
	if a.sort == nil {
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
	s.Project = make([]expr.Expr, len(a.project))
	for i, pe := range a.project {
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
func (p *GlobalPlan) compile(a *annotated, lp sql.LogicalPlan) (compiled, error) {
	switch n := lp.(type) {
	case *sql.Scan:
		return p.compileScan(a, n), nil
	case *sql.Filter:
		return p.compileFilter(a, n)
	case *sql.Join:
		return p.compileJoin(a, n)
	case *sql.Group:
		return p.compileGroup(a, n)
	default:
		return compiled{}, fmt.Errorf("plan: unexpected logical node %T below the plan root", lp)
	}
}

// compileScan lays out a base-table read: the probe node index-probe or
// index-edge chose, no node for a scan its consumer reads from the column
// mirror (mirror-input), else the table's shared scan node.
func (p *GlobalPlan) compileScan(a *annotated, scan *sql.Scan) compiled {
	table := p.db.Table(scan.Table)
	if pr, ok := a.probes[scan]; ok {
		src := p.getProbe(table, pr.ix, pr.edge)
		step := stepBinding{node: src.node, makeSpec: func(params []types.Value) interface{} {
			return operators.ProbeSpec{Key: evalKey(pr.key, params), Edge: pr.edge, Residual: expr.Bind(pr.residual, params)}
		}}
		return compiled{node: src.node, stream: p.streams[src.stream], steps: []stepBinding{step}}
	}
	if a.mirrored[scan] {
		return compiled{stream: p.scanStream(table)}
	}
	src := p.getScan(table)
	step := stepBinding{node: src.node, makeSpec: func(params []types.Value) interface{} {
		return operators.ScanSpec{Pred: expr.Bind(scan.Pred, params)}
	}}
	return compiled{node: src.node, stream: p.streams[src.stream], steps: []stepBinding{step}}
}

// wireInput connects input c, compiled from the logical input in, to node.
// A node-less scan gets no edge: node reads it from its table's column
// mirror (Describe names the table), and its table and unbound scan
// predicate are returned for node's task spec. Any other input's edge is
// appended to edges.
func (p *GlobalPlan) wireInput(node *operators.Node, in sql.LogicalPlan, c compiled, edges []*operators.Edge) ([]*operators.Edge, *storage.Table, expr.Expr) {
	if c.node != nil {
		return append(edges, p.edge(c.node, node)), nil, nil
	}
	scan := in.(*sql.Scan)
	m := p.mirrors[node]
	if m == nil {
		m = map[int]string{}
		p.mirrors[node] = m
	}
	m[c.stream.id] = scan.Table
	return edges, p.db.Table(scan.Table), scan.Pred
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

// compileFilter routes the subtree through the shared filter node attached
// to its producer.
func (p *GlobalPlan) compileFilter(a *annotated, f *sql.Filter) (compiled, error) {
	c, err := p.compile(a, f.In)
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

// compileJoin lays out an equi-join: the index join index-join chose, else
// a shared hash join whose build side is the compiled right subtree and
// whose outer streams in or, when mirror-input chose it, is read from the
// column mirror once the build completes (operators.JoinSpec).
func (p *GlobalPlan) compileJoin(a *annotated, j *sql.Join) (compiled, error) {
	if len(j.LeftKeys) == 0 {
		return compiled{}, fmt.Errorf("plan: cross joins are not supported in the shared plan")
	}
	left, err := p.compile(a, j.Left)
	if err != nil {
		return compiled{}, err
	}
	if lk := a.ixJoins[j]; lk != nil {
		return p.compileIndexJoin(left, lk), nil
	}
	right, err := p.compile(a, j.Right)
	if err != nil {
		return compiled{}, err
	}
	sig := fmt.Sprintf("hash|%d|%d|%v", right.node.ID, right.stream.id, j.RightKeys)
	var ref *joinRef
	for _, cand := range p.joinNodes[sig] {
		if keys, ok := cand.outerKeys[left.stream.id]; !ok || slices.Equal(keys, j.LeftKeys) {
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
	edges, table, pred := p.wireInput(ref.node, j.Left, left, append(append(left.edges, right.edges...), ie))
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

func (p *GlobalPlan) compileIndexJoin(left compiled, lk *lookup) compiled {
	sig := "ix|" + lk.table.Name() + "/" + lk.ix.Name
	var ref *ixJoinRef
	for _, cand := range p.ixJoins[sig] {
		if keys, exists := cand.outerKeys[left.stream.id]; !exists || slices.Equal(keys, lk.keys) {
			ref = cand
			break
		}
	}
	if ref == nil {
		op := &operators.IndexJoinOp{Table: lk.table, Index: lk.ix, Outers: map[int]operators.JoinOuter{}}
		node := p.addNode("⋈ix("+lk.table.Name()+")", op)
		ref = &ixJoinRef{node: node, op: op, outerKeys: map[int][]int{}}
		p.ixJoins[sig] = append(p.ixJoins[sig], ref)
	}
	outCfg, exists := ref.op.Outers[left.stream.id]
	if !exists {
		outCfg = p.addJoinOuter(ref.op.Outers, left.stream, lk.inner, lk.keys)
		ref.outerKeys[left.stream.id] = lk.keys
	}
	oe := p.edge(left.node, ref.node)
	step := stepBinding{node: ref.node, makeSpec: func([]types.Value) interface{} { return nil }}
	return compiled{
		node:   ref.node,
		stream: p.streams[outCfg.OutStream],
		steps:  append(left.steps, step),
		edges:  append(left.edges, oe),
	}
}

// compileGroup merges group-bys whose group keys and aggregates have the
// same provenance signature. A column fd-key carries is marked "+" in the
// signature. An input mirror-input chose is read from the column mirror,
// like a hash join's fused outer (operators.GroupSpec).
func (p *GlobalPlan) compileGroup(a *annotated, g *sql.Group) (compiled, error) {
	c, err := p.compile(a, g.In)
	if err != nil {
		return compiled{}, err
	}
	carry := a.carry[g]
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
	for i, ag := range g.Aggs {
		aggs[i] = operators.AggDef{Kind: operators.AggKind(ag.Func), Distinct: ag.Distinct}
		sigParts = append(sigParts, fmt.Sprintf("%s|%v|%s", ag.Func, ag.Distinct,
			originString(ag.Arg, c.stream.origins, a.stmt)))
	}
	sig := fmt.Sprintf("group|%s", strings.Join(sigParts, ","))

	ref, ok := p.groupNodes[sig]
	if !ok {
		origins := make([]origin, g.Out.Len())
		for i, col := range g.GroupCols {
			origins[i] = c.stream.origins[col]
		}
		for i, ag := range g.Aggs {
			origins[len(g.GroupCols)+i] = origin{Synth: ag.Name}
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
		for i, ag := range g.Aggs {
			aggArgs[i] = c.stream.physicalExpr(ag.Arg)
		}
		ref.op.Streams[c.stream.id] = operators.GroupStream{GroupCols: c.stream.physicalCols(keyCols),
			CarryCols: c.stream.physicalCols(carryCols), AggArgs: aggArgs}
	}
	edges, table, pred := p.wireInput(ref.node, g.In, c, c.edges)
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

// compileSort merges sorts (and Top-Ns, which are sorts with per-query
// limits) whose keys have the same provenance signature. With lk set, c is
// the outer side of a deferred join and the sort's out-stream is that
// join's. A node configures each input stream once, so a second node of one
// signature opens only when a statement needs another configuration for a
// stream the first already has (with or without a deferred join).
func (p *GlobalPlan) compileSort(a *annotated, c compiled, lk *lookup) (compiled, error) {
	var sigParts []string
	for _, k := range a.sort.Keys {
		sigParts = append(sigParts, fmt.Sprintf("%s|%v", originString(k.Expr, c.stream.origins, a.stmt), k.Desc))
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
		keys := make([]operators.SortKey, len(a.sort.Keys))
		for i, k := range a.sort.Keys {
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
	lim := a.limit
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
	return a.table == b.table && a.ix == b.ix && slices.Equal(a.keys, b.keys)
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
