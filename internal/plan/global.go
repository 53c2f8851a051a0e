// Package plan implements SharedDB's global query plan (paper §3.2, §3.3):
// the whole workload is compiled into a single always-on dataflow of shared
// operators. Compilation is the paper's two-step optimization (Figure 3):
// each statement arrives as an individually optimized logical plan
// (internal/sql, predicates pushed down), and this package merges those
// plans, sharing operators whose signatures match — the same join, sort or
// group-by node serves every statement (and every concurrent activation)
// that needs it.
package plan

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"shareddb/internal/expr"
	"shareddb/internal/operators"
	"shareddb/internal/sql"
	"shareddb/internal/storage"
	"shareddb/internal/types"
)

// origin identifies the provenance of a stream column: either a base table
// column or a synthesized column (aggregate output). Origins make sharing
// signatures independent of query aliases and column positions, so the sort
// on Items.price is shared between a query sorting bare Items tuples and a
// query sorting Orders⋈Items tuples (Figure 2).
type origin struct {
	Table string // base table name; "" for synthesized columns
	Col   int    // column index in the base table
	Synth string // synthesized name (aggregate signature)
}

func (o origin) String() string {
	if o.Synth != "" {
		return "<" + o.Synth + ">"
	}
	return fmt.Sprintf("%s.%d", o.Table, o.Col)
}

// streamInfo describes one stream (homogeneous tuple flow) in the global
// plan. schema and origins are the stream's logical layout — what the SQL
// binder's column indices refer to. Base-table and group-by streams carry
// exactly that layout; join out-streams carry only demanded columns (join).
type streamInfo struct {
	id      int
	schema  *types.Schema
	origins []origin
	join    *joinLayout // nil: rows are laid out as schema
}

// joinLayout is the physical layout of a join out-stream (late
// materialisation): join results carry a column only once some statement
// binds an expression over it. The column list lives on the operator
// (JoinOuter.OutCols) and is append-only — it grows at Prepare time, when
// no generation is in flight, and never reorders, so indices handed to
// earlier statements stay valid.
type joinLayout struct {
	outer, inner *streamInfo                 // the join's input streams
	outers       map[int]operators.JoinOuter // the operator's Outers; entry [outer.id] holds OutCols
	phys         []int                       // logical column → position in OutCols, -1 = not carried
}

// physical returns the position of logical column col in the stream's rows.
// On a join out-stream a column not carried yet is appended to the layout,
// which demands it from the input stream it comes from (recursively, when
// that is a join out-stream too).
func (si *streamInfo) physical(col int) int {
	jl := si.join
	if jl == nil {
		return col
	}
	if jl.phys[col] < 0 {
		oc := operators.OutCol{Inner: col >= jl.outer.schema.Len()}
		if oc.Inner {
			oc.Col = jl.inner.physical(col - jl.outer.schema.Len())
		} else {
			oc.Col = jl.outer.physical(col)
		}
		cfg := jl.outers[jl.outer.id]
		jl.phys[col] = len(cfg.OutCols)
		cfg.OutCols = append(cfg.OutCols, oc)
		jl.outers[jl.outer.id] = cfg
	}
	return jl.phys[col]
}

// carried lists the origins of the columns a join out-stream carries, in
// row order.
func (si *streamInfo) carried() []string {
	out := make([]string, len(si.join.outers[si.join.outer.id].OutCols))
	for col, pos := range si.join.phys {
		if pos >= 0 {
			out[pos] = si.origins[col].String()
		}
	}
	return out
}

// physicalCols maps a list of logical columns (join keys, group columns).
func (si *streamInfo) physicalCols(cols []int) []int {
	if si.join == nil {
		return cols
	}
	out := make([]int, len(cols))
	for i, c := range cols {
		out[i] = si.physical(c)
	}
	return out
}

// physicalExpr rewrites an expression bound over the stream's logical
// schema onto its physical rows, demanding every column it reads.
func (si *streamInfo) physicalExpr(e expr.Expr) expr.Expr {
	if si.join == nil {
		return e
	}
	return expr.MapColumns(e, si.physical)
}

// GlobalPlan is the always-on operator DAG plus the registered statements.
type GlobalPlan struct {
	mu sync.Mutex

	db         *storage.Database
	nodes      []*operators.Node
	nextNodeID int
	nextStream int
	started    bool
	// pool is the plan-wide batch free list: every node's emitter draws
	// from it and every node recycles consumed batches into it, so the
	// steady-state generation cycle reuses the same buffers (README
	// "Memory discipline").
	pool *operators.BatchPool
	// rowPool is the plan-wide free list behind the per-generation row
	// arenas Run hands to every cycle.
	rowPool *operators.RowPool

	// costObserver is the observer RunGeneration reports to
	// (SetCostObserver).
	costObserver func(gen uint64, tasks []operators.Task, activeNs int64)

	// paths counts node cycles per always-on path (tests assert each path
	// actually engaged).
	paths PathCounts

	streams map[int]*streamInfo

	scanNodes   map[string]*sourceRef  // table name → scan node
	scanStreams map[string]*streamInfo // table name → its scan's stream
	probeNodes  map[string]*sourceRef  // table/index → probe node
	joinNodes   map[string][]*joinRef
	ixJoins     map[string][]*ixJoinRef
	sortNodes   map[string][]*sortRef
	groupNodes  map[string]*groupRef
	filterFor   map[int]*operators.Node // producer node id → shared filter
	// mirrors records, per node, the input streams it reads straight from
	// a table's column mirror (stream → table name): a hash join's fused
	// outers and a group-by's direct-scan inputs.
	mirrors map[*operators.Node]map[int]string
	// disabled names the rewrite rules that do not run (tests only).
	disabled map[string]bool

	edges map[[2]int]*operators.Edge // (fromID, toID) → edge

	sink *operators.Node

	stmts []*Statement
	// byText is the statement registry: SQL text → the statement Prepare
	// compiled for it. It has its own lock so a lookup never waits behind
	// p.mu, which Run holds; writers hold both.
	textMu sync.RWMutex
	byText map[string]*Statement
}

type sourceRef struct {
	node   *operators.Node
	stream int
	edge   bool // an index-edge probe node (probes only)
}

type joinRef struct {
	node        *operators.Node
	op          *operators.HashJoinOp
	innerStream int
	outerKeys   map[int][]int // outer stream → key cols (conflict detection)
}

type ixJoinRef struct {
	node      *operators.Node
	op        *operators.IndexJoinOp
	outerKeys map[int][]int
}

type sortRef struct {
	node    *operators.Node
	op      *operators.SortOp
	lookups map[int]*lookup // input stream → its deferred join (nil = none), for conflict detection
}

type groupRef struct {
	node      *operators.Node
	op        *operators.GroupOp
	outStream int
}

// New creates an empty global plan over the given storage.
func New(db *storage.Database) *GlobalPlan {
	p := &GlobalPlan{
		db:          db,
		streams:     map[int]*streamInfo{},
		scanNodes:   map[string]*sourceRef{},
		scanStreams: map[string]*streamInfo{},
		probeNodes:  map[string]*sourceRef{},
		joinNodes:   map[string][]*joinRef{},
		ixJoins:     map[string][]*ixJoinRef{},
		sortNodes:   map[string][]*sortRef{},
		groupNodes:  map[string]*groupRef{},
		filterFor:   map[int]*operators.Node{},
		mirrors:     map[*operators.Node]map[int]string{},
		edges:       map[[2]int]*operators.Edge{},
		byText:      map[string]*Statement{},
		nextStream:  1,
		pool:        operators.NewBatchPool(),
		rowPool:     operators.NewRowPool(),
	}
	p.sink = operators.NewNode(p.allocNodeID(), "output", &operators.SinkOp{})
	p.sink.SetPool(p.pool)
	return p
}

// PoolStats reports the batch free list's traffic: total batch requests and
// how many were served by reuse (the steady-state recycle rate).
func (p *GlobalPlan) PoolStats() (gets, reuses uint64) { return p.pool.Stats() }

func (p *GlobalPlan) allocNodeID() int {
	id := p.nextNodeID
	p.nextNodeID++
	return id
}

func (p *GlobalPlan) allocStream(schema *types.Schema, origins []origin) *streamInfo {
	si := &streamInfo{id: p.nextStream, schema: schema, origins: origins}
	p.nextStream++
	p.streams[si.id] = si
	return si
}

func (p *GlobalPlan) addNode(name string, op operators.Operator) *operators.Node {
	n := operators.NewNode(p.allocNodeID(), name, op)
	n.SetPool(p.pool)
	p.nodes = append(p.nodes, n)
	if p.started {
		n.Start()
	}
	return n
}

// edge returns the (single) edge between two nodes, wiring it on first use.
func (p *GlobalPlan) edge(from, to *operators.Node) *operators.Edge {
	key := [2]int{from.ID, to.ID}
	if e, ok := p.edges[key]; ok {
		return e
	}
	e := operators.Connect(from, to)
	p.edges[key] = e
	return e
}

// SetColumnar does nothing: every scan reads the columnar mirror. It is
// kept only for bench/layers.go, which only a benchmark-typed PR may change
// and which still calls it.
func (p *GlobalPlan) SetColumnar(bool) {}

// SetWorkers does nothing: every scan cycle is one serial pass on its scan
// node's goroutine. It is kept only for bench/layers.go, which only a
// benchmark-typed PR may change and which still calls it.
func (p *GlobalPlan) SetWorkers(int) {}

// PathCounts is how many node cycles a plan has dispatched on each always-on
// path since it was created.
type PathCounts struct {
	ColScan       uint64 // scan cycles on the columnar mirror
	ColAgg        uint64 // group-by cycles that read an input from the column mirror instead of a scan stream
	JoinScan      uint64 // hash-join cycles that read an outer from the column mirror instead of a scan stream
	JoinKeyFilter uint64 // of those, cycles whose mirror pass skipped the rows no build key matches (the build-key filter)
	IndexEdge     uint64 // index-edge probe cycles: a scalar MIN/MAX answered from one end of an index instead of a scan
	GroupJoin     uint64 // hash-join cycles that aggregated their matches in place (group-join) instead of emitting joined tuples

	SortLookup     uint64 // sort cycles that applied a deferred unique-index join to the rows they emitted
	SortLookupMiss uint64 // of those, selection cycles handed to the shared sort because a retained row joined nothing
}

// PathCycles reports the plan's per-path cycle counts.
func (p *GlobalPlan) PathCycles() PathCounts {
	p.mu.Lock()
	defer p.mu.Unlock()
	pc := p.paths
	for _, refs := range p.joinNodes {
		for _, ref := range refs {
			pc.JoinKeyFilter += ref.op.KeyFilterCycles()
		}
	}
	for _, refs := range p.sortNodes {
		for _, ref := range refs {
			cycles, misses := ref.op.LookupCycles()
			pc.SortLookup += cycles
			pc.SortLookupMiss += misses
		}
	}
	return pc
}

// Start launches every operator goroutine (idempotent).
func (p *GlobalPlan) Start() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.started {
		return
	}
	p.started = true
	for _, n := range p.nodes {
		n.Start()
	}
	p.sink.Start()
}

// Stop terminates all operator goroutines.
func (p *GlobalPlan) Stop() {
	p.mu.Lock()
	nodes := append([]*operators.Node{}, p.nodes...)
	sink := p.sink
	p.mu.Unlock()
	for _, n := range nodes {
		n.Stop()
	}
	sink.Stop()
}

// NumNodes returns the number of operator nodes (excluding the sink).
func (p *GlobalPlan) NumNodes() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.nodes)
}

// Statements returns the registered statements.
func (p *GlobalPlan) Statements() []*Statement {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]*Statement{}, p.stmts...)
}

// Describe renders the DAG for debugging and the server's EXPLAIN.
func (p *GlobalPlan) Describe() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	var b strings.Builder
	for _, n := range p.nodes {
		fmt.Fprintf(&b, "node %d: %s", n.ID, n.Name)
		// Join nodes list the columns each out-stream carries (by origin, in
		// row order), one bracket per outer stream. A sort lists a deferred
		// join's columns the same way and names its inner table and index.
		// An input read straight from the column mirror is named by its
		// table: after its bracket on a join, after the name on a group-by.
		var outers map[int]operators.JoinOuter
		var sortOp *operators.SortOp
		switch op := n.Op.(type) {
		case *operators.HashJoinOp:
			if op.Group == nil { // a group-join's outers carry no column
				outers = op.Outers
			}
		case *operators.IndexJoinOp:
			outers = op.Outers
		case *operators.SortOp:
			outers, sortOp = op.Lookups, op
		}
		ids := make([]int, 0, len(outers))
		for id := range outers {
			ids = append(ids, id)
		}
		if outers == nil {
			for id := range p.mirrors[n] {
				ids = append(ids, id)
			}
		}
		sort.Ints(ids)
		for _, id := range ids {
			if outers != nil {
				fmt.Fprintf(&b, " [%s]", strings.Join(p.streams[outers[id].OutStream].carried(), " "))
			}
			if t, ok := p.mirrors[n][id]; ok {
				fmt.Fprintf(&b, " ⇐ mirror(%s)", t)
			}
			if sortOp != nil {
				lk := sortOp.Streams[id].Lookup
				fmt.Fprintf(&b, " ⋈ix(%s/%s)", lk.Table.Name(), lk.Index.Name)
			}
		}
		b.WriteString(" →")
		for _, e := range n.Consumers {
			fmt.Fprintf(&b, " %s", e.To.Name)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Statement is a registered (prepared) statement: either a read program
// over the shared DAG or a write plan executed by the storage layer.
type Statement struct {
	ID        int
	SQL       string
	NumParams int

	// read side
	steps          []stepBinding
	pathEdges      []*operators.Edge
	terminalStream int
	Project        []expr.Expr // over the terminal stream schema
	OutSchema      *types.Schema
	Distinct       bool
	SinkLimit      int // -1 none; applied at result assembly

	// write side
	Write *sql.WritePlan
}

// IsWrite reports whether the statement mutates data.
func (s *Statement) IsWrite() bool { return s.Write != nil }

// stepBinding is one node along a statement's path with its per-activation
// task factory.
type stepBinding struct {
	node     *operators.Node
	makeSpec func(params []types.Value) interface{}
}
