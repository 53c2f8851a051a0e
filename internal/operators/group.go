package operators

import (
	"shareddb/internal/expr"
	"shareddb/internal/queryset"
	"shareddb/internal/storage"
	"shareddb/internal/types"
)

// GroupOp is the shared group-by (paper §3.4): "In the first phase, the
// input tuples are grouped. Again, this phase can be shared so that all the
// tuples that are relevant for all active queries are grouped in one big
// batch. In the second phase, HAVING predicates and aggregation functions
// are applied to the tuples of each group ... for each query individually."
//
// Phase 1 hashes every tuple once on its group key (shared). Aggregate
// states are kept per (group, query) because each query aggregates only the
// tuples it subscribed to — this per-query fan-out is the NF2-inherent part
// of the work and is what the f(o) vs Σf(ni) trade-off of §3.5 is about.
//
// Grouping is unboxed: tuples hash into an open-addressed table keyed by a
// precomputed 64-bit hash of the group key values (collisions verified by
// value comparison), so the steady-state phase-1 path performs no key
// encoding and no per-tuple allocation for existing groups. The table and
// its backing arrays are reused across cycles.
type GroupOp struct {
	Streams   map[int]GroupStream
	Aggs      []AggDef
	OutStream int

	// st is the per-cycle state, owned by the operator and reused across
	// cycles (a node runs one cycle at a time).
	st     groupState
	single [1]queryset.QueryID

	// agg is the cycle's aggregation context (group table, scratch and free
	// lists), reused across cycles; Consume and the columnar feed both
	// aggregate into it.
	agg groupAgg

	// columnar aggregation pushdown (Cycle.Col): the reusable scan buffers
	// and client list for feeding the aggregation straight from the table's
	// columnar mirror.
	colBufs    storage.ColScanBuffers
	colClients []storage.ScanClient
}

// GroupStream configures extraction for one input stream.
type GroupStream struct {
	GroupCols []int       // group key columns in the stream's schema
	AggArgs   []expr.Expr // one per AggDef; nil for COUNT(*)
}

// AggKind enumerates aggregate functions.
type AggKind uint8

// Aggregate kinds.
const (
	AggCount AggKind = iota
	AggSum
	AggMin
	AggMax
	AggAvg
)

// AggDef declares one aggregate computed by the operator.
type AggDef struct {
	Kind     AggKind
	Distinct bool
}

// GroupSpec is the per-query activation: the bound HAVING predicate over
// the operator's output schema (group columns followed by aggregates).
// Scalar marks queries without GROUP BY columns, which per SQL semantics
// produce exactly one row even over empty input (COUNT(*) = 0).
type GroupSpec struct {
	Having expr.Expr
	Scalar bool
}

// aggState accumulates one aggregate for one (group, query).
type aggState struct {
	count    int64
	sumI     int64
	sumF     float64
	isFloat  bool
	min, max types.Value
	distinct map[string]struct{}
}

func (a *aggState) add(v types.Value, def AggDef) {
	if v.IsNull() {
		return // SQL aggregates ignore NULLs (COUNT(*) passes a marker)
	}
	if def.Distinct {
		if a.distinct == nil {
			a.distinct = map[string]struct{}{}
		}
		k := types.EncodeKey(v)
		if _, seen := a.distinct[k]; seen {
			return
		}
		a.distinct[k] = struct{}{}
	}
	// Each kind maintains only the fields its result() reads: COUNT skips
	// the sums and extrema, SUM/AVG skip the extrema, MIN/MAX skip the
	// counters. This runs once per (row, query) on the absorb hot path.
	switch def.Kind {
	case AggCount:
		a.count++
	case AggSum, AggAvg:
		a.count++
		switch v.Kind() {
		case types.KindFloat:
			a.isFloat = true
			a.sumF += v.AsFloat()
		case types.KindInt, types.KindBool, types.KindTime:
			a.sumI += v.Int
		}
	case AggMin:
		if a.min.IsNull() || v.Compare(a.min) < 0 {
			a.min = v
		}
	case AggMax:
		if a.max.IsNull() || v.Compare(a.max) > 0 {
			a.max = v
		}
	}
}

func (a *aggState) result(def AggDef) types.Value {
	switch def.Kind {
	case AggCount:
		return types.NewInt(a.count)
	case AggSum:
		if a.count == 0 {
			return types.Null
		}
		if a.isFloat {
			return types.NewFloat(a.sumF + float64(a.sumI))
		}
		return types.NewInt(a.sumI)
	case AggMin:
		return a.min
	case AggMax:
		return a.max
	case AggAvg:
		if a.count == 0 {
			return types.Null
		}
		return types.NewFloat((a.sumF + float64(a.sumI)) / float64(a.count))
	default:
		return types.Null
	}
}

type groupEntry struct {
	hash    uint64
	keyVals []types.Value
	// perQuery is a dense slice indexed by generation-scoped query id
	// (nil for queries without state); aggStates for one query are stored
	// contiguously.
	perQuery [][]aggState
}

// groupAgg is the aggregation context: a group table, the per-row scratch,
// and free lists recycling a finished cycle's group entries
// and per-(group, query) aggregate states (refilled in Finish), so the
// steady state allocates only for emitted rows once the free lists have
// warmed up to the workload's group count.
type groupAgg struct {
	table     groupTable
	args      []types.Value // one row's evaluated aggregate arguments
	steps     []addStep     // ... lowered to per-aggregate updates
	entryFree []*groupEntry
	stateFree [][]aggState
}

type groupState struct {
	having  map[queryset.QueryID]expr.Expr
	scalar  map[queryset.QueryID]bool
	emitted map[queryset.QueryID]bool
}

// Start initializes the cycle's hash table and per-query HAVING predicates.
func (g *GroupOp) Start(c *Cycle) {
	st := &g.st
	if st.having == nil {
		st.having = map[queryset.QueryID]expr.Expr{}
		st.scalar = map[queryset.QueryID]bool{}
		st.emitted = map[queryset.QueryID]bool{}
	} else {
		clear(st.having)
		clear(st.scalar)
		clear(st.emitted)
	}
	for _, t := range c.Tasks {
		spec, _ := t.Spec.(GroupSpec)
		st.having[t.Query] = spec.Having
		if spec.Scalar {
			st.scalar[t.Query] = true
		}
	}
	if g.agg.args == nil {
		g.agg.args, g.agg.steps = make([]types.Value, len(g.Aggs)), make([]addStep, len(g.Aggs))
	}
	c.opState = st
	if c.Col != nil {
		g.startColumnar(c)
	}
}

// ColPred is one covered query's bound scan predicate (nil = every row).
type ColPred struct {
	QID  queryset.QueryID
	Pred expr.Expr
}

// ColCycle is the columnar-aggregation activation attached to a CycleStart
// (the aggregation pushdown of the columnar data path): the group-by node
// feeds itself from the table's columnar mirror (storage.SharedScan)
// instead of consuming the scan→group stream, which the plan silences for
// the covered queries. Preds are sorted by QID ascending, one bound scan
// predicate per covered query — exactly the clients the shared scan node
// would have served. The scan emits in RowID order and the operator absorbs
// serially in that order, so the resulting aggregate state (and Finish
// emission) is byte-identical to consuming the scan stream.
type ColCycle struct {
	Table *storage.Table
	Preds []ColPred
}

// startColumnar runs the aggregation pushdown: the covered queries' bound
// scan predicates become columnar scan clients and the mirror scan feeds
// matched rows straight into the cycle's group table — no scan→group stream,
// no Batch materialization. The scan emits in ascending RowID order (at any
// worker count) and absorbRow runs serially on this goroutine, so the group
// table's insertion order — and therefore Finish emission — is byte-identical
// to aggregating the scan stream.
func (g *GroupOp) startColumnar(c *Cycle) {
	cc := c.Col
	cfg := g.onlyStream()
	clients := g.colClients[:0]
	for _, p := range cc.Preds {
		clients = append(clients, storage.ScanClient{ID: p.QID, Pred: p.Pred})
	}
	cc.Table.SharedScan(c.TS, clients, &g.colBufs, func(_ storage.RowID, row types.Row, qs queryset.Set) {
		g.absorbRow(cfg, row, qs)
	})
	clear(clients)
	g.colClients = clients[:0]
}

// appendKey appends row's key columns to dst.
func appendKey(dst []types.Value, row types.Row, cols []int) []types.Value {
	for _, c := range cols {
		dst = append(dst, row[c])
	}
	return dst
}

// newEntry takes a group entry from the free list (reusing its key and
// per-query backing arrays) or allocates one.
func (a *groupAgg) newEntry(h uint64, row types.Row, cols []int) *groupEntry {
	var ge *groupEntry
	if n := len(a.entryFree); n > 0 {
		ge = a.entryFree[n-1]
		a.entryFree[n-1] = nil
		a.entryFree = a.entryFree[:n-1]
	} else {
		ge = &groupEntry{}
	}
	ge.hash = h
	ge.keyVals = appendKey(ge.keyVals[:0], row, cols)
	return ge
}

// newStates takes a cleared aggregate-state slice (one state per aggregate)
// from the free list or allocates one.
func (a *groupAgg) newStates() []aggState {
	if n := len(a.stateFree); n > 0 {
		s := a.stateFree[n-1]
		a.stateFree[n-1] = nil
		a.stateFree = a.stateFree[:n-1]
		return s
	}
	return make([]aggState, len(a.args))
}

// recycle returns a drained cycle's group entries and their aggregate
// states to the free lists, dropping every value reference so recycled rows
// are not pinned, and empties the table.
func (a *groupAgg) recycle() {
	for _, ge := range a.table.entries {
		for q, states := range ge.perQuery {
			if states != nil {
				clear(states)
				a.stateFree = append(a.stateFree, states)
				ge.perQuery[q] = nil
			}
		}
		ge.perQuery = ge.perQuery[:0]
		clear(ge.keyVals)
		ge.keyVals = ge.keyVals[:0]
		a.entryFree = append(a.entryFree, ge)
	}
	a.table.reset()
}

// onlyStream returns the operator's single input stream configuration (the
// plan only grants the aggregation pushdown to single-stream group nodes).
func (g *GroupOp) onlyStream() GroupStream {
	for _, cfg := range g.Streams {
		return cfg
	}
	return GroupStream{}
}

// Consume hashes each tuple into its group once and updates the aggregate
// state of every subscribed query (the body of ProcessTuple).
func (g *GroupOp) Consume(c *Cycle, b *Batch) {
	cfg, ok := g.Streams[b.Stream]
	if !ok {
		return
	}
	for ti := range b.Tuples {
		t := &b.Tuples[ti]
		g.absorbRow(cfg, t.Row, t.QS)
	}
}

// addStep is one aggregate's precompiled update for one input row: the
// per-(row, query) inner loop replays it against every subscribed query's
// state without re-dispatching on NULL-ness, Distinct or value kind. The
// fast ops perform exactly the updates aggState.add would (same fields,
// same order), so the result bytes are identical; anything add handles
// with per-state bookkeeping (DISTINCT sets, MIN/MAX compares) stays on
// the generic path.
type addStep struct {
	op  uint8 // stepSkip..stepGeneric
	i64 int64
	f64 float64
}

const (
	stepSkip     = iota // NULL argument: aggregates ignore it
	stepCount           // count++ (COUNT, or SUM/AVG over non-numeric)
	stepSumInt          // count++, sumI += i64
	stepSumFloat        // count++, isFloat = true, sumF += f64
	stepGeneric         // aggState.add (DISTINCT, MIN, MAX)
)

// compileAddSteps lowers one row's evaluated aggregate arguments into the
// per-agg update plan shared by every query subscribed to the row.
func (g *GroupOp) compileAddSteps(args []types.Value, steps []addStep) {
	for i, def := range g.Aggs {
		v := args[i]
		switch {
		case v.IsNull():
			steps[i] = addStep{op: stepSkip}
		case def.Distinct || def.Kind == AggMin || def.Kind == AggMax:
			steps[i] = addStep{op: stepGeneric}
		case def.Kind == AggCount:
			steps[i] = addStep{op: stepCount}
		default: // AggSum, AggAvg
			switch v.Kind() {
			case types.KindFloat:
				steps[i] = addStep{op: stepSumFloat, f64: v.AsFloat()}
			case types.KindInt, types.KindBool, types.KindTime:
				steps[i] = addStep{op: stepSumInt, i64: v.Int}
			default:
				steps[i] = addStep{op: stepCount} // add only counts non-numeric
			}
		}
	}
}

// absorbRow folds one routed row into the group table — the one aggregation
// body of the batch path and the columnar scan feed. qs may be borrowed (it
// is read, never retained).
func (g *GroupOp) absorbRow(cfg GroupStream, row types.Row, qs queryset.Set) {
	a := &g.agg
	h := hashValues(row, cfg.GroupCols)
	ge := a.table.lookup(h, row, cfg.GroupCols)
	if ge == nil {
		ge = a.newEntry(h, row, cfg.GroupCols)
		a.table.insert(ge)
	}
	// evaluate aggregate arguments once per tuple, shared across
	// subscribed queries
	args, steps := a.args, a.steps
	for i := range g.Aggs {
		if i < len(cfg.AggArgs) && cfg.AggArgs[i] != nil {
			args[i] = cfg.AggArgs[i].Eval(row, nil)
		} else {
			args[i] = types.NewInt(1) // COUNT(*) marker
		}
	}
	g.compileAddSteps(args, steps)
	for _, qid := range qs.IDs() {
		for int(qid) >= len(ge.perQuery) {
			ge.perQuery = append(ge.perQuery, nil)
		}
		states := ge.perQuery[qid]
		if states == nil {
			states = a.newStates()
			ge.perQuery[qid] = states
		}
		for i := range steps {
			st := &states[i]
			switch steps[i].op {
			case stepCount:
				st.count++
			case stepSumInt:
				st.count++
				st.sumI += steps[i].i64
			case stepSumFloat:
				st.count++
				st.isFloat = true
				st.sumF += steps[i].f64
			case stepGeneric:
				st.add(args[i], g.Aggs[i])
			}
		}
	}
}

// Finish runs phase 2: per (group, query) HAVING evaluation and emission.
// Groups emit in first-arrival order (the insertion order of the unboxed
// table), making output deterministic across runs.
func (g *GroupOp) Finish(c *Cycle) {
	st := c.opState.(*groupState)
	for _, ge := range g.agg.table.entries {
		g.emitGroup(c, st, ge)
	}
	g.agg.recycle() // drop group state references between cycles
	// scalar aggregates over empty input produce one row of defaults
	for qid, isScalar := range st.scalar {
		if !isScalar || st.emitted[qid] {
			continue
		}
		row := c.NewRow(len(g.Aggs))
		var empty aggState
		for i, def := range g.Aggs {
			row[i] = empty.result(def)
		}
		if h := st.having[qid]; h != nil && !expr.TruthyEval(h, row, nil) {
			continue
		}
		g.single[0] = qid
		c.Emit(g.OutStream, row, queryset.FromSorted(g.single[:1]))
	}
	c.opState = nil
}

// emitGroup emits one group's per-query aggregate rows (ascending query
// id).
func (g *GroupOp) emitGroup(c *Cycle, st *groupState, ge *groupEntry) {
	for q, states := range ge.perQuery {
		if states == nil {
			continue
		}
		qid := queryset.QueryID(q)
		row := c.NewRow(len(ge.keyVals) + len(g.Aggs))
		n := copy(row, ge.keyVals)
		for i, def := range g.Aggs {
			row[n+i] = states[i].result(def)
		}
		if h := st.having[qid]; h != nil && !expr.TruthyEval(h, row, nil) {
			continue
		}
		st.emitted[qid] = true
		g.single[0] = qid
		c.Emit(g.OutStream, row, queryset.FromSorted(g.single[:1]))
	}
}
