package operators

import (
	"slices"

	"shareddb/internal/expr"
	"shareddb/internal/queryset"
	"shareddb/internal/sql"
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
	Streams map[int]GroupStream
	Aggs    []AggDef
	// Carry marks the output group columns the hashed ones determine (a
	// unique key of their table is among those): each is copied from its
	// group's first row, never hashed or compared. nil: every group column
	// is hashed.
	Carry     []bool
	OutStream int

	// st is the per-cycle state, owned by the operator and reused across
	// cycles (a node runs one cycle at a time).
	st     groupState
	single [1]queryset.QueryID

	// agg is the cycle's aggregation context (group table, scratch and free
	// lists), reused across cycles; Consume and the mirror feed both
	// aggregate into it.
	agg groupAgg

	// mirror are the cycle's inputs read straight from a table's column
	// mirror, one per input stream; colBufs is the mirror pass's reusable
	// scan state.
	mirror  []mirrorInput
	colBufs storage.ColScanBuffers
}

// GroupStream configures extraction for one input stream.
type GroupStream struct {
	GroupCols []int       // hashed group key columns in the stream's schema, in output order
	CarryCols []int       // carried group columns (GroupOp.Carry), in output order
	AggArgs   []expr.Expr // one per AggDef; nil for COUNT(*)
}

// AggDef declares one aggregate computed by the operator.
type AggDef struct {
	Kind     sql.AggFunc
	Distinct bool
}

// GroupSpec is the per-query activation: the bound HAVING predicate over
// the operator's output schema (group columns followed by aggregates).
// Scalar marks queries without GROUP BY columns, which per SQL semantics
// produce exactly one row even over empty input (COUNT(*) = 0).
//
// A query whose input is one direct shared scan of a base table reads that
// input from the table's column mirror in Start (no scan task, no
// scan→group edge): Table is that table, Input the input stream's id and
// Pred the query's bound scan predicate (nil = every row). With Table nil
// the input streams in.
type GroupSpec struct {
	Having expr.Expr
	Scalar bool

	Table *storage.Table
	Input int
	Pred  expr.Expr
}

func (s GroupSpec) mirrored() (*storage.Table, int, expr.Expr) { return s.Table, s.Input, s.Pred }

// AggState accumulates one aggregate over one input: the shared group-by
// keeps one per (group, query), the shard router's merge one per group it
// recombines from the shards' partial aggregates.
type AggState struct {
	count    int64
	sumI     int64
	sumF     float64
	isFloat  bool
	min, max types.Value
	distinct map[string]struct{}
}

// Add folds one argument value into the state.
func (a *AggState) Add(v types.Value, def AggDef) {
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
	// Each kind maintains only the fields its Result reads: COUNT skips
	// the sums and extrema, SUM/AVG skip the extrema, MIN/MAX skip the
	// counters. This runs once per (row, query) on the absorb hot path.
	switch def.Kind {
	case sql.AggCount:
		a.count++
	case sql.AggSum, sql.AggAvg:
		a.count++
		a.addSum(v)
	case sql.AggMin:
		if a.min.IsNull() || v.Compare(a.min) < 0 {
			a.min = v
		}
	case sql.AggMax:
		if a.max.IsNull() || v.Compare(a.max) > 0 {
			a.max = v
		}
	}
}

func (a *AggState) addSum(v types.Value) {
	switch v.Kind() {
	case types.KindFloat:
		a.isFloat = true
		a.sumF += v.AsFloat()
	case types.KindInt, types.KindBool, types.KindTime:
		a.sumI += v.Int
	}
}

// Merge folds in the same non-DISTINCT aggregate computed over another part
// of the input: count is that part's row count (COUNT, AVG) and part its
// SUM, MIN or MAX value (AVG: its SUM), NULL when it saw no input.
func (a *AggState) Merge(def AggDef, count int64, part types.Value) {
	a.count += count
	if part.IsNull() {
		return
	}
	switch def.Kind {
	case sql.AggSum:
		a.count++ // SUM's Result reads only whether count is zero
		a.addSum(part)
	case sql.AggAvg:
		a.addSum(part)
	case sql.AggMin, sql.AggMax:
		a.Add(part, AggDef{Kind: def.Kind})
	}
}

// Result is the aggregate's value: COUNT over no input is 0, the others
// NULL.
func (a *AggState) Result(def AggDef) types.Value {
	switch def.Kind {
	case sql.AggCount:
		return types.NewInt(a.count)
	case sql.AggSum:
		if a.count == 0 {
			return types.Null
		}
		if a.isFloat {
			return types.NewFloat(a.sumF + float64(a.sumI))
		}
		return types.NewInt(a.sumI)
	case sql.AggMin:
		return a.min
	case sql.AggMax:
		return a.max
	case sql.AggAvg:
		if a.count == 0 {
			return types.Null
		}
		return types.NewFloat((a.sumF + float64(a.sumI)) / float64(a.count))
	default:
		return types.Null
	}
}

type groupEntry struct {
	hash uint64
	// keyVals holds the hashed key values, then the carried ones.
	keyVals []types.Value
	// perQuery is a dense slice indexed by the cycle's query slot
	// (groupAgg.slot; nil for queries without state); AggStates for one
	// query are stored contiguously.
	perQuery [][]AggState
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
	stateFree [][]AggState

	// qids are the cycle's queries in ascending id, and slot maps a query
	// id to its index there: a group's per-query states span the node's
	// queries, not every query id of the generation.
	qids []queryset.QueryID
	slot []int32
}

// groupState is the cycle's per-query state, indexed by query slot
// (groupAgg.slot): the bound HAVING, whether the query is a scalar
// aggregate, and whether it emitted a row.
type groupState struct {
	having  []expr.Expr
	scalar  []bool
	emitted []bool
}

// Start initializes the cycle's hash table and per-query HAVING predicates,
// then feeds the mirror-fed inputs' matched rows straight into the group
// table. Each pass runs in RowID order before any streamed batch arrives,
// and a query reads one source only, so its rows are absorbed in the order
// the scan stream would deliver them: its aggregates, float sums included,
// are byte-identical. (HashJoinOp.probeMirror reads a fused outer alike.)
func (g *GroupOp) Start(c *Cycle) {
	g.begin(c)
	g.mirror = mirrorInputs(g.mirror, c.Tasks)
	for i := range g.mirror {
		in := &g.mirror[i]
		cfg := g.Streams[in.stream]
		in.table.SharedScan(c.TS, in.clients, &g.colBufs, func(_ storage.RowID, row types.Row, qs queryset.Set) {
			g.absorbRow(cfg, row, qs)
		})
	}
	releaseMirrorInputs(g.mirror)
}

// begin numbers the cycle's queries into slots and sets up their HAVING
// predicates and scalar marks from the tasks' GroupSpecs, and the
// aggregation scratch.
func (g *GroupOp) begin(c *Cycle) {
	a := &g.agg
	if a.args == nil {
		a.args, a.steps = make([]types.Value, len(g.Aggs)), make([]addStep, len(g.Aggs))
	}
	a.qids = a.qids[:0]
	for _, t := range c.Tasks {
		a.qids = append(a.qids, t.Query)
	}
	slices.Sort(a.qids)
	for i, q := range a.qids {
		if n := int(q) + 1; n > len(a.slot) {
			a.slot = append(a.slot, make([]int32, n-len(a.slot))...)
		}
		a.slot[q] = int32(i)
	}
	st, n := &g.st, len(a.qids)
	st.having = append(st.having[:0], make([]expr.Expr, n)...)
	st.scalar = append(st.scalar[:0], make([]bool, n)...)
	st.emitted = append(st.emitted[:0], make([]bool, n)...)
	for _, t := range c.Tasks {
		spec, _ := t.Spec.(GroupSpec)
		s := a.slot[t.Query]
		st.having[s], st.scalar[s] = spec.Having, spec.Scalar
	}
	c.opState = st
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
func (a *groupAgg) newEntry(h uint64, row types.Row, keyCols, carryCols []int) *groupEntry {
	var ge *groupEntry
	if n := len(a.entryFree); n > 0 {
		ge = a.entryFree[n-1]
		a.entryFree[n-1] = nil
		a.entryFree = a.entryFree[:n-1]
	} else {
		ge = &groupEntry{}
	}
	ge.hash = h
	ge.keyVals = appendKey(appendKey(ge.keyVals[:0], row, keyCols), row, carryCols)
	ge.perQuery = append(ge.perQuery[:0], make([][]AggState, len(a.qids))...)
	return ge
}

// newStates takes a cleared aggregate-state slice (one state per aggregate)
// from the free list or allocates one.
func (a *groupAgg) newStates() []AggState {
	if n := len(a.stateFree); n > 0 {
		s := a.stateFree[n-1]
		a.stateFree[n-1] = nil
		a.stateFree = a.stateFree[:n-1]
		return s
	}
	return make([]AggState, len(a.args))
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
// fast ops perform exactly the updates AggState.Add would (same fields,
// same order), so the result bytes are identical; anything Add handles
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
	stepGeneric         // AggState.Add (DISTINCT, MIN, MAX)
)

// compileAddSteps lowers one row's evaluated aggregate arguments into the
// per-agg update plan shared by every query subscribed to the row.
func (g *GroupOp) compileAddSteps(args []types.Value, steps []addStep) {
	for i, def := range g.Aggs {
		v := args[i]
		switch {
		case v.IsNull():
			steps[i] = addStep{op: stepSkip}
		case def.Distinct || def.Kind == sql.AggMin || def.Kind == sql.AggMax:
			steps[i] = addStep{op: stepGeneric}
		case def.Kind == sql.AggCount:
			steps[i] = addStep{op: stepCount}
		default: // AggSum, AggAvg
			switch v.Kind() {
			case types.KindFloat:
				steps[i] = addStep{op: stepSumFloat, f64: v.AsFloat()}
			case types.KindInt, types.KindBool, types.KindTime:
				steps[i] = addStep{op: stepSumInt, i64: v.Int}
			default:
				steps[i] = addStep{op: stepCount} // Add only counts non-numeric
			}
		}
	}
}

// absorbRow folds one routed row into the group table — the one aggregation
// body of the batch path and the mirror feed. qs may be borrowed (it
// is read, never retained).
func (g *GroupOp) absorbRow(cfg GroupStream, row types.Row, qs queryset.Set) {
	a := &g.agg
	h := hashValues(row, cfg.GroupCols)
	ge := a.table.lookup(h, row, cfg.GroupCols)
	if ge == nil {
		ge = a.newEntry(h, row, cfg.GroupCols, cfg.CarryCols)
		a.table.insert(ge)
	}
	g.loadArgs(cfg.AggArgs, nil, row)
	g.fold(ge, qs)
}

// loadArgs evaluates one input row's aggregate arguments once, shared
// across the queries subscribed to it, and lowers them to update steps.
// vals, when non-nil, holds the values of the bare-column arguments, in
// aggArgs order, already read (a group-join's mirror pass reads them from
// the typed vectors with the join key); the other arguments read row.
func (g *GroupOp) loadArgs(aggArgs []expr.Expr, vals []types.Value, row types.Row) {
	args := g.agg.args
	for i := range g.Aggs {
		var e expr.Expr
		if i < len(aggArgs) {
			e = aggArgs[i]
		}
		if e == nil {
			args[i] = types.NewInt(1) // COUNT(*) marker
			continue
		}
		if _, bare := e.(*expr.ColRef); bare && vals != nil {
			args[i], vals = vals[0], vals[1:]
			continue
		}
		args[i] = e.Eval(row, nil)
	}
	g.compileAddSteps(args, g.agg.steps)
}

// fold replays the loaded update steps against group ge's aggregate states
// of every query in qs.
func (g *GroupOp) fold(ge *groupEntry, qs queryset.Set) {
	a := &g.agg
	args, steps := a.args, a.steps
	for _, qid := range qs.IDs() {
		slot := a.slot[qid]
		states := ge.perQuery[slot]
		if states == nil {
			states = a.newStates()
			ge.perQuery[slot] = states
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
				st.Add(args[i], g.Aggs[i])
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
	for s, qid := range g.agg.qids {
		if !st.scalar[s] || st.emitted[s] {
			continue
		}
		row := c.NewRow(len(g.Aggs))
		var empty AggState
		for i, def := range g.Aggs {
			row[i] = empty.Result(def)
		}
		if h := st.having[s]; h != nil && !expr.TruthyEval(h, row, nil) {
			continue
		}
		g.single[0] = qid
		c.Emit(g.OutStream, row, queryset.FromSorted(g.single[:1]))
	}
	clear(st.having)
	c.opState = nil
}

// emitGroup emits one group's per-query aggregate rows (ascending query
// id).
func (g *GroupOp) emitGroup(c *Cycle, st *groupState, ge *groupEntry) {
	for slot, states := range ge.perQuery {
		if states == nil {
			continue
		}
		qid := g.agg.qids[slot]
		row := c.NewRow(len(ge.keyVals) + len(g.Aggs))
		n := g.placeKey(row, ge.keyVals)
		for i, def := range g.Aggs {
			row[n+i] = states[i].Result(def)
		}
		if h := st.having[slot]; h != nil && !expr.TruthyEval(h, row, nil) {
			continue
		}
		st.emitted[slot] = true
		g.single[0] = qid
		c.Emit(g.OutStream, row, queryset.FromSorted(g.single[:1]))
	}
}

// placeKey copies a group's key values into the front of its output row —
// hashed and carried columns interleaved as Carry lays them out — and
// returns how many it placed.
func (g *GroupOp) placeKey(row types.Row, keyVals []types.Value) int {
	if g.Carry == nil {
		return copy(row, keyVals)
	}
	k, c := 0, 0 // next hashed value, next carried value
	for _, carried := range g.Carry {
		if !carried {
			c++
		}
	}
	for i, carried := range g.Carry {
		if carried {
			row[i] = keyVals[c]
			c++
		} else {
			row[i] = keyVals[k]
			k++
		}
	}
	return len(g.Carry)
}
