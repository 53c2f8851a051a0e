package plan

import (
	"slices"
	"sort"

	"shareddb/internal/expr"
	"shareddb/internal/operators"
	"shareddb/internal/queryset"
	"shareddb/internal/storage"
	"shareddb/internal/types"
)

// Activation is one live query of a generation: a statement instance with
// its parameters and a generation-unique query id.
type Activation struct {
	QID    queryset.QueryID
	Stmt   *Statement
	Params []types.Value
}

// pushdownCand accumulates the activations that reach one group node
// through its pushdown binding this generation.
type pushdownCand struct {
	b       pushdownBinding
	preds   []operators.ColPred // one bound scan predicate per covered activation
	reached int                 // activations with a step at the node, covered or not
	ok      bool                // false when bindings disagree on the scan edge/table
}

// RunGeneration executes one heartbeat of the global plan (paper §3.2):
// every activation's tasks are queued at the operators along its path, edge
// query-sets are installed for this generation, and all active nodes are
// started for generation gen reading snapshot ts. onTuple receives every
// tuple reaching the sink; onDone fires when the generation has fully
// drained.
//
// Tuple.Row is valid only during onTuple: rows built by operators (join
// results, group-by output) live in the generation's row arena, whose chunks
// are cleared and handed to later generations as soon as this one has
// drained. A caller that keeps a row copies its values, as the engine's
// projection does.
//
// A single-stream group-by that every activation reaches through one direct
// base-table scan skips its scan input and aggregates straight from the
// table's columnar mirror (decideColumnarAgg); every other stateful node
// builds its state from its input stream each cycle.
//
// The fourth parameter is ignored: bench/layers.go, which only a
// benchmark-typed PR may change, still passes a nil write delta there.
//
// RunGeneration returns immediately; completion is signaled via onDone.
// Generations pipeline: the caller may start generation N+1 while earlier
// generations are still draining — routing state (edge query sets, the sink
// handler) is keyed by generation, each node runs its cycles in generation
// order, and messages carry their generation tag so overlapping generations
// never observe each other's tuples. Generations must be dispatched in
// increasing gen order, and plan mutation (Prepare) still requires all
// generations to have drained.
func (p *GlobalPlan) RunGeneration(gen, ts uint64, acts []Activation, _ *storage.Delta, onTuple func(stream int, t operators.Tuple), onDone func()) {
	p.mu.Lock()

	if len(acts) == 0 {
		p.mu.Unlock()
		onDone()
		return
	}

	colCycles, skipTask, skipEdge := p.decideColumnarAgg(acts)

	tasks := map[*operators.Node][]operators.Task{}
	edgeQ := map[*operators.Edge][]queryset.QueryID{}
	for _, a := range acts {
		for _, st := range a.Stmt.steps {
			if skipTask[st.node] != nil && skipTask[st.node][a.QID] {
				continue
			}
			tasks[st.node] = append(tasks[st.node], operators.Task{Query: a.QID, Spec: st.makeSpec(a.Params)})
		}
		for _, e := range a.Stmt.pathEdges {
			if skipEdge[e] != nil && skipEdge[e][a.QID] {
				continue
			}
			edgeQ[e] = append(edgeQ[e], a.QID)
		}
	}
	activated := make([]*operators.Edge, 0, len(edgeQ))
	for e, ids := range edgeQ {
		e.SetQueries(gen, queryset.Of(ids...))
		activated = append(activated, e)
	}

	activeProducers := func(n *operators.Node) int {
		c := 0
		for _, e := range n.Producers {
			if !e.QueriesFor(gen).Empty() {
				c++
			}
		}
		return c
	}

	// Per-generation cost attribution closure: node cycles report their
	// operator-active time tagged with this generation (pipelined
	// generations attribute independently). Every node drains a generation
	// before the sink does, so by sink-OnDone the attribution is complete.
	var costObserve func(tasks []operators.Task, activeNs int64)
	if ob := p.costObserver; ob != nil {
		costObserve = func(tasks []operators.Task, activeNs int64) { ob(gen, tasks, activeNs) }
	}
	p.SinkOp.SetHandler(gen, onTuple)
	rows := p.rowPool.NewArena()
	// The sink is the last node to finish a generation (every active node's
	// EOS must reach it), so by the time its cycle completes every emitter
	// has snapshotted this generation's edge sets and they can be dropped,
	// and every operator has finished with the rows it built: the arena's
	// chunks go back to the pool for the generations behind this one.
	done := func() {
		for _, e := range activated {
			e.ClearQueries(gen)
		}
		rows.Release()
		onDone()
	}
	p.sink.Inbox().Push(operators.Message{Ctrl: &operators.CycleStart{
		Gen: gen, TS: ts,
		ActiveProducers: activeProducers(p.sink),
		CostObserve:     costObserve,
		OnDone:          done,
	}})
	for n, nt := range tasks {
		switch n.Op.(type) {
		case *operators.ScanOp:
			p.paths.ColScan++
		case *operators.ProbeOp:
			if p.probeNodes[n.Name].edge {
				p.paths.IndexEdge++
			}
		case *operators.HashJoinOp:
			if slices.ContainsFunc(nt, readsMirror) {
				p.paths.JoinScan++
			}
		}
		n.Inbox().Push(operators.Message{Ctrl: &operators.CycleStart{
			Gen: gen, TS: ts, Tasks: nt,
			ActiveProducers: activeProducers(n),
			CostObserve:     costObserve,
			Col:             colCycles[n],
			Rows:            rows,
		}})
	}
	p.mu.Unlock()
}

// readsMirror reports whether a hash-join task reads its outer from the
// column mirror (a fused scan) instead of a stream.
func readsMirror(t operators.Task) bool {
	spec, _ := t.Spec.(operators.JoinSpec)
	return spec.Table != nil
}

// decideColumnarAgg picks the group-by nodes whose aggregation runs as a
// columnar pushdown this generation: the node feeds itself from the table's
// columnar mirror (operators.ColCycle) — typed vectors via the stride-kernel
// scan instead of materialized row batches. A node qualifies only when it has
// a single input stream and EVERY activation touching it arrives through a
// pushdown binding on the same scan edge and table; partial coverage keeps
// the scan stream so shared-but-unbound queries still see the full input.
// Returns the per-node activations plus the scan tasks and edge memberships
// to suppress (the operator reads its own input, so the covered queries must
// not also stream the scan). Caller holds p.mu.
func (p *GlobalPlan) decideColumnarAgg(acts []Activation) (
	colCycles map[*operators.Node]*operators.ColCycle,
	skipTask map[*operators.Node]map[queryset.QueryID]bool,
	skipEdge map[*operators.Edge]map[queryset.QueryID]bool,
) {
	cands := map[*operators.Node]*pushdownCand{}
	for _, a := range acts {
		for _, b := range a.Stmt.pushdowns {
			c := cands[b.node]
			if c == nil {
				c = &pushdownCand{b: b, ok: true}
				cands[b.node] = c
			}
			if c.b.scanEdge != b.scanEdge || c.b.table != b.table {
				c.ok = false
			}
			c.preds = append(c.preds, operators.ColPred{QID: a.QID, Pred: expr.Bind(b.pred, a.Params)})
		}
	}
	if len(cands) == 0 {
		return nil, nil, nil
	}
	for _, a := range acts {
		for _, st := range a.Stmt.steps {
			if c := cands[st.node]; c != nil {
				c.reached++
			}
		}
	}
	for n, c := range cands {
		if !c.ok || len(c.preds) != c.reached || len(c.b.op.Streams) != 1 {
			continue
		}
		if colCycles == nil {
			colCycles = map[*operators.Node]*operators.ColCycle{}
			skipTask = map[*operators.Node]map[queryset.QueryID]bool{}
			skipEdge = map[*operators.Edge]map[queryset.QueryID]bool{}
		}
		sort.Slice(c.preds, func(i, j int) bool { return c.preds[i].QID < c.preds[j].QID })
		colCycles[n] = &operators.ColCycle{Table: c.b.table, Preds: c.preds}
		// One scan node may feed several group nodes, each over its own edge.
		st, se := skipTask[c.b.scanNode], map[queryset.QueryID]bool{}
		if st == nil {
			st = map[queryset.QueryID]bool{}
			skipTask[c.b.scanNode] = st
		}
		skipEdge[c.b.scanEdge] = se
		for _, pr := range c.preds {
			st[pr.QID], se[pr.QID] = true, true
		}
		p.paths.ColAgg++
	}
	return colCycles, skipTask, skipEdge
}
