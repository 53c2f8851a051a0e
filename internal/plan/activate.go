package plan

import (
	"slices"

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

// Run executes one heartbeat of the global plan (paper §3.2): every
// activation's tasks are queued at the operators along its path, and every
// active node is started for generation gen reading snapshot ts. A node's
// CycleStart carries all it routes by: the generation's query set on each
// of its consumer edges, and at the sink onTuple, which receives every tuple
// reaching it. onDone fires when the generation has fully drained. cost,
// when non-nil, receives each active node's tasks and operator-active time
// as it drains the generation, before onDone; nil turns timing off.
//
// Tuple.Row is valid only during onTuple: rows built by operators (join
// results, group-by output) live in the generation's row arena, whose chunks
// are cleared and handed to later generations as soon as this one has
// drained. A caller that keeps a row copies its values, as the engine's
// projection does.
//
// Nothing about the plan's shape is decided here: which inputs a group-by
// or a hash join reads from the column mirror was fixed when each
// statement compiled (its task spec carries the table and the scan
// predicate, and it has no scan step or edge there). A generation only
// queues each activation's tasks and hands each node its edges' query sets;
// every stateful node builds its state from its inputs each cycle.
//
// Run returns immediately; completion is signaled via onDone. Generations
// pipeline: the caller may start generation N+1 while earlier generations
// are still draining — each generation's routing travels on its own
// CycleStarts, each node runs its cycles in generation order, and messages
// carry their generation tag so overlapping generations never observe each
// other's tuples. Generations must be dispatched in increasing gen order,
// and plan mutation (Prepare) still requires all generations to have
// drained.
func (p *GlobalPlan) Run(gen, ts uint64, acts []Activation, onTuple func(stream int, t operators.Tuple), onDone func(), cost func(tasks []operators.Task, activeNs int64)) {
	p.mu.Lock()

	if len(acts) == 0 {
		p.mu.Unlock()
		onDone()
		return
	}

	tasks := map[*operators.Node][]operators.Task{}
	edgeQ := map[*operators.Edge][]queryset.QueryID{}
	for _, a := range acts {
		for _, st := range a.Stmt.steps {
			tasks[st.node] = append(tasks[st.node], operators.Task{Query: a.QID, Spec: st.makeSpec(a.Params)})
		}
		for _, e := range a.Stmt.pathEdges {
			edgeQ[e] = append(edgeQ[e], a.QID)
		}
	}

	activeProducers := func(n *operators.Node) int {
		c := 0
		for _, e := range n.Producers {
			if len(edgeQ[e]) > 0 {
				c++
			}
		}
		return c
	}

	rows := p.rowPool.NewArena()
	// The sink is the last node to finish a generation (every active node's
	// EOS must reach it), so by the time its cycle completes every operator
	// has finished with the rows it built: the arena's chunks go back to the
	// pool for the generations behind this one.
	done := func() {
		rows.Release()
		onDone()
	}
	p.sink.Inbox().Push(operators.Message{Ctrl: &operators.CycleStart{
		Gen: gen, TS: ts,
		ActiveProducers: activeProducers(p.sink),
		CostObserve:     cost,
		OnTuple:         onTuple,
		OnDone:          done,
	}})
	for n, nt := range tasks {
		switch op := n.Op.(type) {
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
			if op.Group != nil {
				p.paths.GroupJoin++
			}
		case *operators.GroupOp:
			if slices.ContainsFunc(nt, readsMirror) {
				p.paths.ColAgg++
			}
		}
		edges := make([]queryset.Set, len(n.Consumers))
		for i, e := range n.Consumers {
			edges[i] = queryset.Of(edgeQ[e]...)
		}
		n.Inbox().Push(operators.Message{Ctrl: &operators.CycleStart{
			Gen: gen, TS: ts, Tasks: nt,
			ActiveProducers: activeProducers(n),
			Edges:           edges,
			CostObserve:     cost,
			Rows:            rows,
		}})
	}
	p.mu.Unlock()
}

// RunGeneration is Run reporting to the observer SetCostObserver installed,
// tagged with gen; the write delta is ignored. It and SetCostObserver are
// kept only for bench/layers.go, the benchmark's frozen replay.
func (p *GlobalPlan) RunGeneration(gen, ts uint64, acts []Activation, _ *storage.Delta, onTuple func(stream int, t operators.Tuple), onDone func()) {
	var cost func([]operators.Task, int64)
	if ob := p.costObserver; ob != nil {
		cost = func(tasks []operators.Task, ns int64) { ob(gen, tasks, ns) }
	}
	p.Run(gen, ts, acts, onTuple, onDone, cost)
}

// SetCostObserver sets the observer RunGeneration reports to; call it
// before the generations it should observe.
func (p *GlobalPlan) SetCostObserver(ob func(gen uint64, tasks []operators.Task, activeNs int64)) {
	p.costObserver = ob
}

// readsMirror reports whether a task reads its node's input from the column
// mirror (a hash join's fused outer, a group-by's input) instead of a
// stream.
func readsMirror(t operators.Task) bool {
	switch spec := t.Spec.(type) {
	case operators.JoinSpec:
		return spec.Table != nil
	case operators.GroupSpec:
		return spec.Table != nil
	}
	return false
}
