package plan

import (
	"fmt"
	"sort"
	"strings"

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

// incAct is one activation covered by a node's incremental-state candidacy.
type incAct struct {
	qid    queryset.QueryID
	stmt   int
	params []types.Value
	pred   expr.Expr // unbound scan predicate from the activation's binding
}

// incCand accumulates the activations that reach one stateful node through
// its incremental binding this generation.
type incCand struct {
	b    incBinding
	acts []incAct
	ok   bool // false when bindings disagree on the scan edge/table
}

// RunGeneration executes one heartbeat of the global plan (paper §3.2):
// every activation's tasks are queued at the operators along its path, edge
// query-sets are installed for this generation, and all active nodes are
// started for generation gen reading snapshot ts. onTuple receives every
// tuple reaching the sink; onDone fires when the generation has fully
// drained.
//
// delta, when non-nil, turns on incremental node state for this generation:
// it is the accumulated write delta since the previous incremental
// generation, with delta.ToTS == ts (the generation barrier makes it exact).
// Eligible stateful nodes (hash-join build sides and group-by aggregate
// tables fed by a direct base-table scan, when every activation at the node
// is so bound) skip their scan input and instead prime from the table or
// reuse their maintained state by applying the delta in place. A nil delta
// is byte-identical to the pre-incremental engine.
//
// RunGeneration returns immediately; completion is signaled via onDone.
// Generations pipeline: the caller may start generation N+1 while earlier
// generations are still draining — routing state (edge query sets, the sink
// handler) is keyed by generation, each node runs its cycles in generation
// order, and messages carry their generation tag so overlapping generations
// never observe each other's tuples. Generations must be dispatched in
// increasing gen order, and plan mutation (Prepare) still requires all
// generations to have drained. The prime/reuse decision below is likewise
// safe under pipelining: it runs at dispatch time in generation order, and
// each node applies the resulting state mutations cycle-by-cycle in that
// same order.
func (p *GlobalPlan) RunGeneration(gen, ts uint64, acts []Activation, delta *storage.Delta, onTuple func(stream int, t operators.Tuple), onDone func()) {
	p.mu.Lock()

	if len(acts) == 0 {
		p.mu.Unlock()
		onDone()
		return
	}

	var cands map[*operators.Node]*incCand
	if delta != nil || p.columnar {
		cands = incCandidates(acts)
	}
	incCycles, skipTask, skipEdge := p.decideIncremental(ts, cands, delta)
	colCycles, skipTask, skipEdge := p.decideColumnarAgg(cands, incCycles, skipTask, skipEdge)

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

	workers := p.workers
	if workers < 1 {
		workers = 1
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
	// The sink is the last node to finish a generation (every active node's
	// EOS must reach it), so by the time its cycle completes every emitter
	// has snapshotted this generation's edge sets and they can be dropped.
	done := func() {
		for _, e := range activated {
			e.ClearQueries(gen)
		}
		onDone()
	}
	p.sink.Inbox().Push(operators.Message{Ctrl: &operators.CycleStart{
		Gen: gen, TS: ts,
		ActiveProducers: activeProducers(p.sink),
		Workers:         workers,
		Columnar:        p.columnar,
		Pool:            p.workerPool,
		CostObserve:     costObserve,
		OnDone:          done,
	}})
	for n, nt := range tasks {
		switch n.Op.(type) {
		case *operators.ScanOp:
			if p.columnar {
				p.paths.ColScan++
			}
		case *operators.ProbeOp:
			if p.probeNodes[n.Name].edge {
				p.paths.IndexEdge++
			}
		}
		n.Inbox().Push(operators.Message{Ctrl: &operators.CycleStart{
			Gen: gen, TS: ts, Tasks: nt,
			ActiveProducers: activeProducers(n),
			Workers:         workers,
			Columnar:        p.columnar,
			Pool:            p.workerPool,
			CostObserve:     costObserve,
			Inc:             incCycles[n],
			Col:             colCycles[n],
		}})
	}
	p.mu.Unlock()
}

// decideIncremental picks, per stateful node, whether this generation runs
// on maintained state — and if so whether the state can be reused (delta
// applied in place) or must be reprimed from the base table. cands are the
// generation's incCandidates: a node qualifies only when EVERY activation
// touching it arrives through an incremental binding on the same scan edge;
// partial coverage falls back to the classic rebuild so shared-but-unbound
// queries still see the full build input. Returns the per-node incremental activations plus
// the scan tasks and edge memberships to suppress (the operator builds its
// own input, so the covered queries must not also stream the scan).
// Caller holds p.mu.
func (p *GlobalPlan) decideIncremental(ts uint64, cands map[*operators.Node]*incCand, delta *storage.Delta) (
	incCycles map[*operators.Node]*operators.IncCycle,
	skipTask map[*operators.Node]map[queryset.QueryID]bool,
	skipEdge map[*operators.Edge]map[queryset.QueryID]bool,
) {
	if delta == nil || len(cands) == 0 {
		return nil, nil, nil
	}

	incCycles = map[*operators.Node]*operators.IncCycle{}
	skipTask = map[*operators.Node]map[queryset.QueryID]bool{}
	skipEdge = map[*operators.Edge]map[queryset.QueryID]bool{}
	for n, c := range cands {
		// The state signature captures exactly what the maintained state
		// depends on: which queries it routes (dense per-generation QIDs),
		// which statements they instantiate, and their parameter bindings.
		// Matching signature + chained snapshot ⇒ the delta alone brings the
		// state to this generation.
		var sb strings.Builder
		for _, a := range c.acts {
			fmt.Fprintf(&sb, "%d|%d|%s;", a.qid, a.stmt, types.EncodeKey(a.params...))
		}
		sig := sb.String()

		mode := operators.IncPrime
		if st := p.inc[n]; st != nil && st.sig == sig && st.ts == delta.FromTS {
			mode = operators.IncReuse
			p.paths.IncReuse++
		}
		if p.inc == nil {
			p.inc = map[*operators.Node]*incNodeState{}
		}
		p.inc[n] = &incNodeState{sig: sig, ts: ts}

		ic := &operators.IncCycle{Mode: mode, Table: c.b.table, Preds: c.boundPreds()}
		if mode == operators.IncReuse {
			ic.Delta = delta.Table(c.b.table.Name())
		}
		incCycles[n] = ic
		c.silenceScan(skipTask, skipEdge)
	}
	return incCycles, skipTask, skipEdge
}

// incCandidates collects, per stateful node, the activations that reach it
// through an incremental binding, keeping only the nodes a cycle may feed
// from the table instead of the scan stream: EVERY activation at the node
// arrives through a binding on the same scan edge and table, and the node is
// a key-hashed hash join or a single-stream group-by. Each candidate's activations are
// sorted by query id.
func incCandidates(acts []Activation) map[*operators.Node]*incCand {
	counts := map[*operators.Node]int{}
	cands := map[*operators.Node]*incCand{}
	for _, a := range acts {
		for _, st := range a.Stmt.steps {
			counts[st.node]++
		}
		for _, b := range a.Stmt.incs {
			c := cands[b.node]
			if c == nil {
				c = &incCand{b: b, ok: true}
				cands[b.node] = c
			}
			if c.b.scanEdge != b.scanEdge || c.b.table != b.table {
				c.ok = false
			}
			c.acts = append(c.acts, incAct{qid: a.QID, stmt: a.Stmt.ID, params: a.Params, pred: b.pred})
		}
	}
	for n, c := range cands {
		eligible := c.ok && len(c.acts) == counts[n]
		switch op := c.b.op.(type) {
		case *operators.HashJoinOp:
			eligible = eligible && !op.ByQueryID
		case *operators.GroupOp:
			eligible = eligible && len(op.Streams) == 1
		default:
			eligible = false
		}
		if !eligible {
			delete(cands, n)
			continue
		}
		sort.Slice(c.acts, func(i, j int) bool { return c.acts[i].qid < c.acts[j].qid })
	}
	return cands
}

// boundPreds binds each covered activation's scan predicate to its
// parameters.
func (c *incCand) boundPreds() []operators.IncPred {
	preds := make([]operators.IncPred, len(c.acts))
	for i, a := range c.acts {
		preds[i] = operators.IncPred{QID: a.qid, Pred: expr.Bind(a.pred, a.params)}
	}
	return preds
}

// silenceScan suppresses the covered queries' scan tasks and scan-edge
// memberships: the operator builds its own input, so they must not also
// stream the scan.
func (c *incCand) silenceScan(skipTask map[*operators.Node]map[queryset.QueryID]bool, skipEdge map[*operators.Edge]map[queryset.QueryID]bool) {
	st := skipTask[c.b.scanNode]
	if st == nil {
		st = map[queryset.QueryID]bool{}
		skipTask[c.b.scanNode] = st
	}
	se := skipEdge[c.b.scanEdge]
	if se == nil {
		se = map[queryset.QueryID]bool{}
		skipEdge[c.b.scanEdge] = se
	}
	for _, a := range c.acts {
		st[a.qid] = true
		se[a.qid] = true
	}
}

// decideColumnarAgg picks, per eligible group-by node, whether this
// generation's aggregation runs as a columnar pushdown: the node feeds
// itself from the table's columnar mirror (operators.ColCycle) and the
// scan→group stream is silenced for the covered queries — the aggregation
// consumes typed vectors via the stride-kernel scan instead of materialized
// row batches. Eligibility is decideIncremental's (the same incCandidates,
// group-by nodes only), and nodes already claimed by incremental state keep
// it (maintained state supersedes a re-scan). Only
// active when the plan is in columnar mode. Caller holds p.mu.
func (p *GlobalPlan) decideColumnarAgg(cands map[*operators.Node]*incCand, incCycles map[*operators.Node]*operators.IncCycle,
	skipTask map[*operators.Node]map[queryset.QueryID]bool,
	skipEdge map[*operators.Edge]map[queryset.QueryID]bool,
) (map[*operators.Node]*operators.ColCycle,
	map[*operators.Node]map[queryset.QueryID]bool,
	map[*operators.Edge]map[queryset.QueryID]bool,
) {
	if !p.columnar {
		return nil, skipTask, skipEdge
	}
	var colCycles map[*operators.Node]*operators.ColCycle
	for n, c := range cands {
		if _, isGroup := c.b.op.(*operators.GroupOp); !isGroup || incCycles[n] != nil {
			continue
		}
		if colCycles == nil {
			colCycles = map[*operators.Node]*operators.ColCycle{}
		}
		colCycles[n] = &operators.ColCycle{Table: c.b.table, Preds: c.boundPreds()}
		p.paths.ColAgg++

		if skipTask == nil {
			skipTask = map[*operators.Node]map[queryset.QueryID]bool{}
		}
		if skipEdge == nil {
			skipEdge = map[*operators.Edge]map[queryset.QueryID]bool{}
		}
		c.silenceScan(skipTask, skipEdge)
	}
	return colCycles, skipTask, skipEdge
}
