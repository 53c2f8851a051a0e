package operators

import (
	"slices"
	"sync"

	"shareddb/internal/expr"
	"shareddb/internal/queryset"
)

// FilterOp applies per-query predicates that could not be pushed into a
// storage access path — the "Like Expression", "Disjunction" and "Filter"
// boxes of the paper's TPC-W global plan (Figure 6). Each tuple is tested
// once per subscribed query (the predicate differs per query; only the
// tuple flow is shared), and its query set is narrowed to the survivors.
// Filters are streaming: schemas pass through unchanged. The narrowed
// query set is computed into a reusable operator scratch (the emitter
// copies the survivors into its batch arena), so the per-tuple filter path
// allocates nothing in steady state.
type FilterOp struct {
	qsScratch []queryset.QueryID
	preds     []expr.Expr // the cycle's predicates, dense by generation-scoped query id
}

// FilterSpec is the per-query activation: the bound predicate over the
// schema of the stream this query's tuples arrive on.
type FilterSpec struct {
	Pred expr.Expr
}

// Start indexes the cycle's predicates by query.
func (f *FilterOp) Start(c *Cycle) {
	f.preds = denseExprs(f.preds, c.Tasks, func(spec interface{}) expr.Expr {
		s, _ := spec.(FilterSpec)
		return s.Pred
	})
}

// Consume narrows each tuple's query set to the queries whose predicate it
// satisfies.
func (f *FilterOp) Consume(c *Cycle, b *Batch) {
	for ti := range b.Tuples {
		t := &b.Tuples[ti]
		qs := t.QS.RetainInto(func(q queryset.QueryID) bool {
			if int(q) >= len(f.preds) {
				return true // query not registered here: pass through
			}
			return expr.TruthyEval(f.preds[q], t.Row, nil)
		}, f.qsScratch)
		f.qsScratch = qs.IDs()
		if !qs.Empty() {
			c.Emit(b.Stream, t.Row, qs)
		}
	}
}

// Finish releases cycle state.
func (f *FilterOp) Finish(*Cycle) { clear(f.preds) }

// SinkOp terminates the dataflow: it hands result tuples to the engine,
// which applies per-query projection and delivers rows to waiting clients.
// Handlers are keyed by generation — with pipelined execution the engine
// registers generation N+1's callback while the sink is still draining
// generation N — and are released when the generation's sink cycle ends.
type SinkOp struct {
	mu       sync.Mutex
	handlers map[uint64]func(stream int, t Tuple)
}

// SetHandler installs the tuple callback for generation gen. It must be
// called before the generation's CycleStart is pushed to the sink node.
func (s *SinkOp) SetHandler(gen uint64, fn func(stream int, t Tuple)) {
	s.mu.Lock()
	if s.handlers == nil {
		s.handlers = map[uint64]func(stream int, t Tuple){}
	}
	s.handlers[gen] = fn
	s.mu.Unlock()
}

// Start begins a sink cycle.
func (s *SinkOp) Start(*Cycle) {}

// Consume forwards tuples to the engine callback of the cycle's generation.
func (s *SinkOp) Consume(c *Cycle, b *Batch) {
	s.mu.Lock()
	fn := s.handlers[c.Gen]
	s.mu.Unlock()
	if fn == nil {
		return
	}
	for _, t := range b.Tuples {
		fn(b.Stream, t)
	}
}

// Finish releases the generation's handler; the node's OnDone callback (set
// in CycleStart) signals the engine afterwards.
func (s *SinkOp) Finish(c *Cycle) {
	s.mu.Lock()
	delete(s.handlers, c.Gen)
	s.mu.Unlock()
}

// denseExprs builds a dense query-id-indexed slice from per-task specs,
// reusing dst's backing array (the operator keeps it across cycles).
// Generation-scoped query ids are small consecutive integers, so slice
// indexing replaces map lookups on the per-tuple hot path.
func denseExprs(dst []expr.Expr, tasks []Task, get func(spec interface{}) expr.Expr) []expr.Expr {
	out := zeroed(dst, maxQuery(tasks)+1)
	for _, t := range tasks {
		out[t.Query] = get(t.Spec)
	}
	return out
}

// maxQuery returns the largest query id among tasks (0 when there are none):
// the dense per-query slices of a cycle are sized to it.
func maxQuery(tasks []Task) int {
	maxID := queryset.QueryID(0)
	for _, t := range tasks {
		if t.Query > maxID {
			maxID = t.Query
		}
	}
	return int(maxID)
}

// zeroed returns s zeroed at length n, reusing its backing array.
func zeroed[T any](s []T, n int) []T {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}
