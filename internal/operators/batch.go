// Package operators implements SharedDB's shared, always-on database
// operators (paper §3.3, §3.4, §4.2). Every operator follows the skeleton of
// Algorithm 1: it dequeues the pending queries of one batch generation,
// consumes the tuples produced for those queries by its input operators,
// processes them once for all subscribed queries (the data-query model), and
// pushes results to its consumers.
//
// Tuples flow in vectors (batches) "following a vector model of execution
// for better instruction cache locality" (§3.2). Because a shared operator
// can serve queries whose inputs come from different places in the global
// plan (e.g. the shared sort of Figure 2 sorts both join output for Q4 and
// bare Items tuples for Q5), batches are tagged with a stream identifier and
// operators hold per-stream configuration (schemas, key extractors).
//
// Memory discipline (README "Memory discipline"): batches and the query-id
// arenas backing their tuples' sets are pooled (BatchPool) and recycled
// along generation-drain boundaries, so the steady-state heartbeat cycle
// performs no per-tuple heap allocation on the routing path.
package operators

import (
	"shareddb/internal/queryset"
	"shareddb/internal/types"
)

// Tuple is one row in the data-query model: the row plus the set of queries
// potentially interested in it (paper §3.1, Figure 1).
type Tuple struct {
	Row types.Row
	QS  queryset.Set
}

// Batch is a vector of tuples from one stream. All tuples of a batch share
// the stream's schema. Pooled batches own the arena their tuples' query
// sets live in: tuples and sets die together when the batch is recycled.
type Batch struct {
	Stream int
	Tuples []Tuple

	arena    queryset.Arena // backs the Tuples' query sets (pooled batches)
	pooled   bool           // born from a BatchPool: eligible for recycling
	retained bool           // consumer kept references past Consume (released after Finish)
}

// reset clears the batch for reuse, dropping row references so the pooled
// buffer does not pin row memory.
func (b *Batch) reset() {
	clear(b.Tuples)
	b.Tuples = b.Tuples[:0]
	b.arena.Reset()
	b.retained = false
}

// batchSize is the target vector length.
const batchSize = 1024

// emitter accumulates tuples per (consumer edge, stream) and flushes them as
// batches, applying query-set routing: each consumer receives a tuple only
// if the tuple's query set intersects the queries the consumer serves this
// generation, and the delivered set is restricted to that intersection.
//
// Edge query sets are per generation and snapshotted at cycle start: with
// pipelined execution the coordinator installs future generations' sets
// while this node is mid-cycle, and downstream nodes may still be draining
// older generations.
//
// The emitter is reused across a node's cycles (a node runs one cycle at a
// time), and its batches come from the plan's BatchPool: the intersection
// routing a tuple to an edge is computed directly into the target batch's
// id arena, so steady-state emission allocates nothing.
type emitter struct {
	node *Node
	gen  uint64
	// edgeQueries is the cycle-start snapshot of each consumer edge's
	// active query set for this emitter's generation.
	edgeQueries []queryset.Set
	// buffered batches per consumer edge index, keyed by stream
	bufs []map[int]*Batch
	// last caches, per consumer edge, the bufs entry of the stream emitted
	// last: an operator emits runs of one stream, so the per-tuple path
	// skips the map.
	last []openBatch
}

// openBatch is one cached bufs entry (b == nil: no batch open for stream).
type openBatch struct {
	stream int
	b      *Batch
}

// reset prepares the node's reusable emitter for a new cycle.
func (e *emitter) reset(n *Node, gen uint64) {
	e.node = n
	e.gen = gen
	for len(e.bufs) < len(n.Consumers) {
		e.bufs = append(e.bufs, map[int]*Batch{})
		e.last = append(e.last, openBatch{})
	}
	e.edgeQueries = e.edgeQueries[:0]
	for _, edge := range n.Consumers {
		e.edgeQueries = append(e.edgeQueries, edge.QueriesFor(gen))
	}
}

// emit routes one tuple to every interested consumer.
func (e *emitter) emit(stream int, row types.Row, qs queryset.Set) {
	for i, edge := range e.node.Consumers {
		if i >= len(e.edgeQueries) {
			break // edge added after cycle start: not active this cycle
		}
		eq := e.edgeQueries[i]
		if eq.Empty() {
			continue
		}
		last := &e.last[i]
		if last.stream != stream {
			*last = openBatch{stream: stream, b: e.bufs[i][stream]}
		}
		b := last.b
		if b == nil {
			if !qs.Intersects(eq) {
				continue
			}
			b = e.node.pool.Get(stream)
			e.bufs[i][stream], last.b = b, b
		}
		sub := b.arena.Intersect(qs, eq)
		if sub.Empty() {
			continue
		}
		b.Tuples = append(b.Tuples, Tuple{Row: row, QS: sub})
		if len(b.Tuples) >= batchSize {
			edge.To.inbox.Push(Message{Gen: e.gen, Edge: edge, Batch: b})
			e.bufs[i][stream], last.b = nil, nil
		}
	}
}

// flushEOS flushes all pending batches and sends end-of-stream on every
// *active* consumer edge (SendEndOfStream in Algorithm 1). Edges serving no
// queries this generation belong to consumers that may not be running a
// cycle; they receive nothing.
func (e *emitter) flushEOS() {
	for i, edge := range e.node.Consumers {
		if i >= len(e.edgeQueries) || e.edgeQueries[i].Empty() {
			continue
		}
		for s, b := range e.bufs[i] {
			if b != nil {
				if len(b.Tuples) > 0 {
					edge.To.inbox.Push(Message{Gen: e.gen, Edge: edge, Batch: b})
				} else {
					e.node.pool.Put(b)
				}
				delete(e.bufs[i], s)
			}
		}
		e.last[i].b = nil
		edge.To.inbox.Push(Message{Gen: e.gen, Edge: edge, EOS: true})
	}
}
