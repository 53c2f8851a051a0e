package operators

import (
	"sync"
	"time"

	"shareddb/internal/queryset"
	"shareddb/internal/types"
)

// Node is one always-on operator in the global query plan. Each node owns a
// goroutine (the paper pins each operator to a CPU core with hard affinity;
// a long-lived goroutine is this implementation's substitute) and an
// unbounded incoming message queue. Nodes are connected by Edges.
//
// A node executes one generation cycle at a time, in generation order.
// Pipelining across generations happens between nodes: while this node is
// still draining generation N, an upstream node that finished N may already
// be producing generation N+1 — those messages (and the next CycleStart)
// are queued and handled once the current cycle completes.
type Node struct {
	ID        int
	Name      string
	Op        Operator
	Consumers []*Edge // outgoing edges, set during plan construction
	Producers []*Edge // incoming edges

	inbox *SyncedQueue
	wg    sync.WaitGroup

	// pool recycles batch buffers across this node's cycles; shared per
	// global plan (nil = allocate, for hand-built test nodes).
	pool *BatchPool
	// em and cycle are the node's reusable emitter and cycle context (one
	// cycle at a time per node).
	em    emitter
	cycle Cycle
}

// Edge connects a producer node to a consumer node. Query routing state is
// kept per generation: with pipelined execution several generations are in
// flight at once, so the coordinator installs the query set for generation
// G while earlier generations may still be traversing the edge. Producers
// snapshot their consumer edges' sets for their own generation at cycle
// start; the coordinator clears a generation's entries once its sink
// drains.
type Edge struct {
	From, To *Node

	mu      sync.RWMutex
	queries map[uint64]queryset.Set // generation → active query set
}

// SetQueries installs the active query set for generation gen.
func (e *Edge) SetQueries(gen uint64, qs queryset.Set) {
	e.mu.Lock()
	if e.queries == nil {
		e.queries = map[uint64]queryset.Set{}
	}
	e.queries[gen] = qs
	e.mu.Unlock()
}

// QueriesFor returns the edge's active query set for generation gen (the
// empty set if the edge serves no queries that generation).
func (e *Edge) QueriesFor(gen uint64) queryset.Set {
	e.mu.RLock()
	qs := e.queries[gen]
	e.mu.RUnlock()
	return qs
}

// ClearQueries drops generation gen's routing state once the generation has
// fully drained.
func (e *Edge) ClearQueries(gen uint64) {
	e.mu.Lock()
	delete(e.queries, gen)
	e.mu.Unlock()
}

// NewNode creates a node with the given operator behavior.
func NewNode(id int, name string, op Operator) *Node {
	return &Node{ID: id, Name: name, Op: op, inbox: NewSyncedQueue()}
}

// SetPool attaches the plan-wide batch free list. Must be set before Start;
// nodes without a pool allocate batches normally.
func (n *Node) SetPool(p *BatchPool) { n.pool = p }

// newEmitter builds a fresh emitter for one cycle (test entry point; the
// node's run loop reuses n.em via reset).
func newEmitter(n *Node, gen uint64) *emitter {
	e := &emitter{}
	e.reset(n, gen)
	return e
}

// Message is the unit of communication between nodes.
type Message struct {
	Gen   uint64
	Edge  *Edge
	Batch *Batch
	EOS   bool
	Ctrl  *CycleStart
}

// Connect wires an edge from producer to consumer and registers it on both.
func Connect(from, to *Node) *Edge {
	e := &Edge{From: from, To: to}
	from.Consumers = append(from.Consumers, e)
	to.Producers = append(to.Producers, e)
	return e
}

// CycleStart activates a node for one generation.
type CycleStart struct {
	Gen             uint64
	TS              uint64 // storage snapshot for this generation
	Tasks           []Task // per-query activations at this node
	ActiveProducers int    // producer edges that will send EOS this cycle
	OnDone          func() // optional completion callback (used by sinks)

	// Rows is the generation's row arena: Cycle.NewRow draws the rows this
	// cycle builds from it (nil = allocate them, for hand-built test nodes).
	Rows *RowArena

	// CostObserve, when non-nil, receives the cycle's operator-active
	// nanoseconds (time inside Start/Consume/EdgeEOS/Finish, excluding inbox
	// waits) once the cycle drains — the engine's per-statement cost
	// attribution hook. Called on the node goroutine after Finish but before
	// the cycle's EOS propagates downstream, so every node's report
	// happens-before the generation's sink OnDone.
	CostObserve func(tasks []Task, activeNs int64)
}

// Task is one active query's registration at a node for one generation.
// Spec carries the operator-specific bound configuration (e.g. a scan
// predicate with parameters substituted).
type Task struct {
	Query queryset.QueryID
	Spec  interface{}
}

// Cycle is the per-generation execution context handed to the operator.
type Cycle struct {
	Gen   uint64
	TS    uint64
	Tasks []Task

	node *Node
	em   *emitter

	// rows is the generation's arena and rowChunk the unused tail of the
	// chunk this cycle is filling (see NewRow).
	rows     *RowArena
	rowChunk []types.Value

	// opState carries operator-private per-cycle state (a node executes at
	// most one cycle at a time, so a single slot suffices).
	opState interface{}

	// retained collects input batches an operator kept references into past
	// Consume (blocking operators buffering tuples); the node recycles them
	// once the cycle's Finish phase has drained.
	retained []*Batch
}

// Emit routes a result tuple to all interested consumers.
func (c *Cycle) Emit(stream int, row types.Row, qs queryset.Set) {
	c.em.emit(stream, row, qs)
}

// Retain marks an input batch as referenced beyond Consume (the operator
// buffered its tuples or their query sets). The node keeps the batch alive
// until the cycle's Finish phase completes instead of recycling it right
// after Consume returns. Idempotent within a cycle.
func (c *Cycle) Retain(b *Batch) {
	if b == nil || b.retained {
		return
	}
	b.retained = true
	c.retained = append(c.retained, b)
}

// Operator is the behavior of a shared operator, mirroring Algorithm 1:
// Start activates the cycle's queries, Consume is ProcessTuple over one
// incoming vector, Finish runs after end-of-stream from every active
// producer (where blocking operators such as sort emit their output).
type Operator interface {
	Start(c *Cycle)
	Consume(c *Cycle, b *Batch)
	Finish(c *Cycle)
}

// EOSAware operators (e.g. hash joins) are told when an individual producer
// edge reaches end-of-stream, so they can switch phases before the whole
// cycle ends (build → probe).
type EOSAware interface {
	EdgeEOS(c *Cycle, e *Edge)
}

// Start launches the node's goroutine.
func (n *Node) Start() {
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		n.run()
	}()
}

// Stop closes the inbox and waits for the goroutine to exit. Pending work is
// abandoned; Stop is for shutdown, not generation control.
func (n *Node) Stop() {
	n.inbox.Close()
	n.wg.Wait()
}

// Inbox exposes the node's queue (the coordinator pushes CycleStart
// messages; producers push data).
func (n *Node) Inbox() *SyncedQueue { return n.inbox }

// run is the outer loop: wait for a generation activation, execute the
// cycle, repeat. With pipelined generations both data and CycleStart
// messages can overtake a node's current cycle (fast producers are already
// emitting generation N+1 while this node drains N), so out-of-cycle data
// is stashed and replayed when the matching activation runs, and queued
// CycleStarts execute in generation order once the current cycle ends.
func (n *Node) run() {
	var stash []Message
	var starts []*CycleStart
	for {
		if len(starts) == 0 {
			msg, ok := n.inbox.Pop()
			if !ok {
				return
			}
			if msg.Ctrl != nil {
				starts = append(starts, msg.Ctrl)
			} else {
				stash = append(stash, msg)
			}
			continue
		}
		// Run the oldest queued generation next (the coordinator dispatches
		// in order, but keep this robust to arrival reordering).
		mi := 0
		for i, cs := range starts {
			if cs.Gen < starts[mi].Gen {
				mi = i
			}
		}
		cs := starts[mi]
		starts = append(starts[:mi], starts[mi+1:]...)
		var ok bool
		stash, starts, ok = n.runCycle(cs, stash, starts)
		if !ok {
			return
		}
	}
}

// runCycle executes one generation at this node (the body of Algorithm 1's
// outer while-loop). It consumes stashed early-arrival messages first and
// returns messages and cycle starts belonging to future generations; ok is
// false when the inbox closed mid-cycle (shutdown).
func (n *Node) runCycle(cs *CycleStart, stash []Message, starts []*CycleStart) (future []Message, nextStarts []*CycleStart, ok bool) {
	n.em.reset(n, cs.Gen)
	c := &n.cycle
	*c = Cycle{Gen: cs.Gen, TS: cs.TS, Tasks: cs.Tasks, node: n, em: &n.em, rows: cs.Rows, retained: c.retained[:0]}

	// activeNs accumulates operator-busy time for the engine's per-statement
	// cost attribution; timing only runs when someone is observing.
	var activeNs int64
	timed := cs.CostObserve != nil
	run := func(f func()) {
		if !timed {
			f()
			return
		}
		t0 := time.Now()
		f()
		activeNs += time.Since(t0).Nanoseconds()
	}

	run(func() { n.Op.Start(c) })
	remaining := cs.ActiveProducers

	handle := func(msg Message) {
		if msg.Gen != cs.Gen {
			if msg.Gen > cs.Gen {
				future = append(future, msg)
			}
			return // older generations are dead; drop
		}
		if msg.EOS {
			remaining--
			if ea, aware := n.Op.(EOSAware); aware {
				run(func() { ea.EdgeEOS(c, msg.Edge) })
			}
			return
		}
		if msg.Batch != nil {
			run(func() { n.Op.Consume(c, msg.Batch) })
			// Recycle the batch unless the operator kept references into it
			// (c.Retain); retained batches are released after Finish.
			if !msg.Batch.retained {
				n.pool.Put(msg.Batch)
			}
		}
	}

	for _, msg := range stash {
		handle(msg)
	}
	for remaining > 0 {
		msg, popped := n.inbox.Pop()
		if !popped {
			return future, starts, false
		}
		if msg.Ctrl != nil {
			// Next generation's activation arrived while this cycle is still
			// draining: queue it for after the current cycle.
			starts = append(starts, msg.Ctrl)
			continue
		}
		handle(msg)
	}
	run(func() { n.Op.Finish(c) })
	// Report cost BEFORE propagating EOS: downstream cycles (ultimately the
	// sink's OnDone) only complete after every producer's EOS, so observing
	// first guarantees all attribution lands before the generation's
	// completion callback reads it.
	if timed {
		cs.CostObserve(cs.Tasks, activeNs)
	}
	c.em.flushEOS()
	// The generation has drained through this node: every batch the
	// operator buffered is now dead (emission copied the surviving query
	// sets into downstream batches) and returns to the pool.
	for _, b := range c.retained {
		n.pool.Put(b)
	}
	clear(c.retained)
	if cs.OnDone != nil {
		cs.OnDone()
	}
	return future, starts, true
}
