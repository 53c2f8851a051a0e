package operators

import (
	"shareddb/internal/btree"
	"shareddb/internal/expr"
	"shareddb/internal/queryset"
	"shareddb/internal/storage"
	"shareddb/internal/types"
)

// ScanOp is a shared table scan source: one ClockScan cycle per generation
// answers all queries reading the table (paper §3.4 / §4.4). It has no
// producers; all work happens in Start. The scan's query index, bitmaps and
// query-id scratch (bufs) are reused across generations (one cycle at a
// time per node), so a steady-state scan cycle allocates nothing per row.
type ScanOp struct {
	Table     *storage.Table
	OutStream int

	bufs    storage.ColScanBuffers
	clients []storage.ScanClient
}

// ScanSpec is the per-query activation of a scan: the bound (parameter-
// substituted) predicate. Nil selects all rows.
type ScanSpec struct {
	Pred expr.Expr
}

// Start runs the shared scan for the cycle's queries over the table's
// columnar mirror (storage.SharedScan), one serial pass in row order on
// this node's goroutine.
func (s *ScanOp) Start(c *Cycle) {
	s.clients = s.clients[:0]
	for _, t := range c.Tasks {
		spec, _ := t.Spec.(ScanSpec)
		s.clients = append(s.clients, storage.ScanClient{ID: t.Query, Pred: spec.Pred})
	}
	emit := func(_ storage.RowID, row types.Row, qs queryset.Set) {
		c.Emit(s.OutStream, row, qs)
	}
	s.Table.SharedScan(c.TS, s.clients, &s.bufs, emit)
	clear(s.clients)
	s.clients = s.clients[:0]
}

// Consume is never called: scans have no producers.
func (s *ScanOp) Consume(*Cycle, *Batch) {}

// Finish completes the cycle (output was emitted in Start).
func (s *ScanOp) Finish(*Cycle) {}

// ProbeOp is a shared index-probe source (paper §4.4): all look-ups of a
// generation run back-to-back against one index, with identical keys
// deduplicated by the storage layer.
type ProbeOp struct {
	Table     *storage.Table
	Index     *storage.Index
	OutStream int

	bufs    storage.ProbeBuffers
	clients []storage.ProbeClient
}

// ProbeSpec is the per-query activation of an index probe. Key (equality,
// prefix semantics) or Lo/Hi (range) select the entries; Residual filters
// fetched rows. With Edge set the probe yields only the row a scalar MIN or
// MAX over the index column after Key would select (storage.ProbeClient).
type ProbeSpec struct {
	Key      btree.Key
	Lo, Hi   btree.Key
	LoIncl   bool
	HiIncl   bool
	Edge     storage.EdgeKind
	Residual expr.Expr
}

// Start runs the shared probe cycle (reusable client list and borrowed
// query sets: the emitter copies survivors into its batch arena).
func (p *ProbeOp) Start(c *Cycle) {
	p.clients = p.clients[:0]
	for _, t := range c.Tasks {
		spec, _ := t.Spec.(ProbeSpec)
		p.clients = append(p.clients, storage.ProbeClient{
			ID: t.Query, Key: spec.Key,
			Lo: spec.Lo, Hi: spec.Hi, LoIncl: spec.LoIncl, HiIncl: spec.HiIncl,
			Edge: spec.Edge, Residual: spec.Residual,
		})
	}
	p.Table.SharedProbePooled(c.TS, p.Index, p.clients, &p.bufs, func(_ storage.RowID, row types.Row, qs queryset.Set) {
		c.Emit(p.OutStream, row, qs)
	})
	clear(p.clients)
	p.clients = p.clients[:0]
}

// Consume is never called: probes have no producers.
func (p *ProbeOp) Consume(*Cycle, *Batch) {}

// Finish completes the cycle.
func (p *ProbeOp) Finish(*Cycle) {}
