package storage

import (
	"slices"

	"shareddb/internal/btree"
	"shareddb/internal/expr"
	"shareddb/internal/queryset"
	"shareddb/internal/types"
)

// Shared index probes (paper §4.4): "Look-ups are enqueued in the pending
// query queue which is emptied at the beginning of each cycle ... multiple
// B-Tree look-ups are used to evaluate all the select queries. Executing
// multiple look-ups in one cycle allows for better instruction and data
// cache locality."
//
// Sharing happens two ways: look-ups with identical keys collapse into one
// B-tree traversal serving all their queries, and all look-ups of a cycle
// run back-to-back over the tree.

// ProbeClient is one index look-up in a probe cycle. Either Key (equality,
// prefix semantics) or Lo/Hi (range) is set.
type ProbeClient struct {
	ID       queryset.QueryID
	Key      btree.Key
	Lo, Hi   btree.Key
	LoIncl   bool
	HiIncl   bool
	Residual expr.Expr // additional bound predicate over the table schema
}

// ProbeBuffers is the reusable per-cycle scratch of a pooled shared probe
// (one instance per probe operator node, reused across generations).
type ProbeBuffers struct {
	ids []queryset.QueryID
}

// SharedProbePooled executes one probe cycle against ix at snapshot ts. Equal
// keys across clients are deduplicated so each distinct key is traversed
// once. emit receives each visible matching row with its interested-query
// set. With caller-owned bufs the emitted sets live in bufs and are valid
// only during the emit callback, so the steady-state probe cycle allocates
// no per-row id slices (callers that retain a set must copy it); with
// bufs == nil every emitted set is freshly allocated.
//
// Traversals run through the locked helpers (IndexSeekAt / IndexScanAt):
// pipelined generations let later generations' writes land while this
// probe cycle runs, so trees and version chains cannot be walked lock-free.
// Visibility is at the fixed snapshot ts, so per-traversal locking is
// equivalent to holding the lock for the whole cycle.
func (t *Table) SharedProbePooled(ts uint64, ix *Index, clients []ProbeClient, bufs *ProbeBuffers, emit func(rid RowID, row types.Row, qs queryset.Set)) {
	if len(clients) == 0 {
		return
	}
	// Group equality clients by key; ranges handled per client.
	type group struct {
		key     btree.Key
		clients []ProbeClient
	}
	groups := map[string]*group{}
	var rangeClients []ProbeClient
	for _, c := range clients {
		if c.Key != nil {
			k := types.EncodeKey(c.Key...)
			g := groups[k]
			if g == nil {
				g = &group{key: c.Key}
				groups[k] = g
			}
			g.clients = append(g.clients, c)
		} else {
			rangeClients = append(rangeClients, c)
		}
	}

	var buf []queryset.QueryID
	if bufs != nil {
		buf = bufs.ids[:0]
	}
	// borrow materializes buf as the emitted set: pooled probes hand out the
	// scratch directly (valid during emit only), unpooled ones copy.
	borrow := func() queryset.Set {
		if bufs != nil {
			bufs.ids = buf
			slices.Sort(buf)
			return queryset.FromSorted(buf)
		}
		return queryset.Of(buf...)
	}
	for _, g := range groups {
		g := g
		t.IndexSeekAt(ix, g.key, ts, func(rid RowID, row types.Row) bool {
			buf = buf[:0]
			for _, c := range g.clients {
				if expr.TruthyEval(c.Residual, row, nil) {
					buf = append(buf, c.ID)
				}
			}
			if len(buf) > 0 {
				emit(rid, row, borrow())
			}
			return true
		})
	}

	for _, c := range rangeClients {
		c := c
		t.IndexScanAt(ix, c.Lo, c.Hi, c.LoIncl, c.HiIncl, ts, func(rid RowID, row types.Row) bool {
			if expr.TruthyEval(c.Residual, row, nil) {
				if bufs != nil {
					buf = append(buf[:0], c.ID)
					emit(rid, row, borrow())
				} else {
					emit(rid, row, queryset.Single(c.ID))
				}
			}
			return true
		})
	}
}
