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

// EdgeKind selects an index-edge look-up: instead of every row under a key,
// the one row a scalar MIN or MAX over the next index column would select.
type EdgeKind uint8

// Edge kinds. EdgeNone is an ordinary equality or range look-up.
const (
	EdgeNone EdgeKind = iota
	EdgeMin
	EdgeMax
)

// ProbeClient is one index look-up in a probe cycle. Either Key (equality,
// prefix semantics) or Lo/Hi (range) is set; with Edge set, Key is the
// (possibly empty) equality prefix and the look-up yields at most the one
// row Locked.IndexEdgeAt selects.
type ProbeClient struct {
	ID       queryset.QueryID
	Key      btree.Key
	Lo, Hi   btree.Key
	LoIncl   bool
	HiIncl   bool
	Edge     EdgeKind
	Residual expr.Expr // additional bound predicate over the table schema
}

// ProbeBuffers is the reusable per-cycle scratch of a pooled shared probe
// (one instance per probe operator node, reused across generations).
type ProbeBuffers struct {
	ids   []queryset.QueryID
	order []int32 // equality clients, sorted by key
}

// compareProbeKeys orders equality look-up keys: column by column, a shorter
// key before the longer keys it is a prefix of (those are different
// look-ups, though btree.CompareKeys calls them equal).
func compareProbeKeys(a, b btree.Key) int {
	if d := btree.CompareKeys(a, b); d != 0 {
		return d
	}
	return len(a) - len(b)
}

// SharedProbePooled executes one probe cycle against ix at snapshot ts. Equal
// keys across clients are deduplicated so each distinct key is traversed
// once, and the distinct keys are traversed in ascending order — consecutive
// look-ups touch neighbouring leaves, and the emission order is the same on
// every run. Within one key rows arrive in index order; range and edge
// clients follow, in client order. emit receives each visible matching row
// with its interested-query set; the set lives in bufs and is valid only
// during the callback (callers that retain it must copy it), so with
// caller-owned bufs the steady-state probe cycle allocates nothing. A nil
// bufs is a throwaway one.
//
// The table read lock is held for the whole cycle: pipelined generations let
// later generations' writes land while it runs, so trees and version chains
// cannot be walked lock-free. emit must not call back into the table's
// locking methods.
func (t *Table) SharedProbePooled(ts uint64, ix *Index, clients []ProbeClient, bufs *ProbeBuffers, emit func(rid RowID, row types.Row, qs queryset.Set)) {
	if len(clients) == 0 {
		return
	}
	if bufs == nil {
		bufs = &ProbeBuffers{}
	}
	order := bufs.order[:0]
	for i := range clients {
		if c := &clients[i]; c.Edge == EdgeNone && c.Key != nil {
			order = append(order, int32(i))
		}
	}
	slices.SortFunc(order, func(a, b int32) int { return compareProbeKeys(clients[a].Key, clients[b].Key) })
	bufs.order = order

	l := t.RLock()
	defer l.Unlock()

	// Equality clients, one traversal per run of equal keys; route emits
	// the run's interested clients as a set sorted by id.
	var group []int32
	route := func(rid RowID, row types.Row) bool {
		ids := bufs.ids[:0]
		for _, ci := range group {
			if c := &clients[ci]; expr.TruthyEval(c.Residual, row, nil) {
				ids = append(ids, c.ID)
			}
		}
		bufs.ids = ids
		if len(ids) > 0 {
			slices.Sort(ids)
			emit(rid, row, queryset.FromSorted(ids))
		}
		return true
	}
	cur := l.IndexCursor(ix, ts)
	for lo := 0; lo < len(order); {
		key := clients[order[lo]].Key
		hi := lo + 1
		for hi < len(order) && compareProbeKeys(key, clients[order[hi]].Key) == 0 {
			hi++
		}
		group = order[lo:hi]
		cur.Seek(key, route)
		lo = hi
	}

	var one [1]int32
	group = one[:]
	for i := range clients {
		c := &clients[i]
		one[0] = int32(i)
		switch {
		case c.Edge != EdgeNone:
			if rid, row, ok := l.IndexEdgeAt(ix, c.Key, c.Edge == EdgeMax, ts, c.Residual); ok {
				route(rid, row)
			}
		case c.Key == nil:
			l.IndexScanAt(ix, c.Lo, c.Hi, c.LoIncl, c.HiIncl, ts, route)
		}
	}
}
