package operators

import (
	"shareddb/internal/expr"
	"shareddb/internal/queryset"
	"shareddb/internal/storage"
	"shareddb/internal/types"
)

// Incremental node state (the "NodeState" lifecycle): a stateful operator
// whose input is a direct base-table scan does not rebuild its hash table
// from the scan stream every cycle. Instead the state becomes persistent, owned by the plan node
// across generations, and each cycle either primes it (one table scan at
// the cycle's snapshot, performed by the operator itself so RowIDs are
// known) or reuses it by applying the generation's write delta in place —
// insert/retract against the same open-addressed tables the rebuild path
// uses.
//
// The plan decides prime vs reuse per generation (activate.go): reuse
// requires that the covered queries and their parameters are unchanged
// since the state was last brought up to date AND that the delta's FromTS
// chains exactly onto the state's snapshot. Either way the plan silences
// the scan→operator edge for the covered queries, so the node's cycle sees
// no producer traffic and goes straight to Finish.
//
// Ordering contract: a primed table inserts rows in ascending RowID order —
// the same order the shared ClockScan delivers them — and delta maintenance
// preserves per-key RowID order, so probe emission (joins) and group
// first-arrival emission (group-by) are byte-identical to a serial rebuild.

// IncMode selects how the cycle brings the node state up to date.
type IncMode uint8

// Incremental cycle modes.
const (
	// IncPrime (re)builds the state from a table scan at the cycle's
	// snapshot.
	IncPrime IncMode = iota + 1
	// IncReuse applies the generation's write delta to state already
	// current as of Delta.FromTS.
	IncReuse
)

// IncPred is one covered query's bound scan predicate (nil = every row),
// re-evaluated against delta rows to route insertions and retractions.
type IncPred struct {
	QID  queryset.QueryID
	Pred expr.Expr
}

// IncCycle is the incremental-state activation attached to a CycleStart.
// Preds are sorted by QID ascending. Delta is the table's slice of the
// generation write delta (reuse mode; nil or empty = read-only generation).
type IncCycle struct {
	Mode  IncMode
	Table *storage.Table
	Preds []IncPred
	Delta *storage.TableDelta
}

// ColCycle is the columnar-aggregation activation attached to a CycleStart
// (the aggregation pushdown of the columnar data path): the group-by node
// feeds itself from the table's columnar mirror (storage.SharedScanColumnar)
// instead of consuming the scan→group stream, which the plan silences for
// the covered queries. Preds are sorted by QID ascending, one bound scan
// predicate per covered query — exactly the clients the shared scan node
// would have served. The scan emits in RowID order and the operator absorbs
// serially in that order, so the resulting aggregate state (and Finish
// emission) is byte-identical to the row path.
type ColCycle struct {
	Table *storage.Table
	Preds []IncPred
}

// evalIncPreds routes one table row to the covered queries whose predicate
// it satisfies. Preds are QID-sorted, so the result assembles pre-sorted
// (queryset.Of's copy-only fast path). Returns the set and the reusable
// scratch slice.
func evalIncPreds(preds []IncPred, row types.Row, scratch []queryset.QueryID) (queryset.Set, []queryset.QueryID) {
	scratch = scratch[:0]
	for _, p := range preds {
		if expr.TruthyEval(p.Pred, row, nil) {
			scratch = append(scratch, p.QID)
		}
	}
	if len(scratch) == 0 {
		return queryset.Set{}, scratch
	}
	return queryset.Of(scratch...), scratch
}
