// Package shard implements horizontal scale-out for the SharedDB engine:
// N shard engines, each owning a hash partition (on primary key) of every
// table and running its own always-on global plan and generation loop,
// behind a Router that speaks the same Executor API as a single engine.
//
// Point writes and reads whose predicates pin a full primary key go to the
// owning shard and pass results through untouched; everything else
// scatters to all shards and gathers through deterministic merges: k-way
// ordered merge for ORDER BY (ties keep shard order, LIMIT re-cut),
// partial-aggregate recombination for GROUP BY (SUM/COUNT/MIN/MAX summed,
// AVG from sum+count pairs, DISTINCT aggregates from cross-shard-merged
// value sets), and concatenation in shard order otherwise. The per-shard
// statement rewrites and merge recipes are compiled once at prepare time
// by sql.PlanShards.
package shard

import (
	"sort"

	"shareddb/internal/expr"
	"shareddb/internal/operators"
	"shareddb/internal/sql"
	"shareddb/internal/types"
)

// MergeResults recombines per-shard result sets according to spec.
// shardRows[i] is shard i's rows in that shard's emission order (sorted for
// ordered statements). The returned rows may alias the input rows, but
// neither shardRows nor any row in it is modified: identical reads fold on
// each shard, so several gathers can merge the same per-shard rows at once.
func MergeResults(shardRows [][]types.Row, spec *sql.MergeSpec, params []types.Value) []types.Row {
	switch spec.Kind {
	case sql.MergeOrdered:
		return mergeOrdered(shardRows, spec)
	case sql.MergeGrouped:
		return mergeGrouped(shardRows, spec, params)
	default:
		return mergeConcat(shardRows, spec)
	}
}

// mergeConcat concatenates in shard order, dedups when the statement is
// SELECT DISTINCT (per-shard dedup already removed intra-shard duplicates)
// and re-cuts LIMIT. LIMIT counts post-DISTINCT rows, mirroring the
// engine's sink.
func mergeConcat(shardRows [][]types.Row, spec *sql.MergeSpec) []types.Row {
	total := 0
	for _, rows := range shardRows {
		total += len(rows)
	}
	out := make([]types.Row, 0, total)
	for _, rows := range shardRows {
		out = append(out, rows...)
	}
	if spec.Distinct {
		out = dedupRows(out)
	}
	if spec.Limit >= 0 && len(out) > spec.Limit {
		out = out[:spec.Limit]
	}
	return out
}

// mergeOrdered k-way merges the per-shard streams on the statement's sort
// key columns; ties keep shard order, making the merge deterministic. The
// LIMIT re-cut happens before the appended key columns are stripped and
// before DISTINCT, mirroring the single-engine pipeline (the shared sort
// cuts Top-N before projection and dedup).
func mergeOrdered(shardRows [][]types.Row, spec *sql.MergeSpec) []types.Row {
	total := 0
	heads := make([]int, len(shardRows))
	for _, rows := range shardRows {
		total += len(rows)
	}
	out := make([]types.Row, 0, total)
	for len(out) < total {
		best := -1
		for s, rows := range shardRows {
			if heads[s] >= len(rows) {
				continue
			}
			if best < 0 || orderedLess(rows[heads[s]], shardRows[best][heads[best]], spec) {
				best = s
			}
		}
		out = append(out, shardRows[best][heads[best]])
		heads[best]++
		if spec.Limit >= 0 && len(out) == spec.Limit {
			break
		}
	}
	if spec.Strip > 0 {
		for i, r := range out {
			out[i] = r[:len(r)-spec.Strip]
		}
	}
	if spec.Distinct {
		out = dedupRows(out)
	}
	return out
}

// orderedLess compares two rows on the merge's sort columns (strict less;
// equal rows keep the earlier shard).
func orderedLess(a, b types.Row, spec *sql.MergeSpec) bool {
	for i, col := range spec.SortCols {
		d := a[col].Compare(b[col])
		if d == 0 {
			continue
		}
		if spec.SortDesc[i] {
			return d > 0
		}
		return d < 0
	}
	return false
}

// dedupRows removes duplicate rows, keeping first occurrences in order —
// the same EncodeKey dedup the engine's sink applies for SELECT DISTINCT.
func dedupRows(rows []types.Row) []types.Row {
	seen := make(map[string]bool, len(rows))
	out := rows[:0]
	for _, r := range rows {
		k := types.EncodeKey(r...)
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, r)
	}
	return out
}

// addPartial folds one per-shard partial-aggregate row into the group's
// state of aggregate am: a DISTINCT aggregate re-deduplicates the shard's
// argument values, any other merges the shard's partial aggregates.
func addPartial(a *operators.AggState, row types.Row, am sql.AggMerge) {
	def := operators.AggDef{Kind: am.Func, Distinct: am.Distinct}
	if am.Distinct {
		a.Add(row[am.ArgPos], def)
		return
	}
	var count int64
	if am.CountPos >= 0 {
		count = row[am.CountPos].AsInt()
	}
	part := types.Null
	for _, pos := range [...]int{am.SumPos, am.MinPos, am.MaxPos} {
		if pos >= 0 {
			part = row[pos]
		}
	}
	a.Merge(def, count, part)
}

// mergeGrouped recombines per-shard partial-aggregate rows: groups are
// keyed on the leading group columns (first-seen order across shards, shard
// order first — deterministic), aggregates recombine per AggMerge, then the
// final rows run the statement's per-query tail: HAVING, ORDER BY, LIMIT,
// projection, DISTINCT.
func mergeGrouped(shardRows [][]types.Row, spec *sql.MergeSpec, params []types.Value) []types.Row {
	type groupAcc struct {
		keyVals types.Row
		aggs    []operators.AggState
	}
	groups := map[string]*groupAcc{}
	var order []*groupAcc
	for _, rows := range shardRows {
		for _, row := range rows {
			k := types.EncodeKey(row[:spec.GroupCols]...)
			g := groups[k]
			if g == nil {
				g = &groupAcc{keyVals: row[:spec.GroupCols], aggs: make([]operators.AggState, len(spec.Aggs))}
				groups[k] = g
				order = append(order, g)
			}
			for i, am := range spec.Aggs {
				addPartial(&g.aggs[i], row, am)
			}
		}
	}
	// Scalar statements produce exactly one row even over empty input.
	if spec.Scalar && len(order) == 0 {
		order = append(order, &groupAcc{aggs: make([]operators.AggState, len(spec.Aggs))})
	}

	finals := make([]types.Row, 0, len(order))
	for _, g := range order {
		row := make(types.Row, 0, spec.GroupCols+len(spec.Aggs))
		row = append(row, g.keyVals...)
		for i, am := range spec.Aggs {
			row = append(row, g.aggs[i].Result(operators.AggDef{Kind: am.Func}))
		}
		if spec.Having != nil && !expr.TruthyEval(spec.Having, row, params) {
			continue
		}
		finals = append(finals, row)
	}

	sorted := len(spec.SortKeys) > 0
	if sorted {
		sortFinal(finals, spec.SortKeys, params)
		// Sorted statements cut LIMIT before projection and DISTINCT (the
		// shared sort's Top-N); unsorted ones cut after dedup (the sink).
		if spec.Limit >= 0 && len(finals) > spec.Limit {
			finals = finals[:spec.Limit]
		}
	}
	out := finals
	if len(spec.Project) > 0 {
		out = make([]types.Row, len(finals))
		for i, row := range finals {
			pr := make(types.Row, len(spec.Project))
			for j, pe := range spec.Project {
				pr[j] = pe.Eval(row, params)
			}
			out[i] = pr
		}
	}
	if spec.Distinct {
		out = dedupRows(out)
	}
	if !sorted && spec.Limit >= 0 && len(out) > spec.Limit {
		out = out[:spec.Limit]
	}
	return out
}

// sortFinal stable-sorts recombined group rows on the statement's bound
// sort keys (first-seen group order breaks ties, as the shared sort's
// stability does on a single engine).
func sortFinal(rows []types.Row, keys []sql.SortKey, params []types.Value) {
	type keyed struct {
		row  types.Row
		keys []types.Value
	}
	ks := make([]keyed, len(rows))
	for i, r := range rows {
		kv := make([]types.Value, len(keys))
		for j, k := range keys {
			kv[j] = k.Expr.Eval(r, params)
		}
		ks[i] = keyed{row: r, keys: kv}
	}
	sort.SliceStable(ks, func(a, b int) bool {
		for j := range keys {
			d := ks[a].keys[j].Compare(ks[b].keys[j])
			if d == 0 {
				continue
			}
			if keys[j].Desc {
				return d > 0
			}
			return d < 0
		}
		return false
	})
	for i := range ks {
		rows[i] = ks[i].row
	}
}
