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

// aggAcc accumulates one aggregate of one recombined group across shards,
// mirroring the grouped operator's per-(group, query) state.
type aggAcc struct {
	count    int64
	sumI     int64
	sumF     float64
	isFloat  bool
	hasSum   bool
	min, max types.Value
	distinct map[string]struct{}
}

// addValue folds one argument value (a cross-shard-deduplicated DISTINCT
// value) with the exact semantics of the shared group operator's add.
func (a *aggAcc) addValue(v types.Value) {
	if v.IsNull() {
		return
	}
	if a.distinct == nil {
		a.distinct = map[string]struct{}{}
	}
	k := types.EncodeKey(v)
	if _, seen := a.distinct[k]; seen {
		return
	}
	a.distinct[k] = struct{}{}
	a.count++
	a.addSum(v)
	if a.min.IsNull() || v.Compare(a.min) < 0 {
		a.min = v
	}
	if a.max.IsNull() || v.Compare(a.max) > 0 {
		a.max = v
	}
}

// addSum folds a partial (or distinct) value into the sum components.
func (a *aggAcc) addSum(v types.Value) {
	if v.IsNull() {
		return
	}
	a.hasSum = true
	switch v.Kind() {
	case types.KindFloat:
		a.isFloat = true
		a.sumF += v.AsFloat()
	case types.KindInt, types.KindBool, types.KindTime:
		a.sumI += v.Int
	}
}

// addPartial folds one per-shard partial-aggregate row into the
// accumulator.
func (a *aggAcc) addPartial(row types.Row, am sql.AggMerge) {
	if am.Distinct {
		a.addValue(row[am.ArgPos])
		return
	}
	if am.CountPos >= 0 {
		a.count += row[am.CountPos].AsInt()
	}
	if am.SumPos >= 0 {
		a.addSum(row[am.SumPos])
	}
	if am.MinPos >= 0 {
		if v := row[am.MinPos]; !v.IsNull() && (a.min.IsNull() || v.Compare(a.min) < 0) {
			a.min = v
		}
	}
	if am.MaxPos >= 0 {
		if v := row[am.MaxPos]; !v.IsNull() && (a.max.IsNull() || v.Compare(a.max) > 0) {
			a.max = v
		}
	}
}

// result finalizes the recombined aggregate, matching the single-engine
// NULL semantics: SUM/AVG over no input are NULL, COUNT is 0, MIN/MAX stay
// NULL.
func (a *aggAcc) result(am sql.AggMerge) types.Value {
	switch am.Func {
	case sql.AggCount:
		return types.NewInt(a.count)
	case sql.AggSum:
		if !a.hasSum {
			return types.Null
		}
		if a.isFloat {
			return types.NewFloat(a.sumF + float64(a.sumI))
		}
		return types.NewInt(a.sumI)
	case sql.AggMin:
		return a.min
	case sql.AggMax:
		return a.max
	case sql.AggAvg:
		if a.count == 0 {
			return types.Null
		}
		return types.NewFloat((a.sumF + float64(a.sumI)) / float64(a.count))
	default:
		return types.Null
	}
}

// mergeGrouped recombines per-shard partial-aggregate rows: groups are
// keyed on the leading group columns (first-seen order across shards, shard
// order first — deterministic), aggregates recombine per AggMerge, then the
// final rows run the statement's per-query tail: HAVING, ORDER BY, LIMIT,
// projection, DISTINCT.
func mergeGrouped(shardRows [][]types.Row, spec *sql.MergeSpec, params []types.Value) []types.Row {
	type groupAcc struct {
		keyVals types.Row
		aggs    []aggAcc
	}
	groups := map[string]*groupAcc{}
	var order []*groupAcc
	for _, rows := range shardRows {
		for _, row := range rows {
			k := types.EncodeKey(row[:spec.GroupCols]...)
			g := groups[k]
			if g == nil {
				g = &groupAcc{keyVals: row[:spec.GroupCols], aggs: make([]aggAcc, len(spec.Aggs))}
				groups[k] = g
				order = append(order, g)
			}
			for i, am := range spec.Aggs {
				g.aggs[i].addPartial(row, am)
			}
		}
	}
	// Scalar statements produce exactly one row even over empty input.
	if spec.Scalar && len(order) == 0 {
		order = append(order, &groupAcc{aggs: make([]aggAcc, len(spec.Aggs))})
	}

	finals := make([]types.Row, 0, len(order))
	for _, g := range order {
		row := make(types.Row, 0, spec.GroupCols+len(spec.Aggs))
		row = append(row, g.keyVals...)
		for i, am := range spec.Aggs {
			row = append(row, g.aggs[i].result(am))
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
