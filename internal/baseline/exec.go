package baseline

import (
	"shareddb/internal/btree"
	"shareddb/internal/expr"
	"shareddb/internal/sql"
	"shareddb/internal/storage"
	"shareddb/internal/types"
)

// execScan reads one base table with the best single-query access path:
// an index probe when an equality (or leading-column range) conjunct is
// available, else a full scan with predicate evaluation.
func (e *Engine) execScan(scan *sql.Scan, params []types.Value, ts uint64) ([]types.Row, error) {
	t := e.db.Table(scan.Table)
	if t == nil {
		return nil, storage.ErrNoTable
	}
	bound := expr.Bind(scan.Pred, params)
	conjs := expr.Conjuncts(bound)

	eq := map[int]types.Value{}
	for _, c := range conjs {
		if col, v, ok := expr.EqualityMatch(c); ok {
			if _, dup := eq[col]; !dup {
				eq[col] = v
			}
		}
	}
	var bestIx *storage.Index
	bestLen := 0
	for _, ix := range t.Indexes() {
		n := 0
		for _, c := range ix.Cols {
			if _, ok := eq[c]; ok {
				n++
			} else {
				break
			}
		}
		if n > bestLen {
			bestIx, bestLen = ix, n
		}
	}
	// Index traversals go through the storage layer's locked helpers
	// (IndexSeekAt / IndexScanAt): baseline reads run concurrently with
	// writes — and with the shared engine's pipelined write phases — so
	// trees and version chains cannot be walked lock-free.
	var out []types.Row
	if bestLen > 0 {
		key := make(btree.Key, bestLen)
		for i := 0; i < bestLen; i++ {
			key[i] = eq[bestIx.Cols[i]]
		}
		t.IndexSeekAt(bestIx, key, ts, func(_ storage.RowID, row types.Row) bool {
			if expr.TruthyEval(bound, row, nil) {
				out = append(out, row)
			}
			return true
		})
		return out, nil
	}

	// leading-column range on some index
	for _, ix := range t.Indexes() {
		lead := ix.Cols[0]
		var lo, hi btree.Key
		loIncl, hiIncl := false, false
		found := false
		for _, c := range conjs {
			if r, ok := expr.RangeMatch(c); ok && r.Col == lead {
				if !r.Lo.IsNull() && lo == nil {
					lo, loIncl = btree.Key{r.Lo}, r.LoIncl
					found = true
				}
				if !r.Hi.IsNull() && hi == nil {
					hi, hiIncl = btree.Key{r.Hi}, r.HiIncl
					found = true
				}
			}
		}
		if !found {
			continue
		}
		t.IndexScanAt(ix, lo, hi, loIncl, hiIncl, ts, func(_ storage.RowID, row types.Row) bool {
			if expr.TruthyEval(bound, row, nil) {
				out = append(out, row)
			}
			return true
		})
		return out, nil
	}

	t.ScanVisible(ts, func(_ storage.RowID, row types.Row) bool {
		if expr.TruthyEval(bound, row, nil) {
			out = append(out, row)
		}
		return true
	})
	return out, nil
}

// execJoin picks the join algorithm by profile: index nested-loop when the
// inner (right) base table has a usable index; otherwise hash join for
// SystemXLike and a plain O(n·m) nested loop for MySQLLike (MySQL 5.1 had
// no hash join).
func (e *Engine) execJoin(j *sql.Join, params []types.Value, ts uint64) ([]types.Row, error) {
	left, err := e.execPlan(j.Left, params, ts)
	if err != nil {
		return nil, err
	}

	// index nested-loop directly against the inner base table
	if rscan, ok := j.Right.(*sql.Scan); ok && len(j.RightKeys) > 0 {
		if t := e.db.Table(rscan.Table); t != nil {
			if ix := indexWithLeading(t, j.RightKeys); ix != nil {
				innerPred := expr.Bind(rscan.Pred, params)
				var out []types.Row
				for _, lrow := range left {
					if nullKey(lrow, j.LeftKeys) {
						continue
					}
					key := make(btree.Key, len(j.LeftKeys))
					for i, c := range j.LeftKeys {
						key[i] = lrow[c]
					}
					t.IndexSeekAt(ix, key, ts, func(_ storage.RowID, irow types.Row) bool {
						if expr.TruthyEval(innerPred, irow, nil) {
							joined := lrow.Concat(irow)
							if j.Residual == nil || expr.TruthyEval(j.Residual, joined, params) {
								out = append(out, joined)
							}
						}
						return true
					})
				}
				return out, nil
			}
		}
	}

	right, err := e.execPlan(j.Right, params, ts)
	if err != nil {
		return nil, err
	}

	if e.profile == MySQLLike || len(j.LeftKeys) == 0 {
		// nested loop (also handles cross joins with residuals)
		var out []types.Row
		for _, lrow := range left {
			if nullKey(lrow, j.LeftKeys) {
				continue
			}
			for _, rrow := range right {
				match := !nullKey(rrow, j.RightKeys)
				for i := 0; match && i < len(j.LeftKeys); i++ {
					match = lrow[j.LeftKeys[i]].Equal(rrow[j.RightKeys[i]])
				}
				if !match {
					continue
				}
				joined := lrow.Concat(rrow)
				if j.Residual == nil || expr.TruthyEval(j.Residual, joined, params) {
					out = append(out, joined)
				}
			}
		}
		return out, nil
	}

	// hash join: build on the smaller right side
	build := make(map[string][]types.Row, len(right))
	for _, rrow := range right {
		if nullKey(rrow, j.RightKeys) {
			continue
		}
		vals := make([]types.Value, len(j.RightKeys))
		for i, c := range j.RightKeys {
			vals[i] = rrow[c]
		}
		k := types.EncodeKey(vals...)
		build[k] = append(build[k], rrow)
	}
	var out []types.Row
	for _, lrow := range left {
		if nullKey(lrow, j.LeftKeys) {
			continue
		}
		vals := make([]types.Value, len(j.LeftKeys))
		for i, c := range j.LeftKeys {
			vals[i] = lrow[c]
		}
		for _, rrow := range build[types.EncodeKey(vals...)] {
			joined := lrow.Concat(rrow)
			if j.Residual == nil || expr.TruthyEval(j.Residual, joined, params) {
				out = append(out, joined)
			}
		}
	}
	return out, nil
}

// nullKey reports whether any of row's join key columns is NULL: an equi-join
// never matches such a row (NULL = x is unknown), in any of the three paths.
func nullKey(row types.Row, cols []int) bool {
	for _, c := range cols {
		if row[c].IsNull() {
			return true
		}
	}
	return false
}

func indexWithLeading(t *storage.Table, keys []int) *storage.Index {
	for _, ix := range t.Indexes() {
		if len(ix.Cols) < len(keys) {
			continue
		}
		match := true
		for i := range keys {
			if ix.Cols[i] != keys[i] {
				match = false
				break
			}
		}
		if match {
			return ix
		}
	}
	return nil
}

// execGroup evaluates grouping and aggregation for one query.
func (e *Engine) execGroup(g *sql.Group, params []types.Value, ts uint64) ([]types.Row, error) {
	in, err := e.execPlan(g.In, params, ts)
	if err != nil {
		return nil, err
	}
	type aggAcc struct {
		count    int64
		sumI     int64
		sumF     float64
		isFloat  bool
		min, max types.Value
		distinct map[string]struct{}
	}
	type group struct {
		keyVals []types.Value
		accs    []*aggAcc
	}
	groups := map[string]*group{}
	order := []string{}
	for _, row := range in {
		keyVals := make([]types.Value, len(g.GroupCols))
		for i, c := range g.GroupCols {
			keyVals[i] = row[c]
		}
		k := types.EncodeKey(keyVals...)
		grp := groups[k]
		if grp == nil {
			grp = &group{keyVals: keyVals, accs: make([]*aggAcc, len(g.Aggs))}
			for i := range grp.accs {
				grp.accs[i] = &aggAcc{}
			}
			groups[k] = grp
			order = append(order, k)
		}
		for i, spec := range g.Aggs {
			v := types.NewInt(1)
			if spec.Arg != nil {
				v = spec.Arg.Eval(row, params)
			}
			if v.IsNull() {
				continue
			}
			acc := grp.accs[i]
			if spec.Distinct {
				if acc.distinct == nil {
					acc.distinct = map[string]struct{}{}
				}
				dk := types.EncodeKey(v)
				if _, seen := acc.distinct[dk]; seen {
					continue
				}
				acc.distinct[dk] = struct{}{}
			}
			acc.count++
			if v.Kind() == types.KindFloat {
				acc.isFloat = true
				acc.sumF += v.AsFloat()
			} else {
				acc.sumI += v.Int
			}
			if acc.min.IsNull() || v.Compare(acc.min) < 0 {
				acc.min = v
			}
			if acc.max.IsNull() || v.Compare(acc.max) > 0 {
				acc.max = v
			}
		}
	}
	// scalar aggregation over an empty input still yields one row
	if len(g.GroupCols) == 0 && len(order) == 0 {
		grp := &group{accs: make([]*aggAcc, len(g.Aggs))}
		for i := range grp.accs {
			grp.accs[i] = &aggAcc{}
		}
		groups[""] = grp
		order = append(order, "")
	}
	var out []types.Row
	for _, k := range order {
		grp := groups[k]
		row := make(types.Row, 0, len(grp.keyVals)+len(g.Aggs))
		row = append(row, grp.keyVals...)
		for i, spec := range g.Aggs {
			acc := grp.accs[i]
			var v types.Value
			switch spec.Func {
			case sql.AggCount:
				v = types.NewInt(acc.count)
			case sql.AggSum:
				if acc.count == 0 {
					v = types.Null
				} else if acc.isFloat {
					v = types.NewFloat(acc.sumF + float64(acc.sumI))
				} else {
					v = types.NewInt(acc.sumI)
				}
			case sql.AggMin:
				v = acc.min
			case sql.AggMax:
				v = acc.max
			case sql.AggAvg:
				if acc.count == 0 {
					v = types.Null
				} else {
					v = types.NewFloat((acc.sumF + float64(acc.sumI)) / float64(acc.count))
				}
			}
			row = append(row, v)
		}
		if g.Having == nil || expr.TruthyEval(g.Having, row, params) {
			out = append(out, row)
		}
	}
	return out, nil
}
