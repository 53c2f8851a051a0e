package shard

import (
	"errors"
	"fmt"

	"shareddb/internal/core"
	"shareddb/internal/plan"
	"shareddb/internal/sql"
	"shareddb/internal/types"
)

// Subscribe registers a standing query on a sharded deployment. Point
// statements subscribe on the owning shard and replicated-only reads on one
// round-robin shard — both pass the shard engine's subscription through
// untouched. Scatter statements subscribe on every shard and merge the
// per-shard feeds: one initial full result (per-shard snapshots
// concatenated in shard order), then each shard's generation deltas
// forwarded in the order the shards produce them, stamped with a router
// sequence number as the generation. Closing the returned subscription
// detaches every per-shard feed.
func (r *Router) Subscribe(stmt *plan.Statement, params []types.Value) (*core.Subscription, error) {
	r.mu.RLock()
	rs := r.stmts[stmt]
	r.mu.RUnlock()
	if rs == nil {
		return nil, errors.New("shard: statement was not prepared on this router")
	}
	sp := rs.sp
	if sp.Write != nil {
		return nil, errors.New("shard: Subscribe requires a read statement")
	}
	switch sp.Route {
	case sql.RoutePoint:
		s := r.shardFor(sp.KeyExprs, params)
		return r.engines[s].Subscribe(rs.perShard[s], params)
	case sql.RouteAny:
		s := int(r.rr.Add(1) % uint64(len(r.engines)))
		return r.engines[s].Subscribe(rs.perShard[s], params)
	}

	// Scatter: per-shard deltas compose into deltas of the merged result
	// only for a plain concatenation — ordered merges, grouped merges,
	// cross-shard DISTINCT and LIMIT re-cuts all recombine rows, so a
	// one-shard change can move rows another shard contributed.
	if sp.Merge == nil || sp.Merge.Kind != sql.MergeConcat || sp.Merge.Distinct || sp.Merge.Limit >= 0 {
		return nil, fmt.Errorf("shard: subscription requires a concat-mergeable statement (no cross-shard ORDER BY, GROUP BY, DISTINCT or LIMIT): %s", stmt.SQL)
	}

	shardSubs := make([]*core.Subscription, len(r.engines))
	for i, e := range r.engines {
		ss, err := e.Subscribe(rs.perShard[i], params)
		if err != nil {
			for j := 0; j < i; j++ {
				shardSubs[j].Close()
			}
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		shardSubs[i] = ss
	}
	out := core.NewProxySubscription(stmt, params)
	go r.mergeFeeds(out, shardSubs)
	return out, nil
}

// shardUpd is one per-shard delivery tagged with its source.
type shardUpd struct {
	shard int
	u     core.SubscriptionUpdate
	ok    bool // false: the shard feed ended (engine shut down)
}

// mergeFeeds pumps every shard subscription into the merged client
// subscription. It maintains each shard's current result (applying deltas)
// so it can synthesize full resyncs — for the initial delivery, after the
// client lags, and after a shard-side resync.
func (r *Router) mergeFeeds(out *core.Subscription, shardSubs []*core.Subscription) {
	defer func() {
		for _, ss := range shardSubs {
			ss.Close()
		}
		out.Close()
	}()

	agg := make(chan shardUpd)
	for i, ss := range shardSubs {
		go func(i int, ss *core.Subscription) {
			for u := range ss.Updates() {
				select {
				case agg <- shardUpd{shard: i, u: u, ok: true}:
				case <-out.Done():
					return
				}
			}
			select {
			case agg <- shardUpd{shard: i}:
			case <-out.Done():
			}
		}(i, ss)
	}

	state := make([][]types.Row, len(shardSubs))
	pending := len(shardSubs) // shards whose initial full result is outstanding
	got := make([]bool, len(shardSubs))
	delivered := false
	var seq uint64
	for {
		select {
		case <-out.Done():
			return
		case su := <-agg:
			if !su.ok {
				return
			}
			u := su.u
			if u.Full {
				state[su.shard] = u.Rows
			} else {
				state[su.shard] = applyDelta(state[su.shard], u.Added, u.Removed)
			}
			if !got[su.shard] {
				got[su.shard] = true
				pending--
			}
			if pending > 0 {
				continue // merged initial result needs every shard's snapshot
			}
			seq++
			if !delivered || u.Full || out.Lagged() {
				var rows []types.Row
				for _, sr := range state {
					rows = append(rows, sr...)
				}
				if out.Push(core.SubscriptionUpdate{Gen: seq, SnapshotTS: u.SnapshotTS, Full: true, Rows: rows}) {
					delivered = true
				}
				continue
			}
			out.Push(core.SubscriptionUpdate{Gen: seq, SnapshotTS: u.SnapshotTS, Added: u.Added, Removed: u.Removed})
		}
	}
}

// applyDelta updates one shard's tracked result by its delivered delta:
// removed rows leave by multiset (first occurrence wins), added rows append.
func applyDelta(rows []types.Row, added, removed []types.Row) []types.Row {
	if len(removed) > 0 {
		rm := make(map[string]int, len(removed))
		for _, row := range removed {
			rm[types.EncodeKey(row...)]++
		}
		kept := make([]types.Row, 0, len(rows))
		for _, row := range rows {
			k := types.EncodeKey(row...)
			if rm[k] > 0 {
				rm[k]--
				continue
			}
			kept = append(kept, row)
		}
		rows = kept
	}
	return append(rows, added...)
}
