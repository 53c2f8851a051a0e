// Package dbapi declares the types every way into the engine shares: the
// engine itself (internal/core), the embedded API (package shareddb) and the
// network client (package client). It imports no engine package, so the
// client can name the same types as the embedded API without linking the
// engine, and an error or counter snapshot means the same thing whichever
// way it arrived.
package dbapi

import (
	"errors"
	"fmt"
	"reflect"
	"time"
)

// SubscriptionBuffer is the capacity of a subscription's update channel, in
// the engine and in the network client alike. A subscriber that falls a
// full buffer behind is marked lagged and receives a full resync as its
// next delivery; generations never block on a slow subscriber.
const SubscriptionBuffer = 16

// Result reports the outcome of a write.
type Result struct {
	RowsAffected int
}

// ErrOverloaded is the sentinel every admission-control rejection wraps:
// errors.Is(err, ErrOverloaded) matches a rejection from the embedded
// engine and a BUSY reply from a server alike. Use errors.As with
// *OverloadError to recover the retry hint.
var ErrOverloaded = errors.New("shareddb: overloaded")

// OverloadError is the typed admission rejection: the limit that refused
// the submission and how long to wait before resubmitting (the estimated
// queue drain time, or the remaining breaker cooldown).
type OverloadError struct {
	// Reason says which limit rejected the submission (queue depth,
	// quarantined statement, half-open probe in flight).
	Reason string
	// RetryAfter is the suggested back-off before resubmitting.
	RetryAfter time.Duration
}

// Error renders the rejection with its retry hint.
func (e *OverloadError) Error() string {
	if e.RetryAfter > 0 {
		return fmt.Sprintf("shareddb: overloaded: %s (retry after %v)", e.Reason, e.RetryAfter)
	}
	return "shareddb: overloaded: " + e.Reason
}

// Unwrap makes errors.Is(err, ErrOverloaded) match.
func (e *OverloadError) Unwrap() error { return ErrOverloaded }

// Stats is a point-in-time snapshot of the engine's execution counters.
// Counts are cumulative since the engine started and summed across shards;
// InFlightGenerations, QueueDepth and SubscriptionsActive are live gauges.
//
// Each field's stat tag is its name in a STATS_OK frame, and the field
// order is the frame's order: a new counter is one field with its name.
type Stats struct {
	// Generations is the number of execution generations dispatched.
	Generations uint64 `stat:"generations"`
	// QueriesRun counts read activations the engine actually executed.
	// Folded duplicates are excluded — they consumed no engine work.
	QueriesRun uint64 `stat:"queries_run"`
	// WritesApplied counts applied write statements and transaction
	// commits.
	WritesApplied uint64 `stat:"writes_applied"`
	// FoldedQueries counts reads answered by fan-out from an identical
	// concurrent duplicate, in the unit QueriesRun counts: on a sharded
	// deployment each shard folds its own part of a read, so one scatter
	// read folded on N shards counts N.
	FoldedQueries uint64 `stat:"folded_queries"`
	// InFlightGenerations is the pipeline gauge: generations dispatched
	// but not yet complete.
	InFlightGenerations int `stat:"in_flight_generations"`
	// QueueDepth is the number of submissions waiting for a generation,
	// reserved broadcast slots included.
	QueueDepth int `stat:"queue_depth"`
	// Shed counts activations deferred to a later generation by
	// StatementQuota or the latency-SLO batch cap (a request deferred k
	// generations counts k times); Rejected counts submissions refused
	// outright (queue full, breaker open); BreakerTrips counts slow-query
	// quarantines.
	Shed         uint64 `stat:"shed"`
	Rejected     uint64 `stat:"rejected"`
	BreakerTrips uint64 `stat:"breaker_trips"`
	// SubscriptionsActive is the gauge of open standing queries.
	SubscriptionsActive int `stat:"subscriptions_active"`
	// SubscriptionUpdates counts updates handed to subscribers: initial
	// full results, per-generation deltas and lag resyncs.
	SubscriptionUpdates uint64 `stat:"subscription_updates"`
}

// StatNames lists the counters' STATS_OK names in field order; encode and
// decode both walk it.
var StatNames = func() []string {
	t := reflect.TypeOf(Stats{})
	names := make([]string, t.NumField())
	for i := range names {
		names[i] = t.Field(i).Tag.Get("stat")
	}
	return names
}()

// FoldHitRate is the fraction of read activations served by folding:
// FoldedQueries / (QueriesRun + FoldedQueries). Zero when no reads ran.
func (s Stats) FoldHitRate() float64 {
	total := s.QueriesRun + s.FoldedQueries
	if total == 0 {
		return 0
	}
	return float64(s.FoldedQueries) / float64(total)
}

// Values returns the counters in StatNames order.
func (s Stats) Values() []uint64 {
	v := reflect.ValueOf(s)
	out := make([]uint64, v.NumField())
	for i := range out {
		if f := v.Field(i); f.CanUint() {
			out[i] = f.Uint()
		} else {
			out[i] = uint64(f.Int())
		}
	}
	return out
}

// Set stores value in the counter named name and reports whether Stats has
// one by that name (a STATS_OK frame may carry names a client predates).
func (s *Stats) Set(name string, value uint64) bool {
	for i, n := range StatNames {
		if n == name {
			if f := reflect.ValueOf(s).Elem().Field(i); f.CanUint() {
				f.SetUint(value)
			} else {
				f.SetInt(int64(value))
			}
			return true
		}
	}
	return false
}

// Add returns s and o summed field by field: the sharded deployment's
// snapshot over its shard engines.
func (s Stats) Add(o Stats) Stats { return s.combine(o, 1) }

// Sub returns s minus o field by field: the counters' growth over a
// window from snapshot o to snapshot s.
func (s Stats) Sub(o Stats) Stats { return s.combine(o, -1) }

func (s Stats) combine(o Stats, sign int64) Stats {
	a, b := reflect.ValueOf(&s).Elem(), reflect.ValueOf(o)
	for i := 0; i < a.NumField(); i++ {
		if f := a.Field(i); f.CanUint() {
			f.SetUint(f.Uint() + uint64(sign)*b.Field(i).Uint())
		} else {
			f.SetInt(f.Int() + sign*b.Field(i).Int())
		}
	}
	return s
}
