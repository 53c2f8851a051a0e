package core

import (
	"errors"
	"sync"
	"sync/atomic"

	"shareddb/internal/dbapi"
	"shareddb/internal/plan"
	"shareddb/internal/types"
)

// SubscriptionUpdate is one delivery on a standing query's update channel.
// The first delivery (and any delivery after the subscriber lagged) is a
// full resync: Full is true and Rows holds the complete result at the
// generation's snapshot. Every other delivery is a delta: Added/Removed are
// the multiset difference between this generation's result and the
// previously delivered one. Generations whose result is unchanged produce
// no delivery at all. Rows are shared with the subscription's internal
// state and must be treated as read-only.
type SubscriptionUpdate struct {
	Gen        uint64
	SnapshotTS uint64
	Full       bool
	Rows       []types.Row // complete result; set only when Full
	Added      []types.Row
	Removed    []types.Row
}

// Subscription is a standing query: a permanent member of the engine's
// generation query-sets. Each generation re-evaluates it at the
// generation's post-write snapshot and delivers the result change on
// Updates. Close detaches it; the engine drops it at the next batch
// formation without perturbing in-flight generations.
type Subscription struct {
	stmt   *plan.Statement
	params []types.Value
	ch     chan SubscriptionUpdate
	done   chan struct{}

	mu     sync.Mutex
	closed bool
	// lagged records a dropped delivery (full channel): deltas are useless
	// to a subscriber that missed one, so the next successful delivery is a
	// full resync.
	lagged bool

	// Delivery-side state below is touched only on the sink goroutine, one
	// generation at a time (sink cycles serialize in generation order).
	needsInitial bool
	prevRows     []types.Row    // previously delivered result, arrival order
	prevCnt      map[string]int // its multiset, keyed by types.EncodeKey
}

// Updates returns the delivery channel. It is closed by Close (and by
// engine shutdown), so ranging over it terminates.
func (s *Subscription) Updates() <-chan SubscriptionUpdate { return s.ch }

// Done is closed when the subscription is detached.
func (s *Subscription) Done() <-chan struct{} { return s.done }

// Statement returns the subscribed statement.
func (s *Subscription) Statement() *plan.Statement { return s.stmt }

// Close detaches the subscription and closes its channels. Safe to call
// concurrently with deliveries and more than once.
func (s *Subscription) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.done)
		close(s.ch)
	}
	s.mu.Unlock()
}

func (s *Subscription) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// deliver diffs one generation's result against the previously delivered
// one and pushes the update (non-blocking; a full channel marks the
// subscription lagged instead of stalling the generation). Each update
// handed to the subscriber is added to sent first. Sink goroutine only.
func (s *Subscription) deliver(gen, ts uint64, rows []types.Row, sent *atomic.Uint64) {
	curCnt := make(map[string]int, len(rows))
	for _, r := range rows {
		curCnt[types.EncodeKey(r...)]++
	}

	var u SubscriptionUpdate
	full := s.needsInitial
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.prevRows, s.prevCnt = rows, curCnt
		return
	}
	full = full || s.lagged
	if full {
		u = SubscriptionUpdate{Gen: gen, SnapshotTS: ts, Full: true, Rows: rows}
	} else {
		// Multiset diff in deterministic order: occurrences beyond the other
		// side's count, in each side's arrival order.
		var added, removed []types.Row
		occ := make(map[string]int, len(rows))
		for _, r := range rows {
			k := types.EncodeKey(r...)
			occ[k]++
			if occ[k] > s.prevCnt[k] {
				added = append(added, r)
			}
		}
		clear(occ)
		for _, r := range s.prevRows {
			k := types.EncodeKey(r...)
			occ[k]++
			if occ[k] > curCnt[k] {
				removed = append(removed, r)
			}
		}
		if len(added) == 0 && len(removed) == 0 {
			s.mu.Unlock()
			s.prevRows, s.prevCnt = rows, curCnt
			return
		}
		u = SubscriptionUpdate{Gen: gen, SnapshotTS: ts, Added: added, Removed: removed}
	}
	// This goroutine is the channel's only sender and Close needs s.mu, so a
	// slot free now is still free at the send: the count is published before
	// the subscriber can receive the update.
	s.lagged = len(s.ch) == cap(s.ch)
	if !s.lagged {
		sent.Add(1)
		s.ch <- u
		s.needsInitial = false
	}
	s.mu.Unlock()
	s.prevRows, s.prevCnt = rows, curCnt
}

// NewProxySubscription returns a subscription fed by the caller instead of
// an engine: the shard router uses it as the client-facing end of a merged
// multi-shard feed. Deliver updates with Push; Close releases consumers.
func NewProxySubscription(stmt *plan.Statement, params []types.Value) *Subscription {
	return &Subscription{
		stmt:   stmt,
		params: params,
		ch:     make(chan SubscriptionUpdate, dbapi.SubscriptionBuffer),
		done:   make(chan struct{}),
	}
}

// Push delivers an update on a proxy subscription without blocking: a full
// channel marks the subscription lagged and drops the update. While lagged,
// delta updates are refused (they would be misleading after a gap) — the
// feeder must send a Full resync, whose successful delivery clears the lag.
// Returns whether the update was handed to the subscriber.
func (s *Subscription) Push(u SubscriptionUpdate) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	if s.lagged && !u.Full {
		return false
	}
	select {
	case s.ch <- u:
		if u.Full {
			s.lagged = false
		}
		return true
	default:
		s.lagged = true
		return false
	}
}

// Lagged reports whether the subscriber has missed a delivery since the
// last full resync (the feeder should send Full next).
func (s *Subscription) Lagged() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lagged
}

// Subscribe registers stmt as a standing query. The subscription joins
// every subsequent generation's query set; the first delivery is the full
// result at that generation's snapshot (a generation is kicked off for it
// even when no requests are queued).
func (e *Engine) Subscribe(stmt *plan.Statement, params []types.Value) (*Subscription, error) {
	if stmt == nil || stmt.IsWrite() {
		return nil, errors.New("core: Subscribe requires a read statement")
	}
	s := &Subscription{
		stmt:         stmt,
		params:       params,
		ch:           make(chan SubscriptionUpdate, dbapi.SubscriptionBuffer),
		done:         make(chan struct{}),
		needsInitial: true,
	}
	e.mu.Lock()
	if e.stopped {
		e.mu.Unlock()
		return nil, errEngineClosed
	}
	e.subs = append(e.subs, s)
	e.subsKick = true
	e.cond.Broadcast()
	e.mu.Unlock()
	return s, nil
}

// activeSubsLocked prunes closed subscriptions and snapshots the live ones
// for one generation (nil when there are none). Caller holds e.mu.
func (e *Engine) activeSubsLocked() []*Subscription {
	if len(e.subs) == 0 {
		return nil
	}
	kept := e.subs[:0]
	for _, s := range e.subs {
		if !s.isClosed() {
			kept = append(kept, s)
		}
	}
	for i := len(kept); i < len(e.subs); i++ {
		e.subs[i] = nil
	}
	e.subs = kept
	if len(kept) == 0 {
		return nil
	}
	return append([]*Subscription{}, kept...)
}
