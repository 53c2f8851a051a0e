// Admission control: the paper sizes generations against a response-time
// limit ("the response time limit defines the batching window"), where this
// engine previously drained whatever had queued. The admission controller
// bounds the work one generation admits — and the work allowed to queue —
// along three axes:
//
//   - Config.QueueDepthLimit caps the submission queue. Excess submissions
//     are REJECTED immediately with a typed *OverloadError (wrapping
//     ErrOverloaded) carrying a retry hint, instead of queueing unboundedly.
//   - Config.StatementQuota caps how many activations of any single
//     statement one generation admits. Excess activations are SHED: they
//     stay queued, in arrival order, for a later generation — the client
//     keeps waiting, but one statement's burst cannot monopolize a cycle.
//   - Config.MaxGenerationDelay is the per-generation latency SLO. The
//     controller tracks an EWMA of observed per-request generation cost and
//     closes each batch at the size predicted to finish within the SLO
//     (excess is shed to the next generation, like quota overflow).
//
// Shed vs reject: shedding defers work (bounded per-generation cost, queue
// absorbs the burst); rejecting pushes back on the client (bounded queue).
// Under sustained overload shed work accumulates in the queue until the
// depth limit converts the overflow into rejections — so both bounds
// together give bounded in-flight work.
//
// The slow-query circuit breaker quarantines plans that repeatedly blow the
// SLO (the paper's ad-hoc query risk: one expensive plan joining the shared
// cycle drags every co-batched query over its deadline). Every generation
// that exceeds MaxGenerationDelay gives each read statement it contained a
// strike; DefaultBreakerStrikes consecutive strikes trip the statement's
// breaker (submissions reject with ErrOverloaded). After a cooldown of
// defaultCooldownFactor × the SLO the breaker goes half-open and admits
// exactly one probe activation: if the
// probe's generation meets the SLO the breaker resets, if it blows the SLO
// the breaker re-trips for another cooldown. Blame is generation-grained —
// a light query repeatedly co-batched with a heavy one collects strikes
// too, but any SLO-met generation containing a statement resets its breaker,
// so only plans that are slow wherever they appear stay quarantined.
//
// Cycle time is measured wall-clock from dispatch to read-phase
// completion, so with MaxInFlightGenerations > 1 it includes contention
// from overlapping generations. That is deliberate — the SLO bounds what
// the client observes, and a pipeline saturated enough to blow it IS
// overload. Blame, however, is cost-attributed, not generation-grained:
// the engine times every operator cycle (operators.CycleStart.CostObserve)
// and splits each node's active time equally across the statements whose
// queries were active there. When a blown generation carries attribution,
// only statements whose share is at or above the generation's per-statement
// average are struck; below-average statements are SPARED — their breaker
// state is cleared, exactly as if they had run in an SLO-met generation —
// so a light query co-batched with a heavy one never trips. Generations
// without attribution (cost observing needs the SLO breaker on; write-only
// generations report none) fall back to striking every statement.
//
// The attributed costs also feed per-statement cost rings (last
// costRingSamples generations, p75 predictor), which sharpen the SLO batch
// cap: batch formation walks the queue accumulating each statement's
// predicted cost — charging each distinct statement once, since shared
// execution folds duplicate activations into the same operator work — and
// sheds the strict positional suffix past the budget (adaptive SLO). With
// no per-statement history the cap falls back to the uniform EWMA estimate.
//
// All admission state is guarded by the engine mutex: every method on
// admission must be called with Engine.mu held. The engine always has a
// controller; with every knob at its zero value it passes everything
// through — every submission is admitted and every batch is the whole
// queue.
package core

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"shareddb/internal/plan"
)

// ErrOverloaded is the sentinel all admission rejections wrap: shed-vs-kept
// callers match with errors.Is(err, core.ErrOverloaded) and recover the
// retry hint with errors.As into a *OverloadError.
var ErrOverloaded = errors.New("core: overloaded")

// OverloadError is the typed admission rejection. It wraps ErrOverloaded
// (errors.Is matches) and carries a retry hint: how long the client should
// wait before resubmitting (the estimated queue drain time, or the
// remaining breaker cooldown).
type OverloadError struct {
	// Reason says which limit rejected the submission (queue depth,
	// quarantined statement, half-open probe in flight).
	Reason string
	// RetryAfter is the suggested client back-off before resubmitting.
	RetryAfter time.Duration
}

// Error renders the rejection with its retry hint.
func (e *OverloadError) Error() string {
	if e.RetryAfter > 0 {
		return fmt.Sprintf("core: overloaded: %s (retry after %v)", e.Reason, e.RetryAfter)
	}
	return "core: overloaded: " + e.Reason
}

// Unwrap makes errors.Is(err, ErrOverloaded) match.
func (e *OverloadError) Unwrap() error { return ErrOverloaded }

const (
	// MinGenerationDelay is the smallest enforceable SLO: below the ~1ms
	// granularity of the platform timer the engine cannot distinguish an
	// SLO-met cycle from a blown one, so Config.Validate rejects non-zero
	// values under this floor.
	MinGenerationDelay = time.Millisecond
	// DefaultBreakerStrikes is the consecutive over-SLO generations that
	// quarantine a statement.
	DefaultBreakerStrikes = 3
	// defaultCooldownFactor sizes the breaker cooldown as a multiple of
	// the SLO: long enough for a queue sized by the SLO to drain, short
	// enough that a transiently slow plan is re-probed soon.
	defaultCooldownFactor = 8
	// costAlpha is the EWMA weight of the newest per-request cost sample.
	costAlpha = 0.3
)

// breakerState is the slow-query circuit breaker's state machine.
type breakerState uint8

const (
	breakerClosed   breakerState = iota // admitting normally
	breakerOpen                         // quarantined: reject until cooldown
	breakerHalfOpen                     // cooldown elapsed: one probe allowed
)

// String names the state for errors and tests.
func (s breakerState) String() string {
	return [...]string{"closed", "open", "half-open"}[s]
}

// breaker is one statement's quarantine state.
type breaker struct {
	state    breakerState
	strikes  int       // consecutive over-SLO generations while closed
	openedAt time.Time // when the breaker last tripped
	probing  bool      // half-open: the single probe is in flight
}

// AdmissionStats are the admission controller's counters.
type AdmissionStats struct {
	// Shed counts deferral events: requests pushed to a later generation
	// by the statement quota or the SLO batch cap (a request deferred k
	// generations counts k times).
	Shed uint64
	// Rejected counts submissions refused with ErrOverloaded.
	Rejected uint64
	// BreakerTrips counts closed→open and half-open→open transitions.
	BreakerTrips uint64
	// QueueDepth is the current submission queue length including router
	// reservations (never exceeds Config.QueueDepthLimit when set).
	QueueDepth int
}

// admission is the engine's admission controller. All fields are guarded by
// the engine mutex; every method must be called with it held.
type admission struct {
	maxDelay   time.Duration // SLO; 0 disables SLO sizing and the breaker
	queueLimit int           // 0 = unlimited
	quota      int           // per-statement activations per generation; 0 = unlimited
	strikes    int           // breaker trip threshold
	cooldown   time.Duration // open → half-open delay
	now        func() time.Time

	// Breaker, quota and cost state key on the statement's SQL text. Prepare
	// registers one handle per text, so a re-prepared ad-hoc text meets its
	// own quarantine at Submit; the text is also the identity the plan
	// layer shares operators by.
	costNs       float64 // EWMA of per-request generation cost in ns
	breakers     map[string]*breaker
	stmtCost     map[string]*costRing // per-statement attributed cycle cost
	quotaScratch map[string]int       // formBatch per-call counts, reused

	shed     uint64
	rejected uint64
	trips    uint64
}

// newAdmission resolves the admission knobs. Negative values (rejected by
// Config.Validate on the public path) are clamped to "disabled" as a
// backstop, mirroring how New clamps Workers and MaxInFlightGenerations.
// State a limit needs is allocated only when that limit is on: the breaker
// and cost maps with the SLO, the quota scratch with the quota.
func newAdmission(cfg Config) *admission {
	maxDelay := cfg.MaxGenerationDelay
	if maxDelay < 0 {
		maxDelay = 0
	}
	queueLimit := cfg.QueueDepthLimit
	if queueLimit < 0 {
		queueLimit = 0
	}
	quota := cfg.StatementQuota
	if quota < 0 {
		quota = 0
	}
	a := &admission{
		maxDelay:   maxDelay,
		queueLimit: queueLimit,
		quota:      quota,
		strikes:    DefaultBreakerStrikes,
		cooldown:   defaultCooldownFactor * maxDelay,
		now:        time.Now,
	}
	if maxDelay > 0 {
		a.breakers = map[string]*breaker{}
		a.stmtCost = map[string]*costRing{}
	}
	if quota > 0 {
		a.quotaScratch = map[string]int{}
	}
	return a
}

// costRingSamples is how many recent generations of attributed cost each
// statement retains for the adaptive SLO predictor.
const costRingSamples = 8

// costRing is one statement's bounded history of attributed per-generation
// cycle cost (nanoseconds).
type costRing struct {
	samples [costRingSamples]float64
	n, idx  int
}

func (r *costRing) push(v float64) {
	r.samples[r.idx] = v
	r.idx = (r.idx + 1) % costRingSamples
	if r.n < costRingSamples {
		r.n++
	}
}

// predict estimates the statement's next-generation cost: the p75 of the
// retained samples (robust to a single outlier generation in either
// direction) once at least four exist, the mean before that.
func (r *costRing) predict() float64 {
	if r.n == 0 {
		return 0
	}
	if r.n < 4 {
		var sum float64
		for i := 0; i < r.n; i++ {
			sum += r.samples[i]
		}
		return sum / float64(r.n)
	}
	var buf [costRingSamples]float64
	copy(buf[:], r.samples[:r.n])
	s := buf[:r.n]
	sort.Float64s(s)
	return s[len(s)*3/4]
}

// admit decides whether one submission may join the queue at the given
// current depth (pending + reservations). It returns nil to admit or a
// *OverloadError to reject. The queue-depth check runs first so a full
// queue never consumes a half-open breaker's probe slot.
func (a *admission) admit(stmt *plan.Statement, depth int) error {
	if a.queueLimit > 0 && depth >= a.queueLimit {
		a.rejected++
		return &OverloadError{
			Reason:     fmt.Sprintf("submission queue at depth limit %d", a.queueLimit),
			RetryAfter: a.drainEstimate(depth),
		}
	}
	// The breaker guards read plans: writes do not traverse the shared
	// operator DAG, so they cannot blow a read cycle's SLO by themselves.
	if stmt != nil && !stmt.IsWrite() && a.maxDelay > 0 {
		if err := a.checkBreaker(stmt); err != nil {
			a.rejected++
			return err
		}
	}
	return nil
}

// drainEstimate predicts how long the current queue takes to drain — the
// retry hint on queue-depth rejections.
func (a *admission) drainEstimate(depth int) time.Duration {
	if a.costNs > 0 {
		return time.Duration(a.costNs * float64(depth+1))
	}
	if a.maxDelay > 0 {
		return a.maxDelay
	}
	return MinGenerationDelay
}

// checkBreaker runs the statement's quarantine state machine for one
// submission attempt.
func (a *admission) checkBreaker(stmt *plan.Statement) error {
	b := a.breakers[stmt.SQL]
	if b == nil || b.state == breakerClosed {
		return nil
	}
	// An open breaker rejects until its cooldown elapses, a half-open one
	// while its probe is in flight.
	if b.state == breakerOpen {
		if wait := b.openedAt.Add(a.cooldown).Sub(a.now()); wait > 0 {
			return &OverloadError{
				Reason:     fmt.Sprintf("statement quarantined by slow-query breaker (%d consecutive generations over the %v SLO)", b.strikes, a.maxDelay),
				RetryAfter: wait,
			}
		}
	} else if b.probing {
		return &OverloadError{
			Reason:     "statement breaker half-open: probe already in flight",
			RetryAfter: a.maxDelay,
		}
	}
	// Open past its cooldown, or half-open with the probe slot free: this
	// submission is the half-open probe.
	b.state, b.probing = breakerHalfOpen, true
	return nil
}

// sloCap converts the cost EWMA into the largest batch predicted to finish
// inside the SLO; 0 means "no cap" (SLO disabled, or no history yet).
func (a *admission) sloCap() int {
	if a.maxDelay <= 0 || a.costNs <= 0 {
		return 0
	}
	n := int(float64(a.maxDelay) / a.costNs)
	if n < 1 {
		n = 1 // a generation always admits at least one request
	}
	return n
}

// sloLimit picks the largest batch prefix predicted to finish inside the
// SLO (0 = no cap). With per-statement cost history (the engine's cycle
// attribution) it walks the queue accumulating each request's predicted
// cost — charging each distinct statement once, since shared execution
// folds duplicate activations into the same operator pass — and cuts at
// the first request past the budget, a strict positional suffix shed.
// Requests with no history are charged the uniform EWMA estimate. Without
// any per-statement history it falls back to the EWMA-only sloCap.
func (a *admission) sloLimit(pending []*Request) int {
	if a.maxDelay <= 0 {
		return 0
	}
	if len(a.stmtCost) == 0 {
		return a.sloCap()
	}
	budget := float64(a.maxDelay)
	var acc float64
	charged := make(map[string]bool, len(pending))
	for i, r := range pending {
		var c float64
		if r.Stmt != nil {
			if ring := a.stmtCost[r.Stmt.SQL]; ring != nil {
				if !charged[r.Stmt.SQL] {
					charged[r.Stmt.SQL] = true
					c = ring.predict()
				}
			} else {
				c = a.costNs
			}
		} else {
			c = a.costNs
		}
		acc += c
		if acc > budget && i > 0 {
			return i // a generation always admits at least one request
		}
	}
	return 0
}

// formBatch partitions the pending queue into the batch this generation
// admits and the remainder shed to the next one, preserving arrival order
// in both. The batch compacts in place over pending's backing array; rest is
// freshly allocated (it becomes the new pending queue).
func (a *admission) formBatch(pending []*Request) (batch, rest []*Request) {
	limit := len(pending)
	if c := a.sloLimit(pending); c > 0 && c < limit {
		limit = c
	}
	if limit == len(pending) && a.quota == 0 {
		return pending, nil
	}
	counts := a.quotaScratch
	batch = pending[:0]
	for _, r := range pending {
		// The quota is a read-cycle fairness knob and deliberately skips
		// writes (and tx commits, which have no Stmt): quota shedding is
		// NON-positional — it defers a mid-queue request past later
		// arrivals — which is harmless for reads (they just run at a later
		// snapshot) but would reorder the write stream. Since every shard
		// engine forms generation windows independently, a reordered
		// broadcast-write stream would apply in different orders on
		// different shards and diverge replicated copies; the positional
		// SLO cap above only ever defers a strict suffix, so
		// relative order — and cross-shard write order — is preserved.
		quotaEligible := a.quota > 0 && r.Stmt != nil && !r.Stmt.IsWrite()
		switch {
		case len(batch) >= limit:
			rest = append(rest, r)
			a.shed++
		case quotaEligible && counts[r.Stmt.SQL] >= a.quota:
			rest = append(rest, r)
			a.shed++
		default:
			if quotaEligible {
				counts[r.Stmt.SQL]++
			}
			batch = append(batch, r)
		}
	}
	for k := range counts {
		delete(counts, k)
	}
	return batch, rest
}

// maxBreakers bounds the quarantine map: beyond it, new slow statements
// are not tracked (existing breakers keep working) instead of growing the
// map per unique ad-hoc SQL text forever. SLO-met generations delete their
// statements' entries, so a healthy workload stays far below the cap.
const maxBreakers = 4096

// recordGenerationCosts feeds one completed generation back into the
// controller: the cost EWMA that sizes future batches, the per-statement
// cost rings behind the adaptive SLO cap, and — for read-bearing
// generations — a strike or a reset for every distinct read statement the
// generation contained (write-only generations pass nil stmts).
//
// costs is the generation's attributed operator time per statement SQL (nil
// when attribution is off). On a blown generation with attribution, a
// statement is struck only when its share is at or above the generation's
// per-statement average; below-average statements are spared AND reset —
// the attribution is positive evidence they are not the slow plan, so a
// light query co-batched with a heavy one never accumulates strikes.
func (a *admission) recordGenerationCosts(stmts []*plan.Statement, d time.Duration, batchSize int, costs map[string]int64) {
	if batchSize > 0 {
		per := float64(d) / float64(batchSize)
		if a.costNs == 0 {
			a.costNs = per
		} else {
			a.costNs = costAlpha*per + (1-costAlpha)*a.costNs
		}
	}
	if a.maxDelay <= 0 {
		return
	}
	// Adaptive SLO feed: one attributed-cost sample per statement per
	// generation. Totaled over the generation's statements only — standing
	// queries are attributed in costs too, but blame among the batch is
	// relative to the batch.
	var total int64
	if costs != nil {
		for _, s := range stmts {
			c := costs[s.SQL]
			total += c
			if c <= 0 {
				continue
			}
			ring := a.stmtCost[s.SQL]
			if ring == nil {
				if len(a.stmtCost) >= maxBreakers {
					continue
				}
				ring = &costRing{}
				a.stmtCost[s.SQL] = ring
			}
			ring.push(float64(c))
		}
	}
	blown := d > a.maxDelay
	attributed := blown && total > 0
	for _, s := range stmts {
		b := a.breakers[s.SQL]
		spared := !blown ||
			(attributed && costs[s.SQL]*int64(len(stmts)) < total)
		if spared {
			// Either the generation met the SLO, or attribution shows this
			// statement carried less than its share of a blown one: reset
			// (this is also how a successful half-open probe closes the
			// breaker).
			if b != nil {
				delete(a.breakers, s.SQL)
			}
			continue
		}
		if b == nil {
			if len(a.breakers) >= maxBreakers {
				continue
			}
			b = &breaker{}
			a.breakers[s.SQL] = b
		}
		switch b.state {
		case breakerClosed:
			b.strikes++
			if b.strikes >= a.strikes {
				b.state = breakerOpen
				b.openedAt = a.now()
				a.trips++
			}
		case breakerHalfOpen:
			// Failed probe: re-trip for another cooldown.
			b.state = breakerOpen
			b.openedAt = a.now()
			b.probing = false
			a.trips++
		case breakerOpen:
			// A pre-trip activation finished late; the breaker is already
			// doing its job.
		}
	}
}
