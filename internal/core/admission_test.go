package core

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"shareddb/internal/baseline"
	"shareddb/internal/dbapi"
	"shareddb/internal/expr"
	"shareddb/internal/plan"
	"shareddb/internal/sql"
	"shareddb/internal/storage"
	"shareddb/internal/types"
)

// --- controller unit tests (engine mutex not required: single goroutine) ---

// TestAdmissionDisabledIsNil: with every limit at zero the controller holds
// no breaker, cost or quota state (nil maps) and passes everything through.
func TestAdmissionDisabledIsNil(t *testing.T) {
	s := &plan.Statement{ID: 1, SQL: "SELECT a"}
	// Negative values are clamped to disabled (Validate rejects them on the
	// public path; New must not blow up on raw internal use).
	for _, cfg := range []Config{{}, {MaxGenerationDelay: -1, QueueDepthLimit: -2, StatementQuota: -3}} {
		a := newAdmission(cfg)
		if a.breakers != nil || a.stmtCost != nil || a.quotaScratch != nil {
			t.Fatalf("disabled controller allocated state: %+v", a)
		}
		if err := a.admit(s, 1<<20); err != nil {
			t.Fatalf("disabled controller rejected: %v", err)
		}
		a.recordGenerationCosts([]*plan.Statement{s}, time.Hour, 1, nil)
		pending := mkReqs(s, s, s)
		if batch, rest := a.formBatch(pending); len(batch) != 3 || rest != nil || a.shed != 0 {
			t.Fatalf("disabled controller formed %d / shed %d, want the whole queue", len(batch), len(rest))
		}
		if a.breakers != nil {
			t.Fatalf("an hour-long generation struck a statement with the breaker off: %v", a.breakers)
		}
	}
	if a := newAdmission(Config{QueueDepthLimit: 1}); a.admit(s, 1) == nil {
		t.Fatal("a single non-zero limit must take effect")
	}
}

func TestOverloadErrorIsAndAs(t *testing.T) {
	err := error(&dbapi.OverloadError{Reason: "queue full", RetryAfter: 3 * time.Millisecond})
	if !errors.Is(err, dbapi.ErrOverloaded) {
		t.Fatal("OverloadError must match errors.Is(err, ErrOverloaded)")
	}
	var oe *dbapi.OverloadError
	if !errors.As(err, &oe) || oe.RetryAfter != 3*time.Millisecond {
		t.Fatalf("errors.As must recover the retry hint, got %+v", oe)
	}
}

func TestAdmitQueueDepthBoundary(t *testing.T) {
	a := newAdmission(Config{QueueDepthLimit: 4})
	// depth below the limit admits, at the limit rejects: the limit is the
	// max depth the queue ever reaches.
	if err := a.admit(nil, 3); err != nil {
		t.Fatalf("depth 3 of limit 4 must admit: %v", err)
	}
	err := a.admit(nil, 4)
	if !errors.Is(err, dbapi.ErrOverloaded) {
		t.Fatalf("depth 4 of limit 4 must reject with ErrOverloaded, got %v", err)
	}
	var oe *dbapi.OverloadError
	if !errors.As(err, &oe) || oe.RetryAfter <= 0 {
		t.Fatalf("queue rejection needs a positive retry hint, got %+v", oe)
	}
	if a.rejected != 1 {
		t.Fatalf("rejected counter = %d, want 1", a.rejected)
	}
}

// mkReqs builds synthetic requests: one per statement in stmts, in order.
func mkReqs(stmts ...*plan.Statement) []*Request {
	out := make([]*Request, len(stmts))
	for i, s := range stmts {
		out[i] = &Request{Stmt: s, Result: &Result{done: make(chan struct{})}}
	}
	return out
}

func TestFormBatchQuotaExactlyAtBoundary(t *testing.T) {
	a := newAdmission(Config{StatementQuota: 2})
	// Quota identity is the SQL text (ad-hoc prepares make fresh handles).
	sa := &plan.Statement{ID: 1, SQL: "SELECT a"}
	sb := &plan.Statement{ID: 2, SQL: "SELECT b"}

	// Exactly at the quota: everything admits, nothing sheds.
	pending := mkReqs(sa, sa, sb)
	batch, rest := a.formBatch(pending)
	if len(batch) != 3 || len(rest) != 0 || a.shed != 0 {
		t.Fatalf("at-boundary batch: got %d admitted, %d shed (counter %d), want 3/0/0",
			len(batch), len(rest), a.shed)
	}

	// One over: the third activation of sa sheds, arrival order preserved
	// in both partitions.
	pending = mkReqs(sa, sa, sa, sb)
	third := pending[2]
	batch, rest = a.formBatch(pending)
	if len(batch) != 3 || len(rest) != 1 {
		t.Fatalf("over-quota: got %d admitted, %d shed, want 3/1", len(batch), len(rest))
	}
	if batch[0].Stmt != sa || batch[1].Stmt != sa || batch[2].Stmt != sb {
		t.Fatalf("admitted order broken: %v", []*plan.Statement{batch[0].Stmt, batch[1].Stmt, batch[2].Stmt})
	}
	if rest[0] != third {
		t.Fatal("the shed request must be the third (over-quota) activation of sa")
	}
	if a.shed != 1 {
		t.Fatalf("shed counter = %d, want 1", a.shed)
	}

	// Quota scratch is cleared between calls: the same statement admits
	// again next generation.
	batch, rest = a.formBatch(mkReqs(sa, sa))
	if len(batch) != 2 || len(rest) != 0 {
		t.Fatalf("fresh generation must re-admit up to quota, got %d/%d", len(batch), len(rest))
	}

	// A distinct handle with the same SQL (the ad-hoc path re-preparing)
	// shares sa's quota bucket.
	saAdhoc := &plan.Statement{ID: 9, SQL: "SELECT a"}
	batch, rest = a.formBatch(mkReqs(sa, saAdhoc, saAdhoc))
	if len(batch) != 2 || len(rest) != 1 {
		t.Fatalf("same-SQL handles must share the quota, got %d/%d", len(batch), len(rest))
	}

	// Writes are exempt: quota shedding is non-positional and would
	// reorder the write stream (divergent replicated copies on shards).
	wr := &plan.Statement{ID: 3, SQL: "UPDATE t", Write: &sql.WritePlan{}}
	batch, rest = a.formBatch(mkReqs(wr, wr, wr, wr))
	if len(batch) != 4 || len(rest) != 0 {
		t.Fatalf("writes must bypass the quota, got %d admitted / %d shed", len(batch), len(rest))
	}
}

func TestFormBatchSLOCapFloorsAtOne(t *testing.T) {
	a := newAdmission(Config{MaxGenerationDelay: 10 * time.Millisecond})
	s := &plan.Statement{ID: 1}

	// No cost history: the SLO cannot size the batch yet, everything admits.
	batch, rest := a.formBatch(mkReqs(s, s, s, s))
	if len(batch) != 4 || rest != nil {
		t.Fatalf("no-history SLO must not cap, got %d/%d", len(batch), len(rest))
	}

	// 4ms per request observed → a 10ms SLO admits 2 per generation.
	a.recordGenerationCosts(nil, 4*time.Millisecond, 1, nil)
	if c := a.sloLimit(mkReqs(s, s, s, s)); c != 2 {
		t.Fatalf("sloLimit = %d, want 2 (10ms SLO / 4ms cost)", c)
	}
	batch, rest = a.formBatch(mkReqs(s, s, s, s))
	if len(batch) != 2 || len(rest) != 2 {
		t.Fatalf("SLO cap: got %d admitted, %d shed, want 2/2", len(batch), len(rest))
	}
	if a.shed != 2 {
		t.Fatalf("SLO deferrals must count as shed, got %d want 2", a.shed)
	}

	// A cost spike cannot starve the engine — the cap floors at one
	// request per generation.
	a.costNs = float64(time.Second)
	if c := a.sloLimit(mkReqs(s, s, s)); c != 1 {
		t.Fatalf("sloLimit with cost >> SLO = %d, want floor of 1", c)
	}
	if batch, _ = a.formBatch(mkReqs(s, s, s)); len(batch) != 1 {
		t.Fatalf("cost >> SLO must still admit 1 per generation, got %d", len(batch))
	}
}

// TestSLOLimitWithoutHistory pins the one SLO-cap rule: with no statement
// cost history every request is charged the cost EWMA, so a queue longer
// than the SLO admits max(1, ⌊SLO/cost⌋) and a shorter one is not cut.
// Costs are whole nanoseconds, so the walk's running sum is exact.
func TestSLOLimitWithoutHistory(t *testing.T) {
	s := &plan.Statement{ID: 1, SQL: "SELECT 1"}
	for _, slo := range []time.Duration{time.Millisecond, 7 * time.Millisecond, 10 * time.Millisecond, 50 * time.Millisecond} {
		for _, cost := range []time.Duration{300 * time.Microsecond, time.Millisecond, 3 * time.Millisecond, 10 * time.Millisecond, 80 * time.Millisecond} {
			for _, n := range []int{1, 2, 5, 33, 200} {
				a := newAdmission(Config{MaxGenerationDelay: slo})
				a.recordGenerationCosts(nil, cost, 1, nil)
				queue := make([]*Request, n)
				for i := range queue {
					queue[i] = &Request{Stmt: s}
				}
				want := max(1, int(slo/cost))
				if want >= n {
					want = 0 // the whole queue fits: no cut
				}
				if got := a.sloLimit(queue); got != want {
					t.Errorf("SLO %v, cost %v, queue %d: cut at %d, want %d", slo, cost, n, got, want)
				}
			}
		}
	}
}

func TestBreakerTripHalfOpenResetCycle(t *testing.T) {
	a := newAdmission(Config{MaxGenerationDelay: 10 * time.Millisecond})
	if a.strikes != DefaultBreakerStrikes || a.cooldown != 80*time.Millisecond {
		t.Fatalf("breaker rule = %d strikes / %v cooldown, want %d / 8×SLO", a.strikes, a.cooldown, DefaultBreakerStrikes)
	}
	a.strikes, a.cooldown = 2, 100*time.Millisecond
	clock := time.Unix(0, 0)
	a.now = func() time.Time { return clock }
	s := &plan.Statement{ID: 7, SQL: "SELECT slow"}
	slow, fast := 20*time.Millisecond, 2*time.Millisecond

	// One strike: still closed.
	a.recordGenerationCosts([]*plan.Statement{s}, slow, 1, nil)
	if err := a.admit(s, 0); err != nil {
		t.Fatalf("one strike of two must stay closed: %v", err)
	}
	// An SLO-met generation resets the strike count.
	a.recordGenerationCosts([]*plan.Statement{s}, fast, 1, nil)
	a.recordGenerationCosts([]*plan.Statement{s}, slow, 1, nil)
	if err := a.admit(s, 0); err != nil {
		t.Fatalf("strikes must reset after a fast generation: %v", err)
	}

	// Two consecutive strikes: trips.
	a.recordGenerationCosts([]*plan.Statement{s}, slow, 1, nil)
	err := a.admit(s, 0)
	if !errors.Is(err, dbapi.ErrOverloaded) {
		t.Fatalf("tripped breaker must reject, got %v", err)
	}
	var oe *dbapi.OverloadError
	if !errors.As(err, &oe) || oe.RetryAfter <= 0 || oe.RetryAfter > 100*time.Millisecond {
		t.Fatalf("open-breaker retry hint must be the remaining cooldown, got %+v", oe)
	}
	if a.trips != 1 {
		t.Fatalf("trips = %d, want 1", a.trips)
	}

	// Mid-cooldown: still rejecting, hint shrinks with the clock.
	clock = clock.Add(60 * time.Millisecond)
	if err := a.admit(s, 0); err == nil {
		t.Fatal("mid-cooldown must still reject")
	} else if errors.As(err, &oe) && oe.RetryAfter > 40*time.Millisecond {
		t.Fatalf("retry hint must shrink to the remaining cooldown, got %v", oe.RetryAfter)
	}

	// Cooldown elapsed: the breaker stays open until a submission arrives,
	// then half-open admits exactly one probe.
	clock = clock.Add(41 * time.Millisecond)
	if b := a.breakers[s.SQL]; b.state != breakerOpen || b.probing {
		t.Fatalf("the cooldown alone must not move the breaker, got %v (probing %v)", b.state, b.probing)
	}
	if err := a.admit(s, 0); err != nil {
		t.Fatalf("half-open must admit the probe: %v", err)
	}
	if b := a.breakers[s.SQL]; b.state != breakerHalfOpen || !b.probing {
		t.Fatalf("the admitted probe must leave the breaker half-open with its probe in flight, got %v (probing %v)", b.state, b.probing)
	}
	if err := a.admit(s, 0); !errors.Is(err, dbapi.ErrOverloaded) {
		t.Fatalf("second submission during the probe must reject, got %v", err)
	}

	// Failed probe: re-trips for another full cooldown.
	a.recordGenerationCosts([]*plan.Statement{s}, slow, 1, nil)
	if a.trips != 2 {
		t.Fatalf("failed probe must count a trip, got %d", a.trips)
	}
	if err := a.admit(s, 0); !errors.Is(err, dbapi.ErrOverloaded) {
		t.Fatalf("re-tripped breaker must reject, got %v", err)
	}

	// Cooldown again, probe again — this time it meets the SLO: full reset.
	clock = clock.Add(101 * time.Millisecond)
	if err := a.admit(s, 0); err != nil {
		t.Fatalf("second probe must admit: %v", err)
	}
	a.recordGenerationCosts([]*plan.Statement{s}, fast, 1, nil)
	if _, quarantined := a.breakers[s.SQL]; quarantined {
		t.Fatal("successful probe must fully reset (delete) the breaker")
	}
	for i := 0; i < 3; i++ {
		if err := a.admit(s, 0); err != nil {
			t.Fatalf("closed breaker must admit freely: %v", err)
		}
	}
}

// TestWriteOnlyGenerationsFeedCostEWMA: a pure-write workload must still
// train the SLO batch cap — otherwise a write burst leaves costNs at zero
// and generations drain unboundedly against a configured SLO.
func TestWriteOnlyGenerationsFeedCostEWMA(t *testing.T) {
	db, closeDB := bookstore(t)
	defer closeDB()
	e := New(db, plan.New(db), Config{MaxGenerationDelay: 50 * time.Millisecond})
	defer e.Close()
	w := mustPrepare(t, e, "UPDATE item SET i_price = i_price + 1 WHERE i_id = ?")
	for i := 0; i < 3; i++ {
		if err := e.Submit(w, []types.Value{types.NewInt(int64(i))}).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	e.mu.Lock()
	cost := e.adm.costNs
	e.mu.Unlock()
	if cost <= 0 {
		t.Fatal("write-only generations must feed the cost EWMA")
	}
}

// --- Validate ---

func TestValidateConfig(t *testing.T) {
	valid := []Config{
		{}, // 0 selects the default pipeline depth
		{MaxInFlightGenerations: 1},
		{MaxInFlightGenerations: 4},
		{MaxGenerationDelay: time.Millisecond},
		{MaxGenerationDelay: 50 * time.Millisecond, QueueDepthLimit: 10, StatementQuota: 5},
		{QueueDepthLimit: 1},
	}
	for _, cfg := range valid {
		if err := cfg.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", cfg, err)
		}
	}
	invalid := []Config{
		{MaxInFlightGenerations: -1},
		{MaxGenerationDelay: -time.Millisecond},
		{MaxGenerationDelay: 500 * time.Microsecond}, // below timer resolution
		{MaxGenerationDelay: time.Nanosecond},
		{QueueDepthLimit: -1},
		{StatementQuota: -1},
		{StatementQuota: -7, Heartbeat: time.Millisecond}, // negative quota with other knobs fine
		{QueueDepthLimit: -3, MaxInFlightGenerations: 2},  // negative depth with other knobs fine
	}
	for _, cfg := range invalid {
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", cfg)
		}
	}
}

// --- engine-level tests ---

// TestAdmissionNonBindingDifferential pins the differential guarantee the
// tentpole must not break: with admission ENABLED but every limit far above
// the workload, results are identical to the query-at-a-time oracle (and
// nothing is shed or rejected) — the admission path may observe, but not
// perturb.
func TestAdmissionNonBindingDifferential(t *testing.T) {
	db, closeDB := bookstore(t)
	defer closeDB()
	gp := plan.New(db)
	e := New(db, gp, Config{
		MaxGenerationDelay: 10 * time.Second,
		QueueDepthLimit:    1 << 20,
		StatementQuota:     1 << 20,
	})
	defer e.Close()
	qat := baseline.New(db, baseline.SystemXLike)

	templates := []struct {
		sql     string
		mkParam func(r *rand.Rand) []types.Value
	}{
		{"SELECT i_title, i_price FROM item WHERE i_id = ?",
			func(r *rand.Rand) []types.Value { return []types.Value{types.NewInt(int64(r.Intn(120)))} }},
		{"SELECT i_id, i_title FROM item WHERE i_subject = ?",
			func(r *rand.Rand) []types.Value {
				subjects := []string{"ARTS", "SCIENCE", "HISTORY", "COOKING"}
				return []types.Value{types.NewString(subjects[r.Intn(len(subjects))])}
			}},
		{"SELECT i_subject, COUNT(*), AVG(i_price) FROM item WHERE i_price > ? GROUP BY i_subject",
			func(r *rand.Rand) []types.Value { return []types.Value{types.NewFloat(r.Float64() * 100)} }},
		{"SELECT i_title, a_lname FROM item, author WHERE i_a_id = a_id AND i_subject = ?",
			func(r *rand.Rand) []types.Value { return []types.Value{types.NewString("ARTS")} }},
	}
	sharedStmts := make([]*plan.Statement, len(templates))
	qatStmts := make([]*baseline.Stmt, len(templates))
	for i, tpl := range templates {
		sharedStmts[i] = mustPrepare(t, e, tpl.sql)
		var err error
		qatStmts[i], err = qat.Prepare(tpl.sql)
		if err != nil {
			t.Fatal(err)
		}
	}
	r := rand.New(rand.NewSource(2027))
	for round := 0; round < 8; round++ {
		n := 1 + r.Intn(24)
		idxs := make([]int, n)
		params := make([][]types.Value, n)
		results := make([]*Result, n)
		for i := 0; i < n; i++ {
			idxs[i] = r.Intn(len(templates))
			params[i] = templates[idxs[i]].mkParam(r)
			results[i] = e.Submit(sharedStmts[idxs[i]], params[i])
		}
		for i := 0; i < n; i++ {
			if err := results[i].Wait(); err != nil {
				t.Fatalf("round %d query %d: %v", round, i, err)
			}
			want, err := qatStmts[idxs[i]].Exec(params[i])
			if err != nil {
				t.Fatal(err)
			}
			if !sameRows(results[i].Rows, want.Rows) {
				t.Fatalf("round %d: mismatch for %q %v", round, templates[idxs[i]].sql, params[i])
			}
		}
	}
	stats := e.Stats()
	if stats.Rejected != 0 || stats.BreakerTrips != 0 {
		t.Fatalf("non-binding limits must not reject or trip: %+v", stats)
	}
}

// TestAdmitReserveRelease pins the router's all-or-nothing seam: a
// reservation consumes queue capacity until released or consumed by
// SubmitTxReserved.
func TestAdmitReserveRelease(t *testing.T) {
	db, closeDB := bookstore(t)
	defer closeDB()
	e := New(db, plan.New(db), Config{QueueDepthLimit: 2})
	defer e.Close()

	if err := e.AdmitReserve(); err != nil {
		t.Fatalf("first reservation: %v", err)
	}
	if err := e.AdmitReserve(); err != nil {
		t.Fatalf("second reservation: %v", err)
	}
	if err := e.AdmitReserve(); !errors.Is(err, dbapi.ErrOverloaded) {
		t.Fatalf("third reservation at limit 2 must reject, got %v", err)
	}
	e.AdmitRelease()
	if err := e.AdmitReserve(); err != nil {
		t.Fatalf("reservation after release: %v", err)
	}
	// Consume both reservations through the reserved commit path; the
	// commits execute normally.
	var results []*Result
	for _, id := range []int64{1, 2} {
		op := storage.WriteOp{Table: "author", Kind: storage.WUpdate,
			Pred: &expr.Cmp{Op: expr.EQ, L: &expr.ColRef{Idx: 0}, R: &expr.Const{Val: types.NewInt(id)}},
			Set:  []storage.ColSet{{Col: 1, Val: &expr.Const{Val: types.NewString("Reserved")}}}}
		results = append(results, e.SubmitTxReserved(db.Autocommit(op)))
	}
	for _, r := range results {
		if err := r.Wait(); err != nil || r.RowsAffected != 1 {
			t.Fatalf("reserved commit: affected %d, err %v", r.RowsAffected, err)
		}
	}
	if depth := e.Stats().QueueDepth; depth != 0 {
		t.Fatalf("reservations must be consumed, queue depth = %d", depth)
	}
}

// TestBreakerQuarantinesSlowStatement drives the breaker end to end on a
// real engine: a statement whose generations reliably blow a 1ms SLO trips
// after two strikes, rejects while open, and admits a half-open probe after
// the cooldown.
func TestBreakerQuarantinesSlowStatement(t *testing.T) {
	db, closeDB := bigTable(t, 60000)
	defer closeDB()
	e := New(db, plan.New(db), Config{
		MaxGenerationDelay: MinGenerationDelay, // 1ms: the scan+sort below cannot meet it
	})
	defer e.Close()
	e.mu.Lock()
	e.adm.strikes, e.adm.cooldown = 2, 50*time.Millisecond
	e.mu.Unlock()

	heavy := mustPrepare(t, e, "SELECT b_id FROM big WHERE b_pad LIKE '%x%' ORDER BY b_val")
	for i := 0; i < 2; i++ {
		if err := e.Submit(heavy, nil).Wait(); err != nil {
			t.Fatalf("pre-trip generation %d: %v", i, err)
		}
	}
	// Two consecutive over-SLO generations: quarantined.
	err := e.Submit(heavy, nil).Wait()
	if !errors.Is(err, dbapi.ErrOverloaded) {
		t.Fatalf("statement must be quarantined after 2 slow generations, got %v", err)
	}
	if trips := e.Stats().BreakerTrips; trips != 1 {
		t.Fatalf("BreakerTrips = %d, want 1", trips)
	}
	// The ad-hoc retry of a quarantined text: re-preparing it is a registry
	// hit that returns the same handle without touching the pipeline, and
	// the submission is rejected at Submit, counted once.
	heavyAdhoc := mustPrepare(t, e, heavy.SQL)
	if heavyAdhoc != heavy {
		t.Fatal("re-preparing a registered text must return its handle")
	}
	rejected := e.Stats().Rejected
	if err := e.Submit(heavyAdhoc, nil).Wait(); !errors.Is(err, dbapi.ErrOverloaded) {
		t.Fatalf("the re-prepared quarantined statement must reject, got %v", err)
	}
	if got := e.Stats().Rejected; got != rejected+1 {
		t.Fatalf("the quarantined retry must count one rejection: Rejected %d → %d", rejected, got)
	}
	// After the cooldown a probe is admitted; it is still slow, so the
	// breaker re-trips and the next submission rejects again.
	time.Sleep(60 * time.Millisecond)
	if err := e.Submit(heavy, nil).Wait(); err != nil {
		t.Fatalf("half-open probe must be admitted and answered: %v", err)
	}
	if err := e.Submit(heavy, nil).Wait(); !errors.Is(err, dbapi.ErrOverloaded) {
		t.Fatalf("failed probe must re-quarantine, got %v", err)
	}
	if trips := e.Stats().BreakerTrips; trips != 2 {
		t.Fatalf("BreakerTrips = %d, want 2", trips)
	}
}
