package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"shareddb/internal/baseline"
	"shareddb/internal/plan"
	"shareddb/internal/types"
)

// Incremental shared state and standing queries: the differential suites
// here pin (a) Config.Validate's boundaries for the pipeline depth the
// delta chain rides on and for the subscription buffer, (b) that the
// delta-maintained operator state returns exactly what the
// rebuild-every-generation reference and the query-at-a-time baseline
// return under interleaved write streams, and (c) that subscription delta
// streams compose to the same result a fresh per-generation query returns
// (the oracle).

// --- Validate boundaries ---

func TestValidateIncrementalConfig(t *testing.T) {
	valid := []Config{
		{},                          // 0 selects the default pipeline depth
		{MaxInFlightGenerations: 1}, // the boundary
		{MaxInFlightGenerations: 4},
		{SubscriptionBuffer: 1},
		{RebuildState: true, SubscriptionBuffer: 64},
	}
	for _, cfg := range valid {
		if err := cfg.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", cfg, err)
		}
	}
	// One rule, one message: the same bad depth reads the same whatever the
	// state switch says.
	depthErr := Config{MaxInFlightGenerations: -1}.Validate()
	if depthErr == nil {
		t.Fatal("Validate(MaxInFlightGenerations: -1) = nil, want error")
	}
	if err := (Config{MaxInFlightGenerations: -1, RebuildState: true}).Validate(); err == nil || err.Error() != depthErr.Error() {
		t.Errorf("negative depth with RebuildState = %v, want the same error as without: %v", err, depthErr)
	}
	for _, cfg := range []Config{{SubscriptionBuffer: -1}, {RebuildState: true, SubscriptionBuffer: -5}} {
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", cfg)
		}
	}
}

// --- incremental vs rebuild differential sweep ---

// TestIncrementalDifferentialSweep runs the same randomized repeat-read
// workload with interleaved writes through two engines over identical data
// — the reference one rebuilding operator state every generation, the
// production one maintaining it from write deltas — and requires identical
// per-query results, equal to the query-at-a-time baseline's. Reads repeat
// with stable parameters (the state-reuse condition) and the writes hit the
// join build side and every group-aggregate retraction path (SUM/COUNT/AVG
// subtract; MIN/MAX and COUNT(DISTINCT) rebuild per key).
func TestIncrementalDifferentialSweep(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			dbReb, closeReb := bookstore(t)
			defer closeReb()
			dbInc, closeInc := bookstore(t)
			defer closeInc()
			reb := New(dbReb, plan.New(dbReb), referenceConfig(workers))
			defer reb.Close()
			inc := New(dbInc, plan.New(dbInc), Config{Workers: workers})
			defer inc.Close()
			engines := []*Engine{reb, inc}
			qat := baseline.New(dbReb, baseline.SystemXLike)

			subjects := []string{"ARTS", "SCIENCE", "HISTORY", "COOKING"}
			reads := []struct {
				sql     string
				ordered bool
				mk      func(r *rand.Rand) []types.Value
			}{
				// Hash join with the item scan as build side (the per-query
				// predicate on the right keeps it off the index-join path).
				{"SELECT a_lname, i_title FROM author, item WHERE a_id = i_a_id AND i_price > ?", false,
					func(r *rand.Rand) []types.Value { return []types.Value{types.NewFloat(float64(r.Intn(90)))} }},
				// Subtractable aggregates.
				{"SELECT i_subject, COUNT(*), SUM(i_price), AVG(i_price) FROM item GROUP BY i_subject", false,
					func(*rand.Rand) []types.Value { return nil }},
				// Non-subtractable: per-key rebuild on retraction.
				{"SELECT i_subject, MIN(i_price), MAX(i_price) FROM item GROUP BY i_subject", false,
					func(*rand.Rand) []types.Value { return nil }},
				{"SELECT i_subject, COUNT(DISTINCT i_a_id) FROM item GROUP BY i_subject", false,
					func(*rand.Rand) []types.Value { return nil }},
				// Ordered with a full tie-break: row order must match too.
				{"SELECT i_id, i_price FROM item WHERE i_subject = ? ORDER BY i_price DESC, i_id LIMIT 8", true,
					func(r *rand.Rand) []types.Value {
						return []types.Value{types.NewString(subjects[r.Intn(len(subjects))])}
					}},
				// Plain shared scan (no stateful operator: the no-binding path).
				{"SELECT i_id, i_title FROM item WHERE i_subject = ?", false,
					func(r *rand.Rand) []types.Value {
						return []types.Value{types.NewString(subjects[r.Intn(len(subjects))])}
					}},
			}
			writes := []struct {
				sql string
				mk  func(r *rand.Rand, nextID *int64) []types.Value
			}{
				{"INSERT INTO item VALUES (?, ?, ?, ?, ?)",
					func(r *rand.Rand, nextID *int64) []types.Value {
						id := *nextID
						*nextID++
						return []types.Value{types.NewInt(id),
							types.NewString(fmt.Sprintf("New %03d", id)),
							types.NewInt(int64(r.Intn(20))),
							types.NewString(subjects[r.Intn(len(subjects))]),
							types.NewFloat(float64(r.Intn(10000)) / 100)}
					}},
				{"UPDATE item SET i_price = ? WHERE i_id = ?",
					func(r *rand.Rand, _ *int64) []types.Value {
						return []types.Value{types.NewFloat(float64(r.Intn(10000)) / 100),
							types.NewInt(int64(r.Intn(100)))}
					}},
				{"UPDATE item SET i_subject = ? WHERE i_id = ?",
					func(r *rand.Rand, _ *int64) []types.Value {
						return []types.Value{types.NewString(subjects[r.Intn(len(subjects))]),
							types.NewInt(int64(r.Intn(100)))}
					}},
				{"DELETE FROM item WHERE i_id = ?",
					func(r *rand.Rand, _ *int64) []types.Value {
						return []types.Value{types.NewInt(int64(r.Intn(100)))}
					}},
				{"INSERT INTO author VALUES (?, ?)",
					func(r *rand.Rand, nextID *int64) []types.Value {
						id := *nextID
						*nextID++
						return []types.Value{types.NewInt(id), types.NewString(fmt.Sprintf("Auth%03d", id))}
					}},
			}

			oracle := make([]*baseline.Stmt, len(reads))
			for i, tpl := range reads {
				var err error
				if oracle[i], err = qat.Prepare(tpl.sql); err != nil {
					t.Fatal(err)
				}
			}
			readStmts := make([][]*plan.Statement, len(engines))
			writeStmts := make([][]*plan.Statement, len(engines))
			for ei, e := range engines {
				for _, tpl := range reads {
					readStmts[ei] = append(readStmts[ei], mustPrepare(t, e, tpl.sql))
				}
				for _, tpl := range writes {
					writeStmts[ei] = append(writeStmts[ei], mustPrepare(t, e, tpl.sql))
				}
			}

			r := rand.New(rand.NewSource(int64(20260807 + workers)))
			nextID := int64(1000)
			doWrite := func() {
				wi := r.Intn(len(writes))
				params := writes[wi].mk(r, &nextID)
				for ei, e := range engines {
					res := e.Submit(writeStmts[ei][wi], params)
					if err := res.Wait(); err != nil {
						t.Fatalf("write %q on engine %d: %v", writes[wi].sql, ei, err)
					}
				}
			}
			for round := 0; round < 30; round++ {
				if r.Intn(2) == 0 {
					doWrite()
				}
				ti := r.Intn(len(reads))
				params := reads[ti].mk(r)
				// Repeats with identical parameters are where state reuse
				// engages; a write in the middle forces a delta application.
				repeats := 1 + r.Intn(3)
				for j := 0; j < repeats; j++ {
					if j > 0 && r.Intn(3) == 0 {
						doWrite()
					}
					got := run(t, inc, readStmts[1][ti], params...)
					want := run(t, reb, readStmts[0][ti], params...)
					base, err := oracle[ti].Exec(params)
					if err != nil {
						t.Fatal(err)
					}
					if !sameRows(want.Rows, base.Rows) {
						t.Fatalf("round %d repeat %d: %q params %v:\nrebuild (%d): %v\nbaseline (%d): %v",
							round, j, reads[ti].sql, params,
							len(want.Rows), canon(want.Rows), len(base.Rows), canon(base.Rows))
					}
					if !sameRows(got.Rows, want.Rows) {
						t.Fatalf("round %d repeat %d: %q params %v:\nincremental (%d): %v\nrebuild (%d): %v",
							round, j, reads[ti].sql, params,
							len(got.Rows), canon(got.Rows), len(want.Rows), canon(want.Rows))
					}
					if reads[ti].ordered {
						for i := range got.Rows {
							if types.EncodeKey(got.Rows[i]...) != types.EncodeKey(want.Rows[i]...) {
								t.Fatalf("round %d: ordered row %d differs: %v vs %v",
									round, i, got.Rows[i], want.Rows[i])
							}
						}
					}
				}
			}
		})
	}
}

// --- subscription delta stream vs per-generation oracle ---

// applyUpdate folds one delivered update into the subscriber's tracked
// result, failing the test if a removal names a row the tracked state does
// not hold (a delta that could not have been produced by the real result).
func applyUpdate(t *testing.T, tracked []types.Row, u SubscriptionUpdate) []types.Row {
	t.Helper()
	if u.Full {
		return append([]types.Row{}, u.Rows...)
	}
	for _, rm := range u.Removed {
		k := types.EncodeKey(rm...)
		found := -1
		for i, row := range tracked {
			if types.EncodeKey(row...) == k {
				found = i
				break
			}
		}
		if found < 0 {
			t.Fatalf("delta removes row %v not present in tracked state", rm)
		}
		tracked = append(tracked[:found], tracked[found+1:]...)
	}
	return append(tracked, u.Added...)
}

// awaitState consumes updates until the tracked result equals want.
func awaitState(t *testing.T, sub *Subscription, tracked []types.Row, want []types.Row) []types.Row {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for !sameRows(tracked, want) {
		select {
		case u, ok := <-sub.Updates():
			if !ok {
				t.Fatalf("subscription closed while waiting for state: tracked %v want %v",
					canon(tracked), canon(want))
			}
			tracked = applyUpdate(t, tracked, u)
		case <-deadline:
			t.Fatalf("timed out converging subscription state:\ntracked (%d): %v\nwant (%d): %v",
				len(tracked), canon(tracked), len(want), canon(want))
		}
	}
	return tracked
}

// TestSubscriptionDeltasMatchOracle registers standing queries, drives a
// random write stream, and after every write checks that the subscription's
// delta stream converges the tracked result to exactly what a fresh query
// of the same statement returns — on the rebuild reference and in production.
func TestSubscriptionDeltasMatchOracle(t *testing.T) {
	for _, rebuild := range []bool{true, false} {
		t.Run(fmt.Sprintf("rebuild=%v", rebuild), func(t *testing.T) {
			db, closeDB := bookstore(t)
			defer closeDB()
			e := New(db, plan.New(db), Config{RebuildState: rebuild})
			defer e.Close()

			stmts := []struct {
				sql    string
				params []types.Value
			}{
				{"SELECT i_id, i_title, i_price FROM item WHERE i_subject = ?",
					[]types.Value{types.NewString("ARTS")}},
				{"SELECT a_lname, i_title FROM author, item WHERE a_id = i_a_id AND i_price > ?",
					[]types.Value{types.NewFloat(40)}},
				{"SELECT i_subject, COUNT(*), SUM(i_price) FROM item GROUP BY i_subject", nil},
			}
			subs := make([]*Subscription, len(stmts))
			readBack := make([]*plan.Statement, len(stmts))
			tracked := make([][]types.Row, len(stmts))
			for i, sp := range stmts {
				st := mustPrepare(t, e, sp.sql)
				readBack[i] = st
				sub, err := e.Subscribe(st, sp.params)
				if err != nil {
					t.Fatalf("Subscribe(%q): %v", sp.sql, err)
				}
				subs[i] = sub
			}
			// Initial delivery: a Full at some generation's snapshot.
			for i, sub := range subs {
				select {
				case u := <-sub.Updates():
					if !u.Full {
						t.Fatalf("sub %d: first delivery not Full: %+v", i, u)
					}
					tracked[i] = applyUpdate(t, nil, u)
				case <-time.After(10 * time.Second):
					t.Fatalf("sub %d: no initial full result", i)
				}
				want := run(t, e, readBack[i], stmts[i].params...)
				if !sameRows(tracked[i], want.Rows) {
					t.Fatalf("sub %d initial full mismatch: %v vs %v",
						i, canon(tracked[i]), canon(want.Rows))
				}
			}

			ins := mustPrepare(t, e, "INSERT INTO item VALUES (?, ?, ?, ?, ?)")
			upd := mustPrepare(t, e, "UPDATE item SET i_price = ? WHERE i_id = ?")
			del := mustPrepare(t, e, "DELETE FROM item WHERE i_id = ?")
			subjects := []string{"ARTS", "SCIENCE", "HISTORY", "COOKING"}
			r := rand.New(rand.NewSource(11))
			nextID := int64(500)
			for round := 0; round < 25; round++ {
				var res *Result
				switch r.Intn(3) {
				case 0:
					res = e.Submit(ins, []types.Value{types.NewInt(nextID),
						types.NewString(fmt.Sprintf("Sub %03d", nextID)),
						types.NewInt(int64(r.Intn(20))),
						types.NewString(subjects[r.Intn(len(subjects))]),
						types.NewFloat(float64(r.Intn(9000)) / 100)})
					nextID++
				case 1:
					res = e.Submit(upd, []types.Value{
						types.NewFloat(float64(r.Intn(9000)) / 100),
						types.NewInt(int64(r.Intn(100)))})
				default:
					res = e.Submit(del, []types.Value{types.NewInt(int64(r.Intn(100)))})
				}
				if err := res.Wait(); err != nil {
					t.Fatalf("round %d write: %v", round, err)
				}
				for i := range subs {
					want := run(t, e, readBack[i], stmts[i].params...)
					tracked[i] = awaitState(t, subs[i], tracked[i], want.Rows)
				}
			}

			st := e.Stats()
			if st.SubscriptionsActive != len(subs) {
				t.Errorf("SubscriptionsActive = %d, want %d", st.SubscriptionsActive, len(subs))
			}
			if st.SubscriptionUpdates == 0 {
				t.Error("SubscriptionUpdates = 0 after a delivered stream")
			}
			// Close detaches: the channel closes, the engine stops counting it,
			// and later generations proceed unperturbed.
			subs[0].Close()
			if _, ok := <-subs[0].Updates(); ok {
				// Drain anything buffered before the close; the channel must
				// eventually report closed.
				for range subs[0].Updates() {
				}
			}
			if got := e.Stats().SubscriptionsActive; got != len(subs)-1 {
				t.Errorf("SubscriptionsActive after Close = %d, want %d", got, len(subs)-1)
			}
			// A read after detach still runs fine.
			_ = run(t, e, readBack[2], stmts[2].params...)
		})
	}
}

// TestSubscriptionLagResync fills a tiny subscription buffer without
// draining it: the subscription must mark itself lagged and, once the
// subscriber drains, deliver a Full resync whose rows equal a fresh query.
func TestSubscriptionLagResync(t *testing.T) {
	db, closeDB := bookstore(t)
	defer closeDB()
	e := New(db, plan.New(db), Config{SubscriptionBuffer: 1})
	defer e.Close()

	st := mustPrepare(t, e, "SELECT i_id, i_price FROM item WHERE i_subject = ?")
	params := []types.Value{types.NewString("ARTS")}
	sub, err := e.Subscribe(st, params)
	if err != nil {
		t.Fatal(err)
	}
	upd := mustPrepare(t, e, "UPDATE item SET i_price = ? WHERE i_id = ?")
	// Do not drain: the 1-slot buffer holds the initial full result, so
	// every write generation's delivery (each write changes an ARTS row —
	// ids 0,4,8,12 all carry the ARTS subject) is dropped and marks the gap.
	for i := 0; i < 8; i++ {
		res := e.Submit(upd, []types.Value{types.NewFloat(float64(200 + i)), types.NewInt(int64(4 * (i % 4)))})
		if err := res.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for !sub.Lagged() {
		if time.Now().After(deadline) {
			t.Fatal("subscription never marked lagged with a full buffer")
		}
		time.Sleep(time.Millisecond)
	}

	// Recovery: the buffered update is the pre-gap initial full; the first
	// delivery to land after it must be a full resync, never a delta that
	// spans the gap.
	var first SubscriptionUpdate
	select {
	case first = <-sub.Updates():
	case <-time.After(10 * time.Second):
		t.Fatal("buffered initial delivery missing")
	}
	if !first.Full {
		t.Fatalf("pre-gap buffered delivery not full: %+v", first)
	}
	var resync SubscriptionUpdate
	select {
	case resync = <-sub.Updates():
	case <-time.After(time.Second):
		// Every write generation already delivered (and dropped) before the
		// drain: force one more generation to carry the resync.
		res := e.Submit(upd, []types.Value{types.NewFloat(999), types.NewInt(0)})
		if err := res.Wait(); err != nil {
			t.Fatal(err)
		}
		select {
		case resync = <-sub.Updates():
		case <-time.After(10 * time.Second):
			t.Fatal("no delivery after the gap")
		}
	}
	if !resync.Full {
		t.Fatalf("first post-gap delivery not a full resync: %+v", resync)
	}
	// Converge onto the live result. Deliveries for generations that ran
	// between the resync's snapshot and now may have been dropped into the
	// refilled 1-slot buffer (marking a fresh gap), so nudge generations
	// until the stream catches up — each nudge's delivery lands now that
	// the subscriber is draining, as a full resync whenever a gap reopened.
	tracked := append([]types.Row{}, resync.Rows...)
	nudge := 300.0
	convergeBy := time.Now().Add(15 * time.Second)
	for {
		want := run(t, e, st, params...)
		if sameRows(tracked, want.Rows) {
			break
		}
		if time.Now().After(convergeBy) {
			t.Fatalf("subscription never converged after lag:\ntracked: %v\nwant: %v",
				canon(tracked), canon(want.Rows))
		}
		res := e.Submit(upd, []types.Value{types.NewFloat(nudge), types.NewInt(0)})
		nudge++
		if err := res.Wait(); err != nil {
			t.Fatal(err)
		}
		settle := time.After(500 * time.Millisecond)
	drain:
		for {
			select {
			case u, ok := <-sub.Updates():
				if !ok {
					t.Fatal("subscription closed while converging")
				}
				tracked = applyUpdate(t, tracked, u)
			case <-settle:
				break drain
			}
		}
	}
	sub.Close()
}

// TestSubscribeRejectsWrites pins the API contract.
func TestSubscribeRejectsWrites(t *testing.T) {
	db, closeDB := bookstore(t)
	defer closeDB()
	e := newEngine(t, db)
	defer e.Close()
	w := mustPrepare(t, e, "DELETE FROM item WHERE i_id = ?")
	if _, err := e.Subscribe(w, []types.Value{types.NewInt(1)}); err == nil {
		t.Fatal("Subscribe on a write statement must error")
	}
	if _, err := e.Subscribe(nil, nil); err == nil {
		t.Fatal("Subscribe(nil) must error")
	}
}
