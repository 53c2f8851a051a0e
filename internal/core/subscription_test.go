package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"shareddb/internal/dbapi"
	"shareddb/internal/operators"
	"shareddb/internal/plan"
	"shareddb/internal/types"
)

// Standing queries: subscription delta streams must compose to the same
// result a fresh per-generation query returns (the oracle), a lagged
// subscriber must resync, and Subscribe rejects writes.

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
// of the same statement returns — on the reference engine and in production.
func TestSubscriptionDeltasMatchOracle(t *testing.T) {
	t.Cleanup(operators.PoisonReleasedRowsForTest())
	for _, tc := range []struct {
		name string
		cfg  Config
	}{{"reference", referenceConfig()}, {"production", Config{}}} {
		t.Run(tc.name, func(t *testing.T) {
			db, closeDB := bookstore(t)
			defer closeDB()
			e := New(db, plan.New(db), tc.cfg)
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

// TestSubscriptionLagResync fills the subscription buffer without draining
// it: the subscription must mark itself lagged and, once the subscriber
// drains, deliver a Full resync whose rows equal a fresh query.
func TestSubscriptionLagResync(t *testing.T) {
	db, closeDB := bookstore(t)
	defer closeDB()
	e := New(db, plan.New(db), Config{})
	defer e.Close()

	st := mustPrepare(t, e, "SELECT i_id, i_price FROM item WHERE i_subject = ?")
	params := []types.Value{types.NewString("ARTS")}
	sub, err := e.Subscribe(st, params)
	if err != nil {
		t.Fatal(err)
	}
	upd := mustPrepare(t, e, "UPDATE item SET i_price = ? WHERE i_id = ?")
	// Do not drain: the buffer holds the initial full result and the first
	// buffer-1 deltas, so the write generations past them (each write
	// changes an ARTS row — ids 0,4,8,12 all carry the ARTS subject) are
	// dropped and mark the gap.
	for i := 0; i < dbapi.SubscriptionBuffer+8; i++ {
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

	// Recovery: the buffer holds the pre-gap initial full and deltas; the
	// first delivery to land after them must be a full resync, never a
	// delta that spans the gap.
	for i := 0; i < dbapi.SubscriptionBuffer; i++ {
		select {
		case u := <-sub.Updates():
			if u.Full != (i == 0) {
				t.Fatalf("pre-gap buffered delivery %d: Full = %v, want %v", i, u.Full, i == 0)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("buffered pre-gap delivery %d missing", i)
		}
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
	// refilled buffer (marking a fresh gap), so nudge generations
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
