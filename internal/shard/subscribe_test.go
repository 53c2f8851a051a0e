package shard

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"shareddb/internal/core"
	"shareddb/internal/testutil"
	"shareddb/internal/types"
)

// applySubUpdate folds one delivered update into the subscriber's tracked
// result, failing the test if a removal names a row the tracked state does
// not hold (a delta the merged feed could not legally have produced).
func applySubUpdate(t *testing.T, tracked []types.Row, u core.SubscriptionUpdate) []types.Row {
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

// awaitSubState consumes updates until the tracked result equals want.
func awaitSubState(t *testing.T, sub *core.Subscription, tracked []types.Row, want []types.Row) []types.Row {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for !testutil.SameRows(tracked, want) {
		select {
		case u, ok := <-sub.Updates():
			if !ok {
				t.Fatalf("subscription closed while converging: tracked %v want %v",
					testutil.CanonRows(tracked), testutil.CanonRows(want))
			}
			tracked = applySubUpdate(t, tracked, u)
		case <-deadline:
			t.Fatalf("timed out converging subscription state:\ntracked (%d): %v\nwant (%d): %v",
				len(tracked), testutil.CanonRows(tracked), len(want), testutil.CanonRows(want))
		}
	}
	return tracked
}

// TestShardedSubscription drives a merged scatter subscription and a
// point-routed subscription through a random write stream on every shard
// count, checking each delivered stream converges to what a fresh router
// query returns and that the router's stats see the standing queries.
func TestShardedSubscription(t *testing.T) {
	for _, n := range shardCounts(t) {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			r := newExecEnv(t, n, core.Config{})

			scatter, err := r.Prepare("SELECT i_id, i_title, i_price FROM item WHERE i_subject = ?")
			if err != nil {
				t.Fatal(err)
			}
			point, err := r.Prepare("SELECT i_title, i_price FROM item WHERE i_id = ?")
			if err != nil {
				t.Fatal(err)
			}
			scatterParams := []types.Value{types.NewString("ARTS")}
			pointParams := []types.Value{types.NewInt(4)} // 4%4==0 → ARTS, touched by subject writes

			subScatter, err := r.Subscribe(scatter, scatterParams)
			if err != nil {
				t.Fatalf("Subscribe scatter: %v", err)
			}
			subPoint, err := r.Subscribe(point, pointParams)
			if err != nil {
				t.Fatalf("Subscribe point: %v", err)
			}

			query := func(stmtIdx int) []types.Row {
				var res *core.Result
				if stmtIdx == 0 {
					res = r.Submit(scatter, scatterParams)
				} else {
					res = r.Submit(point, pointParams)
				}
				if err := res.Wait(); err != nil {
					t.Fatalf("oracle query: %v", err)
				}
				return res.Rows
			}

			// Initial delivery: a full result per subscription.
			tracked := make([][]types.Row, 2)
			for i, sub := range []*core.Subscription{subScatter, subPoint} {
				select {
				case u := <-sub.Updates():
					if !u.Full {
						t.Fatalf("sub %d: first delivery not full: %+v", i, u)
					}
					tracked[i] = applySubUpdate(t, nil, u)
				case <-time.After(10 * time.Second):
					t.Fatalf("sub %d: no initial full result", i)
				}
				if want := query(i); !testutil.SameRows(tracked[i], want) {
					t.Fatalf("sub %d initial full mismatch: %v vs %v",
						i, testutil.CanonRows(tracked[i]), testutil.CanonRows(want))
				}
			}
			if got := r.Stats().SubscriptionsActive; got == 0 {
				t.Fatal("router stats report no active subscriptions")
			}

			ins, err := r.Prepare("INSERT INTO item VALUES (?, ?, ?, ?, ?)")
			if err != nil {
				t.Fatal(err)
			}
			updPrice, err := r.Prepare("UPDATE item SET i_price = ? WHERE i_id = ?")
			if err != nil {
				t.Fatal(err)
			}
			updSubj, err := r.Prepare("UPDATE item SET i_subject = ? WHERE i_id = ?")
			if err != nil {
				t.Fatal(err)
			}
			del, err := r.Prepare("DELETE FROM item WHERE i_id = ?")
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(40 + n)))
			nextID := int64(1000)
			for round := 0; round < 20; round++ {
				var res *core.Result
				switch rng.Intn(4) {
				case 0:
					res = r.Submit(ins, []types.Value{types.NewInt(nextID),
						types.NewString(fmt.Sprintf("Shard sub %03d", nextID)),
						types.NewInt(nextID % 30),
						types.NewString(fixtureSubjects[rng.Intn(len(fixtureSubjects))]),
						types.NewFloat(float64(rng.Intn(9000)) / 100)})
					nextID++
				case 1:
					res = r.Submit(updPrice, []types.Value{
						types.NewFloat(float64(rng.Intn(9000)) / 100),
						types.NewInt(int64(rng.Intn(120)))})
				case 2:
					res = r.Submit(updSubj, []types.Value{
						types.NewString(fixtureSubjects[rng.Intn(len(fixtureSubjects))]),
						types.NewInt(int64(rng.Intn(120)))})
				default:
					res = r.Submit(del, []types.Value{types.NewInt(int64(rng.Intn(120)))})
				}
				if err := res.Wait(); err != nil {
					t.Fatalf("round %d write: %v", round, err)
				}
				tracked[0] = awaitSubState(t, subScatter, tracked[0], query(0))
				tracked[1] = awaitSubState(t, subPoint, tracked[1], query(1))
			}

			if r.Stats().SubscriptionUpdates == 0 {
				t.Error("router stats count no subscription updates after a delivered stream")
			}
			// Close detaches every per-shard feed; the router's gauge drains.
			subScatter.Close()
			subPoint.Close()
			deadline := time.Now().Add(10 * time.Second)
			for r.Stats().SubscriptionsActive != 0 {
				if time.Now().After(deadline) {
					t.Fatalf("SubscriptionsActive stuck at %d after Close", r.Stats().SubscriptionsActive)
				}
				time.Sleep(time.Millisecond)
			}
			// Generations keep flowing after detach.
			res := r.Submit(updPrice, []types.Value{types.NewFloat(1), types.NewInt(0)})
			if err := res.Wait(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestShardedSubscribeRejections pins the Subscribe contract on a
// multi-shard router: writes and non-concat-mergeable scatter statements
// (cross-shard ORDER BY, GROUP BY, DISTINCT, LIMIT) are refused.
func TestShardedSubscribeRejections(t *testing.T) {
	r := newRouterEnv(t, 3, core.Config{})
	reject := []string{
		"UPDATE item SET i_price = ? WHERE i_id = ?",
		"SELECT i_id FROM item ORDER BY i_id",
		"SELECT i_subject, COUNT(*) FROM item GROUP BY i_subject",
		"SELECT DISTINCT i_subject FROM item",
		"SELECT i_id FROM item LIMIT 5",
	}
	for _, sqlText := range reject {
		stmt, err := r.Prepare(sqlText)
		if err != nil {
			t.Fatalf("Prepare(%q): %v", sqlText, err)
		}
		if _, err := r.Subscribe(stmt, []types.Value{types.NewInt(1), types.NewInt(2)}); err == nil {
			t.Errorf("Subscribe(%q) succeeded, want error", sqlText)
		}
	}
	// Replicated-only reads route to a single shard and subscribe fine even
	// with an ORDER BY (no cross-shard merge to recombine).
	repl, err := r.Prepare("SELECT a_lname FROM author WHERE a_id = ?")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := r.Subscribe(repl, []types.Value{types.NewInt(3)})
	if err != nil {
		t.Fatalf("Subscribe on replicated read: %v", err)
	}
	select {
	case u := <-sub.Updates():
		if !u.Full {
			t.Fatalf("first delivery not full: %+v", u)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no initial full on replicated-read subscription")
	}
	sub.Close()
}
