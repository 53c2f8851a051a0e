package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"shareddb/internal/expr"
	"shareddb/internal/storage"
	"shareddb/internal/types"
)

// TestBatchShapes drives one generation of every batch shape the dispatcher
// tells apart — reads, writes, commits, standing queries, and none of them —
// at pipeline depths 1 and 4. Each generation must retire exactly once: the
// in-flight gauge returns to 0, the counters grow by exactly the shape's
// work, and every caller already sees its own work in Stats when its Wait
// returns.
func TestBatchShapes(t *testing.T) {
	shapes := []struct {
		name                 string
		reads, writes, txs   int
		sub, subClosedBefore bool
	}{
		{name: "reads only", reads: 3},
		{name: "writes only", writes: 3},
		{name: "tx commits only", txs: 2},
		{name: "writes and tx, no reads", writes: 2, txs: 2},
		{name: "writes and reads", writes: 2, reads: 3},
		{name: "subscription only", sub: true},
		// Subscribe kicks a generation; the subscription closes while the
		// heartbeat holds formation, so the generation forms empty.
		{name: "kicked generation, empty batch", sub: true, subClosedBefore: true},
	}
	for _, depth := range []int{1, 4} {
		for _, sh := range shapes {
			t.Run(fmt.Sprintf("depth=%d/%s", depth, sh.name), func(t *testing.T) {
				e := heldEngine(t, Config{MaxInFlightGenerations: depth})
				point := mustPrepare(t, e, "SELECT i_title FROM item WHERE i_id = ?")
				upd := mustPrepare(t, e, "UPDATE item SET i_price = ? WHERE i_id = ?")
				standing := mustPrepare(t, e, "SELECT i_id FROM item WHERE i_subject = ?")
				warm(t, e, point, types.NewInt(0))
				before := e.Stats()
				grew := func(st EngineStats) (gens, queries, writes uint64) {
					return st.Generations - before.Generations, st.QueriesRun - before.QueriesRun, st.WritesRun - before.WritesRun
				}

				type caller struct {
					res         *Result
					kind        string
					wantWritesN int // WritesRun growth the caller must already see
				}
				var calls []Call
				var callers []caller
				// Distinct ids: nothing folds, every read is its own activation.
				for i := 0; i < sh.writes; i++ {
					calls = append(calls, Call{Stmt: upd, Params: []types.Value{types.NewFloat(7), types.NewInt(int64(20 + i))}})
				}
				for i := 0; i < sh.reads; i++ {
					calls = append(calls, Call{Stmt: point, Params: []types.Value{types.NewInt(int64(10 + i))}})
				}
				if len(calls) > 0 {
					e.SubmitBatch(calls)
				}
				for i, c := range calls {
					if i < sh.writes {
						callers = append(callers, caller{c.Result, "write", sh.writes})
					} else {
						callers = append(callers, caller{c.Result, "read", 0})
					}
				}
				for i := 0; i < sh.txs; i++ {
					tx := e.BeginTx()
					tx.Insert("author", types.Row{types.NewInt(int64(900 + i)), types.NewString("Shape")})
					callers = append(callers, caller{e.SubmitTx(tx), "tx", sh.writes + sh.txs})
				}
				var sub *Subscription
				if sh.sub {
					var err error
					if sub, err = e.Subscribe(standing, []types.Value{types.NewString("ARTS")}); err != nil {
						t.Fatal(err)
					}
					if sh.subClosedBefore {
						sub.Close()
					}
				}

				for _, c := range callers {
					if err := c.res.Wait(); err != nil {
						t.Fatalf("%s: %v", c.kind, err)
					}
					gens, queries, writes := grew(e.Stats())
					if gens != 1 || c.kind == "read" && queries != uint64(sh.reads) || writes < uint64(c.wantWritesN) {
						t.Fatalf("%s caller returned from Wait seeing %d generations, %d queries, %d writes of its generation",
							c.kind, gens, queries, writes)
					}
				}

				var st EngineStats
				if len(callers) > 0 {
					// The generation retired before any of its results completed.
					st = e.Stats()
				} else {
					if sub != nil && !sh.subClosedBefore {
						select {
						case u := <-sub.Updates():
							if !u.Full {
								t.Fatalf("first delivery not full: %+v", u)
							}
						case <-time.After(10 * time.Second):
							t.Fatal("no initial delivery")
						}
					}
					// Nobody waits on a subscription-only generation: poll.
					deadline := time.Now().Add(10 * time.Second)
					for st = e.Stats(); st.InFlight != 0 || st.Generations == before.Generations; st = e.Stats() {
						if time.Now().After(deadline) {
							t.Fatalf("generation never retired: %+v", st)
						}
						time.Sleep(time.Millisecond)
					}
				}
				if st.InFlight != 0 {
					t.Fatalf("InFlight = %d after the generation completed, want 0", st.InFlight)
				}
				gens, queries, writes := grew(st)
				if gens != 1 || queries != uint64(sh.reads) || writes != uint64(sh.writes+sh.txs) {
					t.Fatalf("counters grew by %d generations, %d queries, %d writes; want 1, %d, %d",
						gens, queries, writes, sh.reads, sh.writes+sh.txs)
				}
				wantUpdates := uint64(0)
				if sh.sub && !sh.subClosedBefore {
					wantUpdates = 1
				}
				if got := st.SubscriptionUpdates - before.SubscriptionUpdates; got != wantUpdates {
					t.Fatalf("SubscriptionUpdates grew by %d, want %d", got, wantUpdates)
				}
			})
		}
	}
}

// TestWriteStageArrivalOrder pins the write stage to one stream in arrival
// order: a transaction commit and a standalone UPDATE of the same row,
// enqueued together into one generation, apply in the order they arrived.
// Commit first: the UPDATE sees the commit and both apply. UPDATE first: the
// commit's snapshot predates the UPDATE's change to its row, so it conflicts.
func TestWriteStageArrivalOrder(t *testing.T) {
	for _, commitFirst := range []bool{true, false} {
		t.Run(fmt.Sprintf("commitFirst=%v", commitFirst), func(t *testing.T) {
			db, closeDB := bookstore(t)
			defer closeDB()
			e := newEngine(t, db)
			defer e.Close()
			upd := mustPrepare(t, e, "UPDATE item SET i_price = ? WHERE i_id = ?")
			get := mustPrepare(t, e, "SELECT i_title, i_price FROM item WHERE i_id = ?")

			tx := db.Begin()
			tx.Update("item", &expr.Cmp{Op: expr.EQ, L: &expr.ColRef{Idx: 0}, R: &expr.Const{Val: types.NewInt(5)}},
				[]storage.ColSet{{Col: 1, Val: &expr.Const{Val: types.NewString("committed")}}})
			commit := &Request{Tx: tx, Result: NewPendingResult()}
			write := &Request{}
			e.initRequest(write, Call{Stmt: upd, Params: []types.Value{types.NewFloat(2), types.NewInt(5)}})
			reqs := []*Request{write, commit}
			if commitFirst {
				reqs = []*Request{commit, write}
			}
			// Both enter the queue under one lock hold, so the dispatcher
			// drafts them into one generation.
			e.mu.Lock()
			var errs []error
			for _, r := range reqs {
				if _, err := e.enqueueLocked(r, false); err != nil {
					errs = append(errs, err)
				}
			}
			e.cond.Broadcast()
			e.mu.Unlock()
			if len(errs) > 0 {
				t.Fatal(errs)
			}

			if err := write.Result.Wait(); err != nil || write.Result.RowsAffected != 1 {
				t.Fatalf("UPDATE: affected %d, err %v", write.Result.RowsAffected, err)
			}
			cErr := commit.Result.Wait()
			if write.Result.SnapshotTS != commit.Result.SnapshotTS {
				t.Fatalf("the UPDATE and the commit ran in different generations (snapshots %d, %d)",
					write.Result.SnapshotTS, commit.Result.SnapshotTS)
			}
			wantTitle := "committed"
			if commitFirst {
				if cErr != nil {
					t.Fatalf("commit drafted before the UPDATE: %v", cErr)
				}
			} else {
				if !errors.Is(cErr, storage.ErrConflict) {
					t.Fatalf("commit drafted after an UPDATE of its row: got %v, want ErrConflict", cErr)
				}
				wantTitle = "Title 005"
			}
			res := e.Submit(get, []types.Value{types.NewInt(5)})
			if err := res.Wait(); err != nil {
				t.Fatal(err)
			}
			if got := res.Rows[0]; got[0].AsString() != wantTitle || got[1].AsFloat() != 2 {
				t.Fatalf("item 5 = %v, want title %q and price 2", got, wantTitle)
			}
		})
	}
}
