package core

// Overload stress: the CI `overload` job runs these under -race with a test
// timeout — an unbounded queue, a lost wakeup or a deadlock in the
// admission path surfaces as a hang (killed by -timeout) or an assertion
// failure here.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"shareddb/internal/plan"
	"shareddb/internal/storage"
	"shareddb/internal/types"
)

// bigTable loads a single wide table with n rows, big enough that one
// scan+sort generation reliably exceeds the minimum 1ms SLO.
func bigTable(t testing.TB, n int) (*storage.Database, func()) {
	t.Helper()
	db, err := storage.Open(storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := db.CreateTable("big", types.NewSchema(
		types.Column{Qualifier: "big", Name: "b_id", Kind: types.KindInt},
		types.Column{Qualifier: "big", Name: "b_val", Kind: types.KindInt},
		types.Column{Qualifier: "big", Name: "b_pad", Kind: types.KindString},
	))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.SetPrimaryKey("b_id"); err != nil {
		t.Fatal(err)
	}
	ops := make([]storage.WriteOp, n)
	for i := 0; i < n; i++ {
		ops[i] = storage.WriteOp{Table: "big", Kind: storage.WInsert, Row: types.Row{
			types.NewInt(int64(i)),
			types.NewInt(int64((i * 7919) % 104729)),
			types.NewString(fmt.Sprintf("xpad-%06d", i)),
		}}
	}
	results, _ := db.ApplyOps(ops)
	for _, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	return db, func() { db.Close() }
}

// TestOverloadStressBoundedQueue hammers a queue-capped engine from twice
// as many clients as the cap allows and checks the admission contract:
// every submission either completes correctly or is rejected with a typed
// ErrOverloaded, the queue depth never exceeds the cap, some work is
// rejected AND some admitted, and the engine still serves cleanly after
// the storm.
func TestOverloadStressBoundedQueue(t *testing.T) {
	db, closeDB := bookstore(t)
	defer closeDB()
	const queueCap = 16
	e := New(db, plan.New(db), Config{
		QueueDepthLimit:        queueCap,
		StatementQuota:         8,
		MaxGenerationDelay:     5 * time.Millisecond,
		MaxInFlightGenerations: 1,
		Heartbeat:              500 * time.Microsecond,
	})
	defer e.Close()
	// The second parameter is true for every row and distinct per
	// submission: identical reads would fold into one queue slot instead of
	// pressing on the cap.
	s := mustPrepare(t, e, "SELECT i_id, i_title FROM item WHERE i_subject = ? AND i_id > ?")
	subjects := []string{"ARTS", "SCIENCE", "HISTORY", "COOKING"}

	// Depth sampler: QueueDepthLimit is an invariant, not a trend — any
	// sample above the cap is an unbounded-queue regression.
	stopSampler := make(chan struct{})
	var samplerWG sync.WaitGroup
	var depthViolation atomic.Int64
	samplerWG.Add(1)
	go func() {
		defer samplerWG.Done()
		for {
			select {
			case <-stopSampler:
				return
			default:
			}
			if d := e.AdmissionStats().QueueDepth; d > queueCap {
				depthViolation.Store(int64(d))
				return
			}
		}
	}()

	const clients, iters = 32, 60
	var admitted, rejected atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				subj := subjects[(c+i)%len(subjects)]
				res := e.Submit(s, []types.Value{types.NewString(subj), types.NewInt(int64(-1 - c*iters - i))})
				err := res.Wait()
				switch {
				case err == nil:
					// 25 items per subject in the bookstore fixture.
					if len(res.Rows) != 25 {
						t.Errorf("admitted query returned %d rows, want 25", len(res.Rows))
						return
					}
					admitted.Add(1)
				case errors.Is(err, ErrOverloaded):
					var oe *OverloadError
					if !errors.As(err, &oe) || oe.RetryAfter <= 0 {
						t.Errorf("rejection must be a typed *OverloadError with a retry hint, got %v", err)
						return
					}
					rejected.Add(1)
				default:
					t.Errorf("unexpected error under overload: %v", err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(stopSampler)
	samplerWG.Wait()

	if d := depthViolation.Load(); d != 0 {
		t.Fatalf("queue depth %d observed above the %d cap — unbounded queue", d, queueCap)
	}
	if total := admitted.Load() + rejected.Load(); total != clients*iters {
		t.Fatalf("accounting: admitted %d + rejected %d != offered %d",
			admitted.Load(), rejected.Load(), clients*iters)
	}
	if admitted.Load() == 0 {
		t.Fatal("overload must still admit work (the queue was never empty-able)")
	}
	if rejected.Load() == 0 {
		t.Fatalf("%d clients against a %d-deep queue must reject some work", clients, queueCap)
	}
	stats := e.AdmissionStats()
	if stats.Rejected != uint64(rejected.Load()) {
		t.Fatalf("engine counted %d rejections, clients saw %d", stats.Rejected, rejected.Load())
	}

	// The storm is over: the engine must serve a fresh query without
	// residual backpressure (retry a few times while the tail drains).
	deadline := time.Now().Add(2 * time.Second)
	for {
		err := e.Submit(s, []types.Value{types.NewString("ARTS"), types.NewInt(-1)}).Wait()
		if err == nil {
			break
		}
		if !errors.Is(err, ErrOverloaded) || time.Now().After(deadline) {
			t.Fatalf("engine did not recover after overload: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOverloadRejectionIsImmediate pins the reject path's latency property:
// with the queue at its cap, rejection happens at Submit time (the Result
// completes without waiting for a generation).
func TestOverloadRejectionIsImmediate(t *testing.T) {
	db, closeDB := bookstore(t)
	defer closeDB()
	// A long heartbeat holds dispatch so the queue stays full while we
	// probe the reject path.
	e := New(db, plan.New(db), Config{
		QueueDepthLimit: 2,
		Heartbeat:       time.Second,
	})
	defer e.Close()
	s := mustPrepare(t, e, "SELECT i_id FROM item WHERE i_id = ?")

	// First submission dispatches immediately (heartbeat elapsed at start);
	// wait it out so the next submissions land in the 1s heartbeat window.
	if err := e.Submit(s, []types.Value{types.NewInt(1)}).Wait(); err != nil {
		t.Fatal(err)
	}
	var queued []*Result
	for i := 0; i < 2; i++ {
		queued = append(queued, e.Submit(s, []types.Value{types.NewInt(int64(i))}))
	}
	res := e.Submit(s, []types.Value{types.NewInt(9)})
	select {
	case <-res.Done():
		if !errors.Is(res.Err, ErrOverloaded) {
			t.Fatalf("over-cap submission got %v, want ErrOverloaded", res.Err)
		}
	case <-time.After(200 * time.Millisecond):
		t.Fatal("rejection must complete immediately, not wait for a generation")
	}
	for _, q := range queued {
		if err := q.Wait(); err != nil {
			t.Fatalf("queued request failed: %v", err)
		}
	}
}

// TestOverloadStatementQuotaSpreadsGenerations checks shedding end to end:
// a burst of one statement above its quota completes across multiple
// generations — nothing is rejected, every client gets its rows, and the
// shed counter records the deferrals.
func TestOverloadStatementQuotaSpreadsGenerations(t *testing.T) {
	db, closeDB := bookstore(t)
	defer closeDB()
	e := New(db, plan.New(db), Config{
		StatementQuota: 4,
		Heartbeat:      20 * time.Millisecond,
	})
	defer e.Close()
	// The second parameter is true for every row and distinct per
	// submission: identical reads would fold and spend one quota unit.
	s := mustPrepare(t, e, "SELECT i_id FROM item WHERE i_subject = ? AND i_id > ?")

	// Land one generation first so the burst below queues into one window.
	if err := e.Submit(s, []types.Value{types.NewString("ARTS"), types.NewInt(-1)}).Wait(); err != nil {
		t.Fatal(err)
	}
	gensBefore := e.Stats().Generations
	const burst = 10
	results := make([]*Result, burst)
	for i := range results {
		results[i] = e.Submit(s, []types.Value{types.NewString("ARTS"), types.NewInt(int64(-2 - i))})
	}
	for i, r := range results {
		if err := r.Wait(); err != nil {
			t.Fatalf("burst query %d: %v (quota must shed, never reject)", i, err)
		}
		if len(r.Rows) != 25 {
			t.Fatalf("burst query %d: %d rows, want 25", i, len(r.Rows))
		}
	}
	gensAfter := e.Stats().Generations
	if gens := gensAfter - gensBefore; gens < 3 {
		t.Fatalf("a %d-burst over quota 4 needs >= 3 generations, got %d", burst, gens)
	}
	if shed := e.AdmissionStats().Shed; shed == 0 {
		t.Fatal("quota deferrals must count as shed")
	}
}
