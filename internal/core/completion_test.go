package core

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"shareddb/internal/dbapi"
	"shareddb/internal/plan"
	"shareddb/internal/types"
)

// countHook counts completions, remembers the last result it saw and
// announces each firing (the hook runs after the result's waiters are
// released, so a test waits for the announcement, not for Wait).
type countHook struct {
	fired atomic.Int32
	seen  atomic.Pointer[Result]
	rang  chan struct{}
}

func (h *countHook) Completed(r *Result) {
	h.seen.Store(r)
	h.fired.Add(1)
	h.rang <- struct{}{}
}

// hooked returns a call carrying a fresh hooked result, and its hook.
func hooked(s *plan.Statement, params ...types.Value) (Call, *countHook) {
	h := &countHook{rang: make(chan struct{}, 4)} // room for a bug's extra firings
	return Call{Stmt: s, Params: params, Result: NewHookedResult(h)}, h
}

// heldEngine returns an engine whose dispatcher, after one warm-up
// generation, holds everything submitted in the pending queue for a
// heartbeat — long enough to arrange a queue state deterministically.
func heldEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	db, closeDB := bookstore(t)
	t.Cleanup(closeDB)
	cfg.Heartbeat = 300 * time.Millisecond
	e := New(db, plan.New(db), cfg)
	t.Cleanup(e.Close)
	return e
}

// warm runs one generation so the heartbeat window opens now.
func warm(t *testing.T, e *Engine, s *plan.Statement, params ...types.Value) {
	t.Helper()
	if err := e.Submit(s, params).Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestResultHookFiresOncePerCompletionPath walks every way a Result can
// finish and checks the completion hook fires exactly once on each, after
// the result's fields are final.
func TestResultHookFiresOncePerCompletionPath(t *testing.T) {
	const point = "SELECT i_title FROM item WHERE i_id = ?"
	check := func(t *testing.T, name string, c Call, h *countHook, wantErr error) {
		t.Helper()
		err := c.Result.Wait()
		if wantErr == nil && err != nil || wantErr != nil && !errors.Is(err, wantErr) {
			t.Fatalf("%s: completed with %v, want %v", name, err, wantErr)
		}
		<-h.rang
		if n := h.fired.Load(); n != 1 {
			t.Fatalf("%s: hook fired %d times, want 1", name, n)
		}
		if h.seen.Load() != c.Result {
			t.Fatalf("%s: hook saw a different result", name)
		}
	}

	t.Run("generation read, write and commit", func(t *testing.T) {
		db, closeDB := bookstore(t)
		defer closeDB()
		e := newEngine(t, db)
		defer e.Close()
		read, rh := hooked(mustPrepare(t, e, point), types.NewInt(3))
		write, wh := hooked(mustPrepare(t, e, "UPDATE item SET i_price = ? WHERE i_id = ?"),
			types.NewFloat(1), types.NewInt(3))
		e.SubmitBatch([]Call{read, write})
		check(t, "read", read, rh, nil)
		check(t, "write", write, wh, nil)
		if len(read.Result.Rows) != 1 || write.Result.RowsAffected != 1 {
			t.Fatalf("hooked results carry %d rows / %d affected", len(read.Result.Rows), write.Result.RowsAffected)
		}
		// A commit has no Call form and so no hook; it completes through the
		// same funnel.
		tx := e.BeginTx()
		tx.Insert("author", types.Row{types.NewInt(900), types.NewString("Hook")})
		if err := e.SubmitTx(tx).Wait(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("fold fan-out", func(t *testing.T) {
		e := heldEngine(t, Config{})
		s := mustPrepare(t, e, point)
		warm(t, e, s, types.NewInt(0))
		lead, lh := hooked(s, types.NewInt(5))
		sub1, h1 := hooked(s, types.NewInt(5))
		sub2, h2 := hooked(s, types.NewInt(5))
		before := e.Stats()
		e.SubmitBatch([]Call{lead, sub1, sub2})
		check(t, "lead", lead, lh, nil)
		check(t, "subscriber 1", sub1, h1, nil)
		check(t, "subscriber 2", sub2, h2, nil)
		after := e.Stats()
		if after.FoldedQueries-before.FoldedQueries != 2 || after.QueriesRun-before.QueriesRun != 1 {
			t.Fatalf("a burst of three identical reads ran %d and folded %d, want 1 and 2",
				after.QueriesRun-before.QueriesRun, after.FoldedQueries-before.FoldedQueries)
		}
		sameResult(t, lead.Result, sub1.Result)
	})

	t.Run("fold subscriber of a lead shed to a later generation", func(t *testing.T) {
		e := heldEngine(t, Config{StatementQuota: 1})
		s := mustPrepare(t, e, point)
		warm(t, e, s, types.NewInt(0))
		first, fh := hooked(s, types.NewInt(1))
		shed, sh := hooked(s, types.NewInt(2)) // over quota: waits a generation
		sub, subh := hooked(s, types.NewInt(2))
		e.SubmitBatch([]Call{first, shed, sub})
		check(t, "admitted lead", first, fh, nil)
		check(t, "shed lead", shed, sh, nil)
		check(t, "its subscriber", sub, subh, nil)
		if e.Stats().Shed == 0 {
			t.Fatal("fixture: nothing was shed")
		}
		sameResult(t, shed.Result, sub.Result)
	})

	t.Run("admission reject", func(t *testing.T) {
		e := heldEngine(t, Config{QueueDepthLimit: 1})
		s := mustPrepare(t, e, point)
		warm(t, e, s, types.NewInt(0))
		ok, okh := hooked(s, types.NewInt(1))
		over, overh := hooked(s, types.NewInt(2))
		e.SubmitBatch([]Call{ok, over})
		select {
		case <-over.Result.Done():
		case <-time.After(200 * time.Millisecond):
			t.Fatal("a rejection must complete at submit time")
		}
		check(t, "rejected", over, overh, dbapi.ErrOverloaded)
		check(t, "admitted", ok, okh, nil)
	})

	t.Run("abandoned at formation and abandoned subscriber", func(t *testing.T) {
		e := heldEngine(t, Config{})
		s := mustPrepare(t, e, point)
		warm(t, e, s, types.NewInt(0))
		gone, gh := hooked(s, types.NewInt(1))
		lead, lh := hooked(s, types.NewInt(2))
		sub, sh := hooked(s, types.NewInt(2))
		before := e.Stats().QueriesRun
		e.SubmitBatch([]Call{gone, lead, sub})
		cancelled := errors.New("caller went away")
		if gone.Result.Abandon(cancelled) {
			t.Fatal("a queued lead completes at formation, not at Abandon")
		}
		if !sub.Result.Abandon(cancelled) {
			t.Fatal("a fold subscriber completes at Abandon")
		}
		check(t, "abandoned subscriber", sub, sh, cancelled)
		// The lead's only subscriber left: abandoning it too leaves a fold
		// group nobody waits on, so both leads vacate.
		lead.Result.Abandon(cancelled)
		check(t, "abandoned lead", gone, gh, errRequestAbandoned)
		check(t, "abandoned lead of an emptied group", lead, lh, errRequestAbandoned)
		warm(t, e, s, types.NewInt(0))
		if ran := e.Stats().QueriesRun - before; ran != 1 {
			t.Fatalf("abandoned requests cost %d activations, want 0 (1 is the probe)", ran-1)
		}
	})

	t.Run("engine closed", func(t *testing.T) {
		e := heldEngine(t, Config{})
		s := mustPrepare(t, e, point)
		warm(t, e, s, types.NewInt(0))
		pending, ph := hooked(s, types.NewInt(1))
		psub, psh := hooked(s, types.NewInt(1))
		e.SubmitBatch([]Call{pending, psub})
		e.Close()
		check(t, "pending at Close", pending, ph, errEngineClosed)
		check(t, "its subscriber", psub, psh, errEngineClosed)
		late, lh := hooked(s, types.NewInt(2))
		e.SubmitBatch([]Call{late})
		check(t, "submitted after Close", late, lh, errEngineClosed)
	})
}

// TestSubmitBatchLandsInOneGeneration pins what the burst buys: however many
// calls it carries, a burst is drafted by one batch formation.
func TestSubmitBatchLandsInOneGeneration(t *testing.T) {
	db, closeDB := bookstore(t)
	defer closeDB()
	e := newEngine(t, db)
	defer e.Close()
	s := mustPrepare(t, e, "SELECT i_title FROM item WHERE i_id = ?")
	calls := make([]Call, 64)
	for i := range calls {
		calls[i] = Call{Stmt: s, Params: []types.Value{types.NewInt(int64(i))}}
	}
	before := e.Stats()
	e.SubmitBatch(calls)
	for i, c := range calls {
		if c.Result == nil {
			t.Fatalf("call %d: SubmitBatch left Result nil", i)
		}
		if err := c.Result.Wait(); err != nil {
			t.Fatal(err)
		}
		if len(c.Result.Rows) != 1 {
			t.Fatalf("call %d returned %d rows", i, len(c.Result.Rows))
		}
	}
	after := e.Stats()
	if g := after.Generations - before.Generations; g != 1 {
		t.Fatalf("a 64-call burst took %d generations, want 1", g)
	}
	if q := after.QueriesRun - before.QueriesRun; q != 64 {
		t.Fatalf("QueriesRun grew by %d, want 64", q)
	}
}

// TestSubmitAllocations gates the in-process entry: Submit is the
// one-element case of the burst path and must cost what it always has — the
// queue entry, the result and its channel.
func TestSubmitAllocations(t *testing.T) {
	e := heldEngine(t, Config{NoFold: true})
	s := mustPrepare(t, e, "SELECT i_title FROM item WHERE i_id = ?")
	params := []types.Value{types.NewInt(1)}
	warm(t, e, s, params...)
	// Held by the heartbeat, submissions only queue: nothing else in the
	// engine allocates while they are counted.
	if n := testing.AllocsPerRun(200, func() { e.Submit(s, params) }); n > 3 {
		t.Fatalf("Submit allocates %.0f objects per call, want at most 3", n)
	}
}
