package core

import (
	"fmt"
	"sync"
	"testing"

	"shareddb/internal/par"
	"shareddb/internal/plan"
	"shareddb/internal/types"
)

// Engine-level checks of the memory-discipline machinery: the plan-wide
// batch pool must actually recycle across generations on both the serial
// and the parallel scan paths, and the scan clamp must keep generations over
// tiny tables from forking goroutines.

func TestBatchPoolReuseAcrossGenerations(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			db, closeDB := bookstore(t)
			defer closeDB()
			gp := plan.New(db)
			e := New(db, gp, Config{Workers: workers, MaxInFlightGenerations: 1})
			defer e.Close()
			s := mustPrepare(t, e, "SELECT i_id FROM item WHERE i_title LIKE ?")
			for i := 0; i < 12; i++ {
				run(t, e, s, types.NewString("%1%"))
			}
			gets, reuses := gp.PoolStats()
			if gets == 0 {
				t.Fatal("no batches drawn from the pool")
			}
			if reuses == 0 {
				t.Errorf("no batch reuse across %d generations (gets=%d)", 12, gets)
			}
			// Steady state: all but the first generation's batches recycle.
			if float64(reuses) < 0.5*float64(gets) {
				t.Errorf("reuse rate %d/%d below 50%%", reuses, gets)
			}
		})
	}
}

// TestTinyGenerationsStaySerial pins the scan clamp end to end: scans are
// the only data-parallel phase, and a table below the partitioned scan's
// minimum size is scanned serially — so generations over tiny tables fork no
// worker goroutines anywhere in the plan, even under a large configured
// budget.
func TestTinyGenerationsStaySerial(t *testing.T) {
	db, closeDB := bookstore(t) // 100-row item table: every cycle is tiny
	defer closeDB()
	gp := plan.New(db)
	e := New(db, gp, Config{Workers: 8, MaxInFlightGenerations: 1})
	defer e.Close()
	// A scan → group → sort plan: every blocking operator runs, none forks.
	s := mustPrepare(t, e, "SELECT i_subject, COUNT(*) FROM item GROUP BY i_subject ORDER BY i_subject")

	wave := func() {
		var wg sync.WaitGroup
		for j := 0; j < 4; j++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res := e.Submit(s, nil)
				if err := res.Wait(); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
	}
	before := par.Forks()
	for i := 0; i < 10; i++ {
		wave()
	}
	if forked := par.Forks() - before; forked != 0 {
		t.Errorf("generations over a 100-row table forked %d workers, want 0", forked)
	}
}
