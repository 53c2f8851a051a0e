package core

import (
	"fmt"
	"testing"

	"shareddb/internal/plan"
	"shareddb/internal/types"
)

// Engine-level check of the memory-discipline machinery: the plan-wide
// batch pool must actually recycle across generations.

func TestBatchPoolReuseAcrossGenerations(t *testing.T) {
	// The workers=1 and workers=4 subtests date from when a scan had a
	// worker budget; both now run the one serial scan, and the names are
	// kept so the suite's test names stay stable.
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			db, closeDB := bookstore(t)
			defer closeDB()
			gp := plan.New(db)
			e := New(db, gp, Config{MaxInFlightGenerations: 1})
			defer e.Close()
			s := mustPrepare(t, e, "SELECT i_id FROM item WHERE i_title LIKE ?")
			// Distinct patterns, so that no generation is answered from the
			// memo of an identical read.
			for i := 0; i < 12; i++ {
				run(t, e, s, types.NewString(fmt.Sprintf("%%%d%%", i)))
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
