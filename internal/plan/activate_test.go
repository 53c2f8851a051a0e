package plan

import (
	"sync"
	"testing"
	"time"

	"shareddb/internal/operators"
	"shareddb/internal/queryset"
	"shareddb/internal/storage"
	"shareddb/internal/types"
)

// TestRunGenerationForwardsToRun drives the entry points the benchmark's
// replay (bench/layers.go) still calls: an observer installed with
// SetCostObserver, then RunGeneration with a nil write delta, on a two-node
// plan (a shared scan feeding the sink). Each generation must report every
// active node once under its own id, deliver the sink tuples to onTuple and
// fire onDone.
func TestRunGenerationForwardsToRun(t *testing.T) {
	db := testDB(t)
	var ops []storage.WriteOp
	for i, c := range []string{"ch", "de", "ch"} {
		row := types.Row{types.NewInt(int64(i + 1)), types.NewString("u"), types.NewString(c)}
		ops = append(ops, storage.WriteOp{Table: "users", Kind: storage.WInsert, Row: row})
	}
	results, _ := db.ApplyOps(ops)
	for _, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	p := New(db)
	s, err := p.Prepare("SELECT name FROM users WHERE country = ?")
	if err != nil {
		t.Fatal(err)
	}
	if n := p.NumNodes(); n != 1 {
		t.Fatalf("plan has %d nodes besides the sink, want one scan:\n%s", n, p.Describe())
	}

	var mu sync.Mutex
	reports := map[uint64][]int{} // generation → each report's task count
	p.SetCostObserver(func(gen uint64, tasks []operators.Task, _ int64) {
		mu.Lock()
		reports[gen] = append(reports[gen], len(tasks))
		mu.Unlock()
	})
	p.Start()
	defer p.Stop()

	for gen := uint64(7); gen <= 8; gen++ {
		acts := []Activation{
			{QID: 1, Stmt: s, Params: []types.Value{types.NewString("ch")}},
			{QID: 2, Stmt: s, Params: []types.Value{types.NewString("de")}},
		}
		ids := map[queryset.QueryID][]int64{}
		onTuple := func(_ int, tp operators.Tuple) {
			for _, q := range tp.QS.IDs() {
				ids[q] = append(ids[q], tp.Row[0].AsInt())
			}
		}
		done := make(chan struct{})
		ts := db.PinCurrentSnapshot()
		p.RunGeneration(gen, ts, acts, nil, onTuple, func() { close(done) })
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("generation %d: onDone never fired", gen)
		}
		db.UnpinSnapshot(ts)

		if got := ids[1]; len(got) != 2 || got[0] != 1 || got[1] != 3 {
			t.Errorf("generation %d: query 1 saw users %v, want [1 3]", gen, got)
		}
		if got := ids[2]; len(got) != 1 || got[0] != 2 {
			t.Errorf("generation %d: query 2 saw users %v, want [2]", gen, got)
		}
		mu.Lock()
		got := reports[gen]
		mu.Unlock()
		// The scan reports its two tasks, the sink none.
		if len(got) != 2 || got[0]+got[1] != 2 || got[0]*got[1] != 0 {
			t.Errorf("generation %d: cost reports with task counts %v, want one from the scan (2) and one from the sink (0)", gen, got)
		}
	}
	if len(reports) != 2 {
		t.Errorf("reports tagged with generations %v, want 7 and 8 only", reports)
	}
}
