package shard

// Admission control across the scatter-gather seam: per-shard rejections
// must propagate coherently — broadcast writes and transaction commits
// admit all-or-nothing (partial admission would diverge replicated copies
// or split a commit), scatter reads surface one typed ErrOverloaded when
// any shard rejects. The tests freeze the per-shard queues with a long
// heartbeat: the first generation dispatches immediately, then every
// submission inside the window queues — so queue occupancy is deterministic.

import (
	"errors"
	"testing"
	"time"

	"shareddb/internal/core"
	"shareddb/internal/dbapi"
	"shareddb/internal/plan"
	"shareddb/internal/types"
)

// admissionRouter builds a 2-shard router whose engines reject beyond
// queueCap queued submissions and only dispatch once per heartbeat window.
func admissionRouter(t *testing.T, queueCap int, heartbeat time.Duration) *Router {
	t.Helper()
	return newRouterEnv(t, 2, core.Config{
		QueueDepthLimit: queueCap,
		Heartbeat:       heartbeat,
	})
}

func mustPrepareRouter(t *testing.T, r *Router, sqlText string) *plan.Statement {
	t.Helper()
	s, err := r.Prepare(sqlText)
	if err != nil {
		t.Fatalf("Prepare(%q): %v", sqlText, err)
	}
	return s
}

// warm runs one broadcast read to completion so every shard engine has
// dispatched its first generation — subsequent submissions land inside the
// heartbeat window and stay queued.
func warm(t *testing.T, r *Router, broadcast *plan.Statement) {
	t.Helper()
	if err := r.Submit(broadcast, nil).Wait(); err != nil {
		t.Fatalf("warm-up broadcast: %v", err)
	}
}

// pointParamsForShard returns n distinct i_id parameters owned by the given
// shard (the fixture partitions item on its primary key).
func pointParamsForShard(t *testing.T, r *Router, shard, n int) [][]types.Value {
	t.Helper()
	var out [][]types.Value
	for id := int64(0); id < 120 && len(out) < n; id++ {
		if r.Partitioning().ShardOf(types.NewInt(id)) == shard {
			out = append(out, []types.Value{types.NewInt(id)})
		}
	}
	if len(out) < n {
		t.Fatalf("fixture has fewer than %d items on shard %d", n, shard)
	}
	return out
}

func TestShardBroadcastWriteAdmissionAllOrNothing(t *testing.T) {
	const queueCap = 2
	r := admissionRouter(t, queueCap, time.Second)
	// item partitions: this COUNT scatters to every shard, filling both
	// queues per submission (a replicated-table read would round-robin to
	// one shard and leave the other queue empty). The parameter only keeps
	// the submissions distinct: identical reads would fold in each shard
	// engine and occupy one slot per shard between them.
	scatter := mustPrepareRouter(t, r, "SELECT COUNT(*) FROM item WHERE i_id > ?")
	// author replicates: the probe round-robins across shards, so two
	// consecutive probes observe both replicas.
	probe := mustPrepareRouter(t, r, "SELECT COUNT(*) FROM author WHERE a_lname = 'OVERLOAD'")
	probeReplicas := func(context string, want int64) {
		t.Helper()
		for replica := 0; replica < 2; replica++ {
			res := r.Submit(probe, nil)
			if err := res.Wait(); err != nil {
				t.Fatalf("%s: probe: %v", context, err)
			}
			if n := res.Rows[0][0].AsInt(); n != want {
				t.Fatalf("%s: replica sees %d updated rows, want %d (copies diverged?)", context, n, want)
			}
		}
	}
	// author replicates: this write broadcasts to every shard.
	write := mustPrepareRouter(t, r, "UPDATE author SET a_lname = 'OVERLOAD' WHERE a_id = 3")
	if err := r.Submit(scatter, []types.Value{types.NewInt(-1)}).Wait(); err != nil {
		t.Fatalf("warm-up broadcast: %v", err)
	}

	// Fill both shard queues to the cap with scatter reads (each enqueues
	// on every shard), then ask for the broadcast write: admission must
	// reject it on the first full shard WITHOUT enqueueing it anywhere.
	var queued []*core.Result
	for i := 0; i < queueCap; i++ {
		queued = append(queued, r.Submit(scatter, []types.Value{types.NewInt(int64(-2 - i))}))
	}
	err := r.Submit(write, nil).Wait()
	if !errors.Is(err, dbapi.ErrOverloaded) {
		t.Fatalf("broadcast write into full queues: got %v, want ErrOverloaded", err)
	}
	var oe *dbapi.OverloadError
	if !errors.As(err, &oe) || oe.RetryAfter <= 0 {
		t.Fatalf("rejection must carry a retry hint, got %+v", err)
	}

	// Drain the window and verify the rejected write left no trace on any
	// replica — partial admission would have diverged the copies.
	for _, q := range queued {
		if err := q.Wait(); err != nil {
			t.Fatalf("queued read: %v", err)
		}
	}
	probeReplicas("after rejection", 0)

	// The reservations must have been released: with empty queues the same
	// write now admits on every shard (a leak would eat queue capacity
	// forever).
	if err := r.Submit(write, nil).Wait(); err != nil {
		t.Fatalf("write after drain must admit (reservation leak?): %v", err)
	}
	probeReplicas("after admitted write", 1)
}

func TestShardScatterReadPartialRejectionMergesToOverload(t *testing.T) {
	const queueCap = 2
	r := admissionRouter(t, queueCap, time.Second)
	scatter := mustPrepareRouter(t, r, "SELECT COUNT(*) FROM item")
	point := mustPrepareRouter(t, r, "SELECT i_title FROM item WHERE i_id = ?")
	warm(t, r, scatter)

	// Fill ONLY shard 0's queue with point reads; shard 1 stays empty.
	var queued []*core.Result
	for _, params := range pointParamsForShard(t, r, 0, queueCap) {
		queued = append(queued, r.Submit(point, params))
	}
	// The scatter read is admitted by shard 1 and rejected by shard 0: the
	// merged outcome must be one coherent typed overload (reads mutate
	// nothing, so "retry the whole statement" is always safe).
	err := r.Submit(scatter, nil).Wait()
	if !errors.Is(err, dbapi.ErrOverloaded) {
		t.Fatalf("partially rejected scatter read: got %v, want ErrOverloaded", err)
	}
	var oe *dbapi.OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("merged rejection must stay typed, got %T", err)
	}

	for _, q := range queued {
		if err := q.Wait(); err != nil {
			t.Fatalf("queued point read: %v", err)
		}
	}
	// Retry after drain: full result again.
	res := r.Submit(scatter, nil)
	if err := res.Wait(); err != nil {
		t.Fatalf("scatter retry after drain: %v", err)
	}
	if n := res.Rows[0][0].AsInt(); n != 120 {
		t.Fatalf("scatter retry returned %d, want 120", n)
	}
}

func TestShardTxCommitOverloadRejectsWholeGroup(t *testing.T) {
	const queueCap = 2
	r := admissionRouter(t, queueCap, time.Second)
	scatter := mustPrepareRouter(t, r, "SELECT COUNT(*) FROM item WHERE i_id >= 1000")
	warm(t, r, mustPrepareRouter(t, r, "SELECT COUNT(*) FROM item"))

	// Two inserts owned by different shards: the commit group is dirty on
	// both.
	var idA, idB int64 = -1, -1
	for id := int64(1000); id < 1200 && (idA < 0 || idB < 0); id++ {
		if r.Partitioning().ShardOf(types.NewInt(id)) == 0 {
			if idA < 0 {
				idA = id
			}
		} else if idB < 0 {
			idB = id
		}
	}
	point := mustPrepareRouter(t, r, "SELECT i_title FROM item WHERE i_id = ?")
	var queued []*core.Result
	for _, params := range pointParamsForShard(t, r, 0, queueCap) {
		queued = append(queued, r.Submit(point, params))
	}

	tx := r.BeginTx()
	row := func(id int64) types.Row {
		return types.Row{types.NewInt(id), types.NewString("tx"), types.NewInt(1),
			types.NewString("ARTS"), types.NewFloat(1)}
	}
	tx.Insert("item", row(idA))
	tx.Insert("item", row(idB))
	err := r.SubmitTx(tx).Wait()
	if !errors.Is(err, dbapi.ErrOverloaded) {
		t.Fatalf("commit with one full shard: got %v, want ErrOverloaded", err)
	}

	for _, q := range queued {
		if err := q.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	// Neither shard may have applied its half of the rejected group.
	res := r.Submit(scatter, nil)
	if err := res.Wait(); err != nil {
		t.Fatal(err)
	}
	if n := res.Rows[0][0].AsInt(); n != 0 {
		t.Fatalf("rejected tx group applied %d rows, want 0", n)
	}
}
