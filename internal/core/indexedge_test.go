package core

import (
	"strings"
	"sync"
	"testing"
	"time"

	"shareddb/internal/baseline"
	"shareddb/internal/plan"
	"shareddb/internal/storage"
	"shareddb/internal/types"
)

// Differential tests for the index-edge rule: a scalar MIN/MAX over an
// index-leading column (optionally behind an equality prefix) is compiled to
// an index-edge probe and must return, at every snapshot, what the
// query-at-a-time baseline computes from a full scan.

// edgeDB is an event log: PK e_id, a composite index (e_grp, e_seq) and a
// nullable e_note with an index of its own.
func edgeDB(t *testing.T) *storage.Database {
	t.Helper()
	db, err := storage.Open(storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	ev, err := db.CreateTable("ev", types.NewSchema(
		types.Column{Qualifier: "ev", Name: "e_id", Kind: types.KindInt},
		types.Column{Qualifier: "ev", Name: "e_grp", Kind: types.KindInt},
		types.Column{Qualifier: "ev", Name: "e_seq", Kind: types.KindInt},
		types.Column{Qualifier: "ev", Name: "e_note", Kind: types.KindString},
	))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev.SetPrimaryKey("e_id"); err != nil {
		t.Fatal(err)
	}
	if _, err := ev.AddIndex("ev_grp_seq", false, "e_grp", "e_seq"); err != nil {
		t.Fatal(err)
	}
	if _, err := ev.AddIndex("ev_note", false, "e_note"); err != nil {
		t.Fatal(err)
	}
	return db
}

// edgeReads are the statements under test with one parameter binding each:
// the first six take the edge probe, the last two must not.
var edgeReads = []struct {
	sql    string
	params []types.Value
}{
	{"SELECT MAX(e_id) FROM ev", nil},
	{"SELECT MIN(e_id) FROM ev", nil},
	{"SELECT MAX(e_seq) FROM ev WHERE e_grp = ?", []types.Value{types.NewInt(1)}},
	{"SELECT MIN(e_seq) FROM ev WHERE e_grp = ?", []types.Value{types.NewInt(1)}},
	{"SELECT MAX(e_note), MAX(e_note) FROM ev", nil},
	{"SELECT MIN(e_note) FROM ev", nil},
	{"SELECT MAX(e_id) FROM ev WHERE e_grp = ?", []types.Value{types.NewInt(1)}}, // e_id does not follow e_grp in any index: probe → Γ
	{"SELECT MAX(e_id) FROM ev WHERE e_id > ?", []types.Value{types.NewInt(3)}},  // a range is not an equality prefix: scan → Γ
}

type edgeEnv struct {
	t      *testing.T
	eng    *Engine
	shared []*plan.Statement
	oracle []*baseline.Stmt
	write  map[string]*plan.Statement
}

func newEdgeEnv(t *testing.T, cfg Config) *edgeEnv {
	t.Helper()
	db := edgeDB(t)
	env := &edgeEnv{t: t, eng: New(db, plan.New(db), cfg), write: map[string]*plan.Statement{}}
	t.Cleanup(env.eng.Close)
	qat := baseline.New(db, baseline.SystemXLike)
	for _, rd := range edgeReads {
		env.shared = append(env.shared, mustPrepare(t, env.eng, rd.sql))
		bs, err := qat.Prepare(rd.sql)
		if err != nil {
			t.Fatal(err)
		}
		env.oracle = append(env.oracle, bs)
	}
	for name, sqlText := range map[string]string{
		"insert":  "INSERT INTO ev VALUES (?, ?, ?, ?)",
		"delete":  "DELETE FROM ev WHERE e_id = ?",
		"reseq":   "UPDATE ev SET e_seq = ? WHERE e_id = ?",
		"regroup": "UPDATE ev SET e_grp = ? WHERE e_id = ?",
	} {
		env.write[name] = mustPrepare(t, env.eng, sqlText)
	}
	return env
}

func (env *edgeEnv) exec(name string, params ...types.Value) {
	env.t.Helper()
	if err := env.eng.Submit(env.write[name], params).Wait(); err != nil {
		env.t.Fatalf("%s %v: %v", name, params, err)
	}
}

// check runs every read and compares it with the baseline at the snapshot
// the read executed at.
func (env *edgeEnv) check(when string) {
	env.t.Helper()
	for i, rd := range edgeReads {
		res := run(env.t, env.eng, env.shared[i], rd.params...)
		want, err := env.oracle[i].ExecAt(rd.params, res.SnapshotTS)
		if err != nil {
			env.t.Fatal(err)
		}
		if !sameRows(res.Rows, want.Rows) {
			env.t.Fatalf("%s: %q %v:\nshared   %v\nbaseline %v", when, rd.sql, rd.params, canon(res.Rows), canon(want.Rows))
		}
	}
}

func TestIndexEdgePlanShape(t *testing.T) {
	env := newEdgeEnv(t, Config{})
	desc := env.eng.Plan().Describe()
	for _, want := range []string{
		"probe(ev/pk_ev) [max] → Γ(MAX|false|ev.0)",
		"probe(ev/pk_ev) [min] → Γ(MIN|false|ev.0)",
		"probe(ev/ev_grp_seq) [max] → Γ(MAX|false|ev.2)",
		"probe(ev/ev_grp_seq) [min] → Γ(MIN|false|ev.2)",
		"probe(ev/ev_note) [max] → Γ(MAX|false|ev.3)",
		"probe(ev/ev_grp_seq) → Γ(MAX|false|ev.0)", // MAX(e_id) WHERE e_grp = ?: the ordinary equality probe
		"Γ(MAX|false|ev.0) ⇐ mirror(ev)",           // MAX(e_id) WHERE e_id > ?: read from the column mirror
	} {
		if !strings.Contains(desc, want) {
			t.Errorf("plan lacks %q:\n%s", want, desc)
		}
	}
	if got := strings.Count(desc, ": Γ(MAX|false|ev.0)"); got != 1 {
		t.Errorf("MAX(e_id) is grouped by %d nodes, want the one shared Γ:\n%s", got, desc)
	}
	env.check("first generation")
	if env.eng.Plan().PathCycles().IndexEdge == 0 {
		t.Error("no index-edge probe cycle was dispatched")
	}
}

func TestIndexEdgeAgainstBaseline(t *testing.T) {
	env := newEdgeEnv(t, Config{})
	i := func(v int64) types.Value { return types.NewInt(v) }
	env.check("empty table") // every aggregate NULL

	for id := int64(1); id <= 6; id++ {
		env.exec("insert", i(id), i(id%2), i(10*id), types.Null)
	}
	env.check("all-NULL e_note") // MIN and MAX over a column of NULLs

	env.exec("delete", i(6))
	env.check("the maximum row deleted")
	env.exec("insert", i(6), i(1), i(5), types.NewString("back"))
	env.check("and re-inserted under a new row id")
	env.exec("delete", i(1))
	env.check("the minimum row deleted")

	// grp 1 now holds (id, seq) = (3, 30), (5, 50), (6, 5).
	env.exec("reseq", i(1), i(5)) // the maximum drops to the bottom: a stale (1, 50) entry stays at the edge
	env.check("the extreme key updated downward")
	env.exec("reseq", i(70), i(3))
	env.check("and another one upward")
	env.exec("regroup", i(0), i(3)) // row 3 leaves grp 1; its (1, 70) entry stays at the edge
	env.check("the extreme row moved out of the prefix")
	env.exec("regroup", i(0), i(5))
	env.exec("regroup", i(0), i(6))
	env.check("the prefix emptied")

	if env.eng.Plan().PathCycles().IndexEdge == 0 {
		t.Error("no index-edge probe cycle was dispatched")
	}
}

// A writer appends ever larger keys while readers ask for MAX(e_id) through
// pipelined generations: a generation pinned before a later generation's
// insert lands meets that insert's entry at the edge of the index and must
// walk past it. Every read is replayed through the baseline at the snapshot
// it executed at.
func TestIndexEdgePinnedSnapshotUnderWrites(t *testing.T) {
	env := newEdgeEnv(t, Config{MaxInFlightGenerations: 4})
	for id := int64(1); id <= 2000; id++ { // enough rows that generations take long enough to overlap
		env.exec("insert", types.NewInt(id), types.NewInt(id%4), types.NewInt(id), types.Null)
	}
	heavy := mustPrepare(t, env.eng, "SELECT e_grp, COUNT(*) FROM ev WHERE e_seq > ? GROUP BY e_grp")

	type observation struct {
		stmt int
		rows []types.Row
		ts   uint64
	}
	var mu sync.Mutex
	var observed []observation
	next := int64(2001)
	deadline := time.Now().Add(20 * time.Second)
	for round := 0; ; round++ {
		// The writer inserts for as long as the readers read, so the two
		// race whatever their relative speed.
		var wg sync.WaitGroup
		readersDone := make(chan struct{})
		writerDone := make(chan struct{})
		go func() {
			defer close(writerDone)
			for {
				select {
				case <-readersDone:
					return
				default:
				}
				env.exec("insert", types.NewInt(next), types.NewInt(next%4), types.NewInt(next), types.Null)
				next++
			}
		}()
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					if g == 0 { // keeps generations busy so they overlap
						if err := env.eng.Submit(heavy, []types.Value{types.NewInt(int64(i))}).Wait(); err != nil {
							t.Error(err)
						}
						continue
					}
					k := (g + i) % 4 // the four edge statements over e_id and e_seq
					res := env.eng.Submit(env.shared[k], edgeReads[k].params)
					if err := res.Wait(); err != nil {
						t.Error(err)
						return
					}
					mu.Lock()
					observed = append(observed, observation{k, res.Rows, res.SnapshotTS})
					mu.Unlock()
				}
			}(g)
		}
		wg.Wait()
		close(readersDone)
		<-writerDone
		if t.Failed() {
			t.FailNow()
		}
		if _, peak := env.eng.InFlightGenerations(); peak > 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("never observed overlapping generations")
		}
	}
	distinct := map[int64]bool{}
	for _, ob := range observed {
		want, err := env.oracle[ob.stmt].ExecAt(edgeReads[ob.stmt].params, ob.ts)
		if err != nil {
			t.Fatal(err)
		}
		if !sameRows(ob.rows, want.Rows) {
			t.Fatalf("%q at ts %d: shared %v, baseline %v", edgeReads[ob.stmt].sql, ob.ts, canon(ob.rows), canon(want.Rows))
		}
		if ob.stmt == 0 {
			distinct[ob.rows[0][0].AsInt()] = true
		}
	}
	if len(distinct) < 2 {
		t.Errorf("MAX(e_id) never moved across %d reads; the writer did not race the readers", len(observed))
	}
}

// Identical concurrent MAX reads still fold into one activation: the edge
// probe changes the access path, not the statement's identity at admission.
func TestIndexEdgeReadsFold(t *testing.T) {
	env := newEdgeEnv(t, Config{})
	for id := int64(1); id <= 50; id++ {
		env.exec("insert", types.NewInt(id), types.NewInt(0), types.NewInt(id), types.Null)
	}
	deadline := time.Now().Add(10 * time.Second)
	for env.eng.Stats().FoldedQueries == 0 && time.Now().Before(deadline) {
		results := make([]*Result, 32)
		for i := range results {
			results[i] = env.eng.Submit(env.shared[0], nil)
		}
		for _, res := range results {
			if err := res.Wait(); err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != 1 || res.Rows[0][0].AsInt() != 50 {
				t.Fatalf("MAX(e_id) = %v, want 50", res.Rows)
			}
		}
	}
	if env.eng.Stats().FoldedQueries == 0 {
		t.Error("identical concurrent MAX(e_id) reads never folded")
	}
}
