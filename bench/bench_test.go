package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"shareddb/internal/shard"
	"shareddb/internal/sql"
)

// TestWorkloads runs every workload traced, at a one-second window and the
// tiny scale, and checks that each metric BENCHMARK.json names comes out
// with the unit it names and that nothing failed. A traced run also runs
// the untraced window, so this covers both metric sets and keeps every
// layer probe compiling and running under go test.
func TestWorkloads(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.PerLayer) != len(perLayerUnits) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the program reports %d", len(spec.PerLayer), len(perLayerUnits))
	}
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			rep, err := runWorkload(runOptions{workload: w.Name, seed: 7, window: time.Second,
				trace: true, setups: 1, tiny: true, outDir: t.TempDir(), log: io.Discard})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.correct || rep.failed != 0 || rep.attempted == 0 {
				t.Errorf("correct=%v attempted=%d failed=%d: %v", rep.correct, rep.attempted, rep.failed, rep.problems)
			}
			for _, m := range spec.EndToEnd {
				got, ok := rep.endToEnd[m.Name]
				if !ok || got.Unit != m.Unit || !(got.Value > 0) {
					t.Errorf("end-to-end %s: got %+v (present %v), want a positive value in %s", m.Name, got, ok, m.Unit)
				}
			}
			for _, m := range spec.PerLayer {
				got, ok := rep.perLayer[m.Name]
				if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("per-layer %s: got %+v (present %v), want a finite value in %s", m.Name, got, ok, m.Unit)
				}
			}
			if fs := rep.perLayer["fail_share"].Value; fs != 0 {
				t.Errorf("fail_share = %v, want 0", fs)
			}
			// The layer each workload exists for must have been exercised.
			for _, name := range map[string][]string{
				"tpcw_browsing":    {"plan.generation_ms", "storage.scan_rows_s", "shareddb.call_us.read.p50"},
				"tpcw_ordering":    {"storage.apply_us_per_write", "storage.wal_bytes_per_write", "storage.recovered_share", "shareddb.call_us.tx.p50"},
				"net_fanin":        {"client.rtt_us", "wire.bytes_per_op", "core.fold_hit_rate"},
				"sharded_shopping": {"shard.merge_us_per_op", "shard.fanout_factor"},
			}[w.Name] {
				if !(rep.perLayer[name].Value > 0) {
					t.Errorf("%s = %v on %s, want it exercised", name, rep.perLayer[name].Value, w.Name)
				}
			}
		})
	}
}

// TestShardProbeRoutesLikeRouter holds the shard probe's copy of the
// placement rule to the live router: every read statement a short window
// captures is run once on the idle sharded system, and the shards whose
// QueriesRun moved must be all of them exactly when the probe calls the
// statement a scatter.
func TestShardProbeRoutesLikeRouter(t *testing.T) {
	defs := workloadDefs(true)
	def := defs[len(defs)-1]
	if def.name != "sharded_shopping" {
		t.Fatalf("last workload is %q", def.name)
	}
	sys, err := def.setup(7, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.close()
	timedWindow(def, sys, 300*time.Millisecond, nil)
	ts := sys.(*tpcwSystem)
	router, ok := ts.db.Engine().(*shard.Router)
	if !ok {
		t.Fatal("the sharded workload does not run on a shard.Router")
	}
	run := func() (n []uint64) {
		for _, e := range router.Engines() {
			n = append(n, e.Stats().QueriesRun)
		}
		return n
	}
	cat := probeCatalog(ts.db, ts.cfg)
	seen, scatters := map[int]bool{}, 0
	for _, c := range ts.captured().reads {
		if seen[c.stmt] {
			continue
		}
		seen[c.stmt] = true
		ss, err := shardPlan(cat, ts.sqls[c.stmt])
		if err != nil {
			t.Fatal(err)
		}
		before := run()
		if _, err := ts.stmts[c.stmt].Query(toArgs(c.params)...); err != nil {
			t.Fatal(err)
		}
		hit := 0
		for i, n := range run() {
			if n > before[i] {
				hit++
			}
		}
		probe, live := ss.Route == sql.RouteBroadcast, hit == len(before)
		if probe != live {
			t.Errorf("%s: probe says scatter=%v, the router ran it on %d of %d shards", ts.sqls[c.stmt], probe, hit, len(before))
		}
		if live {
			scatters++
		}
	}
	if len(seen) < 5 || scatters == 0 || scatters == len(seen) {
		t.Errorf("%d statements seen, %d scattered: want both kinds covered", len(seen), scatters)
	}
}

func TestEngineConfigIgnoresUnknownFields(t *testing.T) {
	saved := engineConfigJSON
	defer func() { engineConfigJSON = saved }()
	engineConfigJSON = []byte(`{"w": {"FoldQueries": true, "Shards": 2, "RemovedKnob": 1}}`)
	cfg, ignored, err := engineConfig("w")
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.FoldQueries || cfg.Shards != 2 {
		t.Errorf("config not decoded by field name: %+v", cfg)
	}
	if len(ignored) != 1 || ignored[0] != "RemovedKnob" {
		t.Errorf("ignored = %v, want [RemovedKnob]", ignored)
	}
	if _, _, err := engineConfig("absent"); err == nil {
		t.Error("an unknown workload must be an error")
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	os.WriteFile(spec, []byte(`{"workloads":[{"name":"w"}],"end_to_end":[
		{"name":"ops_s","unit":"1/s","better":"higher","bound":0.1},
		{"name":"p95_ms","unit":"ms","better":"lower","bound":0.1}]}`), 0o644)
	write := func(name string, ops, p95 []float64) string {
		path := filepath.Join(dir, name)
		for i := range ops {
			rec := recordLine{Workload: "w", resultLine: resultLine{Correct: true, Attempted: 1, Metrics: map[string]metric{
				"ops_s": {ops[i], "1/s"}, "p95_ms": {p95[i], "ms"}}}}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("a", []float64{100, 101, 99, 100, 102}, []float64{10, 10.1, 9.9, 10, 10.2})
	same := write("b", []float64{99, 100, 101, 98, 100}, []float64{10.3, 10, 10.1, 9.9, 10.2})
	slow := write("c", []float64{80, 81, 79, 80, 82}, []float64{10, 10.1, 9.9, 10, 10.2})
	noisy := write("d", []float64{100, 140, 70, 100, 120}, []float64{10, 10.1, 9.9, 10, 10.2})
	for _, c := range []struct {
		name string
		b    string
		want int
	}{{"within bounds", same, 0}, {"throughput fell 20%", slow, 1}, {"spread wider than the bound", noisy, 3}} {
		if got := compareFiles(spec, base, c.b, io.Discard, io.Discard); got != c.want {
			t.Errorf("%s: exit code %d, want %d", c.name, got, c.want)
		}
	}
}
