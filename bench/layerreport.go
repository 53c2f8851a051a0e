package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"shareddb/internal/tpcw"
	"shareddb/internal/types"
)

// perLayerUnits names every per-layer metric with its unit. A traced run
// prints all of them on every workload, zero where the workload bypasses
// the layer. BENCHMARK.json lists the same names; the package test keeps
// the two in step.
var perLayerUnits = map[string]string{
	"samples":    "count",
	"fail_share": "share",

	"client.rtt_us":   "us",
	"client.p50_ms":   "ms",
	"client.p99_ms":   "ms",
	"client.p999_ms":  "ms",
	"shareddb.p50_ms": "ms", "shareddb.p99_ms": "ms", "shareddb.p999_ms": "ms",

	"shareddb.call_us.read.p50": "us", "shareddb.call_us.read.p99": "us", "shareddb.call_us.read.p999": "us",
	"shareddb.call_us.write.p50": "us", "shareddb.call_us.write.p99": "us", "shareddb.call_us.write.p999": "us",
	"shareddb.call_us.tx.p50": "us", "shareddb.call_us.tx.p99": "us", "shareddb.call_us.tx.p999": "us",

	"wire.encode_ns_per_frame": "ns",
	"wire.decode_ns_per_frame": "ns",
	"wire.bytes_per_op":        "B",
	"server.net_overhead_us":   "us",

	"sql.parse_us_per_stmt":    "us",
	"plan.prepare_us_per_stmt": "us",
	"plan.nodes":               "count",
	"plan.generation_ms":       "ms",

	"core.generations_s":          "1/s",
	"core.queries_per_generation": "count",
	"core.writes_per_generation":  "count",
	"core.fold_hit_rate":          "share",
	"core.queue_wait_ms":          "ms",

	"operators.active_ms_per_generation": "ms",

	"storage.scan_rows_s":         "1/s",
	"storage.apply_us_per_write":  "us",
	"storage.delta_us_per_write":  "us",
	"storage.pin_us":              "us",
	"storage.wal_bytes_per_write": "B",
	"storage.recovered_share":     "share",

	"shard.merge_us_per_op": "us",
	"shard.scatter_share":   "share",
	"shard.fanout_factor":   "ratio",

	"runtime.allocs_per_op":       "count",
	"runtime.heap_mb":             "MB",
	"runtime.gc_pause_ms":         "ms",
	"runtime.generator_cpu_share": "share",

	"trace_overhead":        "share",
	"budget_residual_share": "share",

	"share.network":        "share",
	"share.scan_operators": "share",
	"share.write_phase":    "share",
	"share.shard_merge":    "share",
}

// layerReport collects a traced run's per-layer values.
type layerReport struct {
	v map[string]float64
}

func (r *layerReport) fill(out map[string]metric) {
	for name, unit := range perLayerUnits {
		out[name] = metric{r.v[name], unit}
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// setQuantiles stores the p50/p99/p999 of sorted values under prefix,
// scaled (1 for ms, 1000 for µs).
func (r *layerReport) setQuantiles(prefix, unitSuffix string, sorted []float64, scale float64) {
	for _, q := range []struct {
		name string
		q    float64
	}{{"p50", 0.50}, {"p99", 0.99}, {"p999", 0.999}} {
		r.v[prefix+q.name+unitSuffix] = exactQuantile(sorted, q.q) * scale
	}
}

// tracedRun produces the per-layer metrics. w0/before/after are the
// untraced window already run; it adds a traced window of the same length
// (the difference in throughput is the tracing overhead), on the network
// workload a third window that drives the same requests in process, and
// then the layer probes.
func tracedRun(o runOptions, def workloadDef, sys system, w0 window, before, after counters) (*layerReport, error) {
	r := &layerReport{v: map[string]float64{}}
	secs := o.window.Seconds()
	ns, isNet := sys.(*netSystem)
	ts, _ := sys.(*tpcwSystem)

	r.v["samples"] = float64(len(w0.durs))
	opPrefix := "shareddb."
	if isNet {
		opPrefix = "client."
	}
	r.setQuantiles(opPrefix, "_ms", w0.durs, 1)

	// internal/core and runtime, from counters read outside the window.
	gens := float64(after.stats.Generations - before.stats.Generations)
	run := float64(after.stats.QueriesRun - before.stats.QueriesRun)
	folded := float64(after.stats.FoldedQueries - before.stats.FoldedQueries)
	writes := float64(after.stats.WritesApplied - before.stats.WritesApplied)
	r.v["core.generations_s"] = gens / secs
	r.v["core.queries_per_generation"] = ratio(run, gens)
	r.v["core.writes_per_generation"] = ratio(writes, gens)
	r.v["core.fold_hit_rate"] = ratio(folded, run+folded)
	r.v["runtime.allocs_per_op"] = ratio(float64(after.mem.Mallocs-before.mem.Mallocs), float64(w0.attempted))
	r.v["runtime.heap_mb"] = float64(after.mem.HeapAlloc) / (1 << 20)
	r.v["runtime.gc_pause_ms"] = float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6
	r.v["storage.wal_bytes_per_write"] = ratio(float64(after.walBytes-before.walBytes), writes)
	if ts != nil && ts.cfg.Shards > 1 {
		r.v["shard.fanout_factor"] = ratio(run, float64(after.reads-before.reads)-folded)
	}

	// Traced window.
	lanes := sys.lanes()
	newTraces := func() []*laneTrace {
		t := make([]*laneTrace, len(lanes))
		for i := range t {
			t[i] = newLaneTrace(def.spansPerOp() * def.laneCapacity(o.window))
		}
		return t
	}
	traces := newTraces()
	w1, _, _, _ := timedWindow(def, sys, o.window, traces)
	r.v["trace_overhead"] = 1 - ratio(w1.opsPerSecond(), w0.opsPerSecond())
	cap := sys.captured()
	callTraces := traces
	inProcessOps := 0.0 // of the network workload's requests driven in process
	if isNet {
		rtt := spanDurations(traces, spanClientQuery, o.window)
		r.v["client.rtt_us"] = exactQuantile(rtt, 0.5) * 1000
		// The same request stream, in process.
		ns.setInProcess(true)
		callTraces = newTraces()
		w2, _, _, _ := timedWindow(def, sys, o.window, callTraces)
		ns.setInProcess(false)
		r.setQuantiles("shareddb.", "_ms", w2.durs, 1)
		inProcessOps = w2.opsPerSecond()
	}
	r.setQuantiles("shareddb.call_us.read.", "", spanDurations(callTraces, spanStmtQuery, o.window), 1000)
	r.setQuantiles("shareddb.call_us.write.", "", spanDurations(callTraces, spanStmtExec, o.window), 1000)
	r.setQuantiles("shareddb.call_us.tx.", "", spanDurations(callTraces, spanTx, o.window), 1000)
	if isNet {
		r.v["server.net_overhead_us"] = r.v["client.rtt_us"] - r.v["shareddb.call_us.read.p50"]
	}
	path, err := writeTrace(o.outDir, def.name, traces)
	if err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	fmt.Fprintf(o.log, "trace %s\n", path)

	// Layer probes on a replay store.
	walDir := ""
	if ts != nil && ts.walDir != "" {
		if walDir, err = os.MkdirTemp(filepath.Dir(ts.walDir), "replay-wal-"); err != nil {
			return nil, err
		}
		defer os.RemoveAll(walDir)
	}
	shards := 1
	if ts != nil {
		shards = ts.cfg.Shards
	}
	store, err := def.replayStore(o.seed, walDir, shards)
	if err != nil {
		return nil, fmt.Errorf("replay store: %w", err)
	}
	defer store.Close()
	in := layerInput{cap: cap, store: store,
		queriesPerGn: int(r.v["core.queries_per_generation"] + 0.5),
		writesPerGn:  int(r.v["core.writes_per_generation"] + 0.5)}
	if isNet {
		in.sqls, in.cfg = netSQL, ns.cfg
	} else {
		in.sqls, in.cfg = ts.sqls, ts.cfg
	}
	lt, err := probeLayers(in)
	if err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	fmt.Fprintf(o.log, "replayed writes %d, failed %d\n", lt.writesReplayed, lt.writesFailed)
	r.v["sql.parse_us_per_stmt"] = lt.parseUsPerStmt
	r.v["plan.prepare_us_per_stmt"] = lt.prepareUsPerStmt
	r.v["plan.nodes"] = float64(lt.planNodes)
	r.v["plan.generation_ms"] = lt.generationMs
	r.v["operators.active_ms_per_generation"] = lt.activeMs
	r.v["storage.scan_rows_s"] = lt.scanRowsPerSec
	r.v["storage.apply_us_per_write"] = lt.applyUsPerWrite
	r.v["storage.delta_us_per_write"] = lt.deltaUsPerWrite
	r.v["storage.pin_us"] = lt.pinUs

	if isNet {
		remote := ns.ls[0].remote
		wt, err := probeWire(cap.reads, ns.queryRemote, [][]string{remote[netSearch].Columns(), remote[netPoint].Columns()})
		if err != nil {
			return nil, fmt.Errorf("wire probe: %w", err)
		}
		r.v["wire.encode_ns_per_frame"] = wt.encodeNsPerFrame
		r.v["wire.decode_ns_per_frame"] = wt.decodeNsPerFrame
		r.v["wire.bytes_per_op"] = wt.bytesPerOp
	} else {
		st, err := probeShardMerge(ts.db, ts.cfg, ts.sqls, cap.reads)
		if err != nil {
			return nil, fmt.Errorf("shard probe: %w", err)
		}
		r.v["shard.merge_us_per_op"] = st.mergeUsPerOp
		r.v["shard.scatter_share"] = st.scatterShare
	}

	r.v["runtime.generator_cpu_share"] = generatorCPUShare(o, def, w0)

	// The latency budget of one read call, from outside: what the probes
	// measured for its generation, its write phase and its merge, and what
	// is left over. The model's wait is half a generation period.
	callMs := r.v["shareddb.call_us.read.p50"] / 1000
	writeMs := (r.v["core.writes_per_generation"]*(lt.applyUsPerWrite+lt.deltaUsPerWrite) + lt.pinUs) / 1000
	mergeMs := r.v["shard.merge_us_per_op"] * r.v["shard.scatter_share"] / 1000
	r.v["core.queue_wait_ms"] = callMs - lt.generationMs - writeMs - mergeMs
	halfPeriodMs := ratio(500, r.v["core.generations_s"])
	r.v["budget_residual_share"] = ratio(callMs-halfPeriodMs-lt.generationMs-writeMs-mergeMs, callMs)

	// Where the machine's time goes: each layer's busy seconds per second
	// of window, as a share of the processors. The engine-side layers are
	// the probes' per-generation (or per-read) cost times the observed
	// rate. The network path has no probe that sees its system calls, so
	// its share is what the same requests stop costing once they skip it:
	// 1 - network throughput / in-process throughput, both saturated.
	procs := float64(runtime.GOMAXPROCS(0))
	gensPerSec := r.v["core.generations_s"]
	r.v["share.scan_operators"] = lt.activeMs * gensPerSec / 1000 / procs
	r.v["share.write_phase"] = writeMs * gensPerSec / 1000 / procs
	scattersPerSec := r.v["shard.scatter_share"] * (float64(after.reads-before.reads) - folded) / secs
	r.v["share.shard_merge"] = r.v["shard.merge_us_per_op"] * scattersPerSec / 1e6 / procs
	if isNet {
		r.v["share.network"] = 1 - ratio(w1.opsPerSecond(), inProcessOps)
	}
	return r, nil
}

// generatorCPUShare estimates the load generator's own CPU as a share of
// the machine during the window: the lanes' pre-generated operations are
// run again against a system that answers instantly, on one goroutine,
// and the time that takes is scaled to the operations the window ran.
func generatorCPUShare(o runOptions, def workloadDef, w0 window) float64 {
	const steps = 20000
	var lanes []lane
	if def.net != nil {
		s := &netSystem{spec: *def.net}
		s.buildRequests()
		for i := 0; i < 8; i++ {
			rng := rand.New(rand.NewSource(o.seed + int64(i)*7919))
			lanes = append(lanes, &netLane{sys: s, seq: s.requestSequence(rng), mode: noCall})
		}
	} else {
		ids := tpcw.NewIDAllocator(tpcw.NewGenerator(def.tpcw.scale, o.seed))
		for i := 0; i < 8; i++ {
			l := &tpcwLane{seq: interactionSequence(def.tpcw.mix, rand.New(rand.NewSource(o.seed+int64(i)*104729+1)))}
			l.sess = tpcw.NewSession(nullSystem{}, def.tpcw.scale, ids, o.seed+int64(i)*7919)
			lanes = append(lanes, l)
		}
	}
	t0 := time.Now()
	for n := 0; n < steps; n++ {
		lanes[n%len(lanes)].step(nil)
	}
	perOp := time.Since(t0).Seconds() / steps
	return perOp * float64(w0.attempted) / (o.window.Seconds() * float64(runtime.GOMAXPROCS(0)))
}

// nullSystem answers every TPC-W call at once with one canned row, so a
// session run against it costs only the generator's own work.
type nullSystem struct{}

var cannedRows = func() []types.Row {
	row := make(types.Row, 24)
	for i := range row {
		row[i] = types.NewInt(1)
	}
	return []types.Row{row}
}()

func (nullSystem) Name() string                                           { return "null" }
func (nullSystem) Close()                                                 {}
func (nullSystem) Query(tpcw.StmtID, ...types.Value) ([]types.Row, error) { return cannedRows, nil }
func (nullSystem) Exec(tpcw.StmtID, ...types.Value) (int, error)          { return 1, nil }
func (nullSystem) ExecTx(fn func(tpcw.TxSink) error) error                { return fn(nullSink{}) }

type nullSink struct{}

func (nullSink) Exec(tpcw.StmtID, ...types.Value) error { return nil }
