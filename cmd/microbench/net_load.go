package main

// The network fan-in scenario: Load1k drives closed-loop clients over
// real loopback sockets against the wire front end — the same Zipfian
// title-search workload as the fold_zipf benches, but arriving the way
// the paper's thousand queries arrive. benchdiff excludes the -json record
// (load_1k) from the ns ratio gate (a wall-clock scenario).

import (
	"encoding/json"
	"fmt"
	"math"
	"os"

	"shareddb/internal/experiments"
)

// Load scenario shape: the fold configuration of fold_zipf_on (quota'd,
// heartbeat-paced serial generations) plus a queue cap so admission is
// live, driven from network connections instead of in-process goroutines.
const (
	loadItems    = 500
	loadQueueCap = 1024
)

// loadOptions maps the bench configuration onto the scenario options.
func loadOptions(opts experiments.Options, clients, pipeline int) experiments.LoadOptions {
	return experiments.LoadOptions{
		Clients:       clients,
		Distinct:      foldDistinct,
		Window:        foldWindow,
		PipelineDepth: pipeline,
		Items:         loadItems,
		Seed:          opts.Seed,
		Engine: experiments.Options{
			Workers:                opts.Workers,
			StatementQuota:         foldQuota,
			MaxInFlightGenerations: 1,
			Heartbeat:              foldHeartbeat,
			QueueDepthLimit:        loadQueueCap,
		},
	}
}

// benchLoad1k runs one Load1k pass and folds it into a bench record.
func benchLoad1k(opts experiments.Options, clients, pipeline int) (benchRecord, error) {
	res, err := experiments.Load1k(loadOptions(opts, clients, pipeline))
	if err != nil {
		return benchRecord{}, err
	}
	rps := res.RPS()
	ns := 0.0
	if rps > 0 {
		ns = math.Round(1e9 / rps)
	}
	return benchRecord{
		Name: "load_1k",
		Description: fmt.Sprintf(
			"%d closed-loop network clients over loopback, binary protocol, %d-deep pipelines: Zipf title search over %d params, quota %d, heartbeat %v, queue cap %d",
			clients, pipeline, foldDistinct, foldQuota, foldHeartbeat, loadQueueCap),
		Ops: int(res.Queries), Unit: "client query",
		NsPerOp: ns, OpsPerSec: rps, QueriesPerX: 1,
		P50Ns: float64(res.P50), P99Ns: float64(res.P99), P999Ns: float64(res.P999),
		ShedRate: res.ShedRate(), GenPerSec: res.GenerationsPerSec(), FoldHitRate: res.FoldHitRate(),
	}, nil
}

// runLoadScenario is the -load mode: the scenario at the requested client
// count, printed as its bench record.
func runLoadScenario(opts experiments.Options, clients, pipeline int) error {
	rec, err := benchLoad1k(opts, clients, pipeline)
	if err != nil {
		return err
	}
	out := json.NewEncoder(os.Stdout)
	out.SetIndent("", "  ")
	return out.Encode(rec)
}
