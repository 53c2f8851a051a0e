package experiments

import (
	"testing"
	"time"
)

// foldLoadOptions is the scaled-down fold configuration the load scenario
// runs under in tests: quota'd, heartbeat-paced serial generations so a
// window of identical queries accumulates and folds.
func foldLoadOptions() Options {
	return Options{
		StatementQuota:         4,
		MaxInFlightGenerations: 1,
		Heartbeat:              2 * time.Millisecond,
	}
}

// TestLoad1kBinary is the acceptance smoke at test scale: real sockets,
// real client package, and — the fan-in claim — queries from different
// connections folding into shared activations (FoldedQueries > 0).
func TestLoad1kBinary(t *testing.T) {
	res, err := Load1k(LoadOptions{
		Clients:       16,
		Distinct:      4,
		Window:        500 * time.Millisecond,
		PipelineDepth: 2,
		Items:         100,
		Seed:          7,
		Engine:        foldLoadOptions(),
	})
	if err != nil {
		t.Fatalf("Load1k: %v", err)
	}
	if res.Queries == 0 {
		t.Fatal("no queries completed")
	}
	if res.Engine.FoldedQueries == 0 {
		t.Fatalf("no folding across %d pipelined connections: %+v", res.Clients, res)
	}
	if res.RPS() <= 0 || res.P50 <= 0 || res.P99 < res.P50 {
		t.Fatalf("implausible measurements: %+v", res)
	}
	t.Logf("binary: %d queries, %.0f rps, p50 %v p99 %v p999 %v, fold hit %.2f",
		res.Queries, res.RPS(), res.P50, res.P99, res.P999, res.Engine.FoldHitRate())
}
