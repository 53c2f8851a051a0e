package experiments

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"shareddb/internal/tpcw"
)

// tinyOpts keeps the experiment smoke tests fast; the real sweeps run via
// cmd/tpcw and cmd/microbench.
func tinyOpts() Options {
	return Options{
		Scale:         tpcw.Scale{Items: 60, Customers: 40},
		PointDuration: 60 * time.Millisecond,
		ThinkTime:     time.Millisecond,
		Seed:          5,
	}
}

func TestEnvAllSystems(t *testing.T) {
	for _, kind := range AllSystems {
		env, err := NewEnv(kind, tpcw.Scale{Items: 50, Customers: 30}, 1)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if env.Sys.Name() != kind.String() {
			t.Errorf("name = %s, want %s", env.Sys.Name(), kind)
		}
		env.Close()
	}
}

func TestFig7Smoke(t *testing.T) {
	res, err := Fig7(tpcw.Shopping, []int{4}, tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range AllSystems {
		pts := res[kind]
		if len(pts) != 1 {
			t.Fatalf("%s: %d points", kind, len(pts))
		}
		if pts[0].WIPS <= 0 {
			t.Errorf("%s: WIPS = %v", kind, pts[0].WIPS)
		}
	}
	out := RenderFig7(tpcw.Shopping, res)
	if !strings.Contains(out, "SharedDB") || !strings.Contains(out, "EBs") {
		t.Errorf("render:\n%s", out)
	}
}

func TestFig8Smoke(t *testing.T) {
	res, err := Fig8(tpcw.Ordering, []int{runtime.NumCPU()}, 4, tinyOpts(), runtime.GOMAXPROCS)
	if err != nil {
		t.Fatal(err)
	}
	if res[SharedDB][0].WIPS <= 0 {
		t.Error("no throughput measured")
	}
	if out := RenderFig8(tpcw.Ordering, res); !strings.Contains(out, "Cores") {
		t.Errorf("render:\n%s", out)
	}
}

func TestFig9Smoke(t *testing.T) {
	opts := tinyOpts()
	opts.PointDuration = 15 * time.Millisecond
	res, err := Fig9(4, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res[SharedDB]) != int(tpcw.NumInteractions) {
		t.Fatalf("points = %d", len(res[SharedDB]))
	}
	if out := RenderFig9(res); !strings.Contains(out, "BestSellers") {
		t.Errorf("render:\n%s", out)
	}
}

func TestFig10Smoke(t *testing.T) {
	res, err := Fig10(HeavyQuery, []int{1, 8}, tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range AllSystems {
		if len(res[kind]) != 2 || res[kind][1].Elapsed <= 0 {
			t.Errorf("%s: %+v", kind, res[kind])
		}
	}
	if out := RenderFig10(HeavyQuery, res); !strings.Contains(out, "BestSellers") {
		t.Errorf("render:\n%s", out)
	}
	if LightQuery.String() != "SearchItemByTitle" {
		t.Error("query naming")
	}
}

func TestFig11Smoke(t *testing.T) {
	opts := tinyOpts()
	opts.PointDuration = 100 * time.Millisecond
	res, err := Fig11(50, []float64{0, 20}, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range AllSystems {
		if len(res[kind]) != 2 {
			t.Fatalf("%s: %d points", kind, len(res[kind]))
		}
		if res[kind][0].LightDone <= 0 {
			t.Errorf("%s: no light queries completed", kind)
		}
	}
	if out := RenderFig11(50, res); !strings.Contains(out, "Heavy/s") {
		t.Errorf("render:\n%s", out)
	}
}

// TestOverloadScenarioSmoke runs the admission-control overload scenario at
// toy scale: the run must complete (no deadlock under rejection), account
// for every offered query, and keep latency percentiles consistent.
func TestOverloadScenarioSmoke(t *testing.T) {
	opts := tinyOpts()
	opts.MaxGenerationDelay = 5 * time.Millisecond
	opts.QueueDepthLimit = 8
	res, err := Overload(opts, 400, 64)
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted+res.Shed != res.Offered {
		t.Fatalf("accounting: admitted %d + shed %d != offered %d", res.Admitted, res.Shed, res.Offered)
	}
	if res.Admitted == 0 {
		t.Fatal("overload scenario admitted nothing")
	}
	if res.Admitted > 0 && (res.P50 <= 0 || res.P99 < res.P50) {
		t.Fatalf("latency percentiles inconsistent: p50=%v p99=%v", res.P50, res.P99)
	}
	if rate := res.ShedRate(); rate < 0 || rate > 1 {
		t.Fatalf("shed rate %v out of range", rate)
	}
	// Without any admission limit the scenario refuses to run (it would
	// measure nothing).
	if _, err := Overload(tinyOpts(), 10, 2); err == nil {
		t.Fatal("Overload without admission limits must error")
	}
}
