// Command benchdiff is the bench-regression gate: it compares a freshly
// generated microbench report (go run ./cmd/microbench -json) against the
// committed BENCH_baseline.json and fails — exit code 1 — when any gated
// benchmark regresses:
//
//   - ns/op grows by more than -ns-threshold percent (default 25), or
//   - allocs/op grows by more than -allocs-threshold percent (default 1:
//     the concurrent benches jitter by a few allocations in tens of
//     thousands run to run — scheduling changes map-growth timing — while
//     a real alloc regression moves the count by whole multiples; the
//     exact zero-alloc pins live in the CI allocation-gate tests, this
//     gate catches trend regressions).
//
// Benchmarks present in only one report are listed but not gated (that is
// how a new benchmark enters the baseline). -exclude drops named benches
// from gating entirely — CI excludes "overload", whose quantities of record
// are the p50/p99/shed-rate extras, reported here for trajectory but too
// scenario-shaped for a ratio gate.
//
//	go run ./cmd/microbench -json | tee bench-current.json
//	go run ./cmd/benchdiff -baseline BENCH_baseline.json -current bench-current.json -exclude overload
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"
)

// benchRecord mirrors the microbench report entries (unknown fields are
// ignored so the two commands can evolve independently).
type benchRecord struct {
	Name    string  `json:"name"`
	NsPerOp float64 `json:"ns_per_op"`
	// float64, not int64: rate-derived records have historically emitted
	// fractional ns_per_op/allocs_per_op values, and a gate that dies on a
	// decimal point in an otherwise valid report gates nothing. Parse
	// tolerantly, render rounded.
	AllocsPerOp float64 `json:"allocs_per_op"`
	P50Ns       float64 `json:"p50_ns"`
	P99Ns       float64 `json:"p99_ns"`
	ShedRate    float64 `json:"shed_rate"`
}

type benchReport struct {
	Go     string `json:"go"`
	Procs  int    `json:"gomaxprocs"`
	Config struct {
		Items     int   `json:"items"`
		Customers int   `json:"customers"`
		Shards    int   `json:"shards"`
		Seed      int64 `json:"seed"`
	} `json:"config"`
	Results []benchRecord `json:"results"`
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_baseline.json", "committed baseline report")
	currentPath := flag.String("current", "-", "fresh report to gate ('-' = stdin)")
	nsThreshold := flag.Float64("ns-threshold", 25, "max allowed ns/op regression in percent")
	allocsThreshold := flag.Float64("allocs-threshold", 1, "max allowed allocs/op growth in percent")
	exclude := flag.String("exclude", "", "comma-separated benchmark names to report but not gate")
	flag.Parse()

	baseline, err := load(*baselinePath)
	exitOn(err)
	current, err := load(*currentPath)
	exitOn(err)

	// Ratios only mean something when the two runs measured the same
	// workload in the same execution regime: GOMAXPROCS decides whether
	// the serial or the parallel operator paths ran (different allocs/op
	// profiles entirely), and the config block decides the data volume.
	// A Go version difference is worth knowing but not a gate.
	if baseline.Procs != current.Procs {
		exitOn(fmt.Errorf("gomaxprocs mismatch: baseline %d, current %d — pin GOMAXPROCS to the baseline's value (serial vs parallel operator paths are not comparable)",
			baseline.Procs, current.Procs))
	}
	if baseline.Config != current.Config {
		exitOn(fmt.Errorf("config mismatch: baseline %+v, current %+v — run microbench with the baseline's scale flags",
			baseline.Config, current.Config))
	}
	if baseline.Go != current.Go {
		fmt.Printf("note: go version differs (baseline %s, current %s) — expect some ns/op drift\n\n",
			baseline.Go, current.Go)
	}

	excluded := map[string]bool{}
	for _, name := range strings.Split(*exclude, ",") {
		if name = strings.TrimSpace(name); name != "" {
			excluded[name] = true
		}
	}

	base := map[string]benchRecord{}
	for _, r := range baseline.Results {
		base[r.Name] = r
	}
	failures := 0
	fmt.Printf("%-18s %14s %14s %8s %10s %10s %8s  %s\n",
		"benchmark", "base ns/op", "cur ns/op", "Δns%", "base alloc", "cur alloc", "Δalloc%", "verdict")
	for _, cur := range current.Results {
		b, ok := base[cur.Name]
		if !ok {
			fmt.Printf("%-18s %14s %14.0f %8s %10s %10.0f %8s  new (not gated)\n",
				cur.Name, "-", cur.NsPerOp, "-", "-", cur.AllocsPerOp, "-")
			continue
		}
		delete(base, cur.Name)
		nsDelta := pctDelta(b.NsPerOp, cur.NsPerOp)
		allocDelta := pctDelta(b.AllocsPerOp, cur.AllocsPerOp)
		verdict := "ok"
		switch {
		case excluded[cur.Name]:
			verdict = "excluded"
		case b.NsPerOp <= 0:
			verdict = "no baseline ns/op (not gated)"
		case nsDelta > *nsThreshold:
			verdict = fmt.Sprintf("FAIL ns/op +%.1f%% > %.1f%%", nsDelta, *nsThreshold)
			failures++
		case b.AllocsPerOp == 0 && cur.AllocsPerOp > 0:
			// A percentage gate cannot see growth from zero, and zero
			// allocations is exactly the pinned property worth guarding.
			verdict = fmt.Sprintf("FAIL allocs/op 0 -> %.0f", cur.AllocsPerOp)
			failures++
		case allocDelta > *allocsThreshold:
			verdict = fmt.Sprintf("FAIL allocs/op +%.1f%% > %.1f%%", allocDelta, *allocsThreshold)
			failures++
		}
		fmt.Printf("%-18s %14.0f %14.0f %+7.1f%% %10.0f %10.0f %+7.1f%%  %s\n",
			cur.Name, b.NsPerOp, cur.NsPerOp, nsDelta, b.AllocsPerOp, cur.AllocsPerOp, allocDelta, verdict)
		if cur.P99Ns > 0 || b.P99Ns > 0 {
			fmt.Printf("%-18s   p50 %v → %v, p99 %v → %v, shed %.1f%% → %.1f%% (informational)\n",
				"", ns(b.P50Ns), ns(cur.P50Ns), ns(b.P99Ns), ns(cur.P99Ns),
				b.ShedRate*100, cur.ShedRate*100)
		}
	}
	for name := range base {
		fmt.Printf("%-18s missing from current report (not gated)\n", name)
	}
	if failures > 0 {
		fmt.Printf("\nbenchdiff: %d benchmark(s) regressed\n", failures)
		os.Exit(1)
	}
	fmt.Println("\nbenchdiff: no gated regressions")
}

func pctDelta(base, cur float64) float64 {
	if base <= 0 {
		return 0
	}
	return (cur - base) / base * 100
}

func ns(v float64) time.Duration { return time.Duration(v) }

func load(path string) (*benchReport, error) {
	var raw []byte
	var err error
	if path == "-" {
		raw, err = io.ReadAll(os.Stdin)
	} else {
		raw, err = os.ReadFile(path)
	}
	if err != nil {
		return nil, err
	}
	var rep benchReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if len(rep.Results) == 0 {
		return nil, fmt.Errorf("%s: no benchmark results", path)
	}
	return &rep, nil
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}
