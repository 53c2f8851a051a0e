// Command benchdiff is the bench-regression gate: it compares microbench
// reports of the head (go run ./cmd/microbench -json) against reports of a
// baseline and fails — exit code 1 — when any gated benchmark regresses:
//
//   - ns/op grows by more than -ns-threshold percent (default 25), or
//   - allocs/op grows by more than -allocs-threshold percent (default 1:
//     the concurrent benches jitter by a few allocations in tens of
//     thousands run to run — scheduling changes map-growth timing — while
//     a real alloc regression moves the count by whole multiples; the
//     exact zero-alloc pins live in the CI allocation-gate tests, this
//     gate catches trend regressions).
//
// -baseline and -current each take a comma-separated list of k reports;
// the i-th of each list form round i, measured back to back on one machine.
// Each record is gated on the median over the rounds of its head/base
// ratio, so one noisy round cannot fail a kernel whose code did not change
// and a real regression still shows in every round. With one report per
// side the median is that round's ratio.
//
// Benchmarks absent from some report are listed but not gated (that is
// how a new benchmark enters the baseline). -exclude drops named benches
// from gating entirely — CI excludes "overload", whose quantities of record
// are the p50/p99/shed-rate extras, reported here for trajectory but too
// scenario-shaped for a ratio gate.
//
//	go run ./cmd/microbench -json | tee bench-current.json
//	go run ./cmd/benchdiff -baseline BENCH_baseline.json -current bench-current.json -exclude overload
//	go run ./cmd/benchdiff -baseline base-1.json,base-2.json,base-3.json -current head-1.json,head-2.json,head-3.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
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
	baselinePaths := flag.String("baseline", "BENCH_baseline.json", "comma-separated baseline reports, one per round")
	currentPaths := flag.String("current", "-", "comma-separated fresh reports to gate, one per round ('-' = stdin)")
	nsThreshold := flag.Float64("ns-threshold", 25, "max allowed ns/op regression in percent")
	allocsThreshold := flag.Float64("allocs-threshold", 1, "max allowed allocs/op growth in percent")
	exclude := flag.String("exclude", "", "comma-separated benchmark names to report but not gate")
	flag.Parse()

	baseline, err := loadAll(*baselinePaths)
	exitOn(err)
	current, err := loadAll(*currentPaths)
	exitOn(err)
	excluded := map[string]bool{}
	for _, name := range strings.Split(*exclude, ",") {
		if name = strings.TrimSpace(name); name != "" {
			excluded[name] = true
		}
	}
	failures, err := gate(os.Stdout, baseline, current, excluded, *nsThreshold, *allocsThreshold)
	exitOn(err)
	if failures > 0 {
		fmt.Printf("\nbenchdiff: %d benchmark(s) regressed\n", failures)
		os.Exit(1)
	}
	fmt.Println("\nbenchdiff: no gated regressions")
}

// gate prints one line per record of the first current report and returns
// how many regressed: each record's verdict reads the median over the
// rounds (baseline[i], current[i]) of its head/base ratios.
func gate(w io.Writer, baseline, current []*benchReport, excluded map[string]bool, nsThreshold, allocsThreshold float64) (int, error) {
	if len(baseline) != len(current) {
		return 0, fmt.Errorf("%d baseline reports but %d current: a round pairs one of each", len(baseline), len(current))
	}
	// Ratios only mean something when the two runs measured the same
	// workload in the same execution regime: GOMAXPROCS decides whether
	// the serial or the parallel operator paths ran (different allocs/op
	// profiles entirely), and the config block decides the data volume.
	// A Go version difference is worth knowing but not a gate.
	base := make([]map[string]benchRecord, len(baseline))
	cur := make([]map[string]benchRecord, len(current))
	for i, b := range baseline {
		c := current[i]
		if b.Procs != c.Procs {
			return 0, fmt.Errorf("gomaxprocs mismatch: baseline %d, current %d — pin GOMAXPROCS to the baseline's value (serial vs parallel operator paths are not comparable)",
				b.Procs, c.Procs)
		}
		if b.Config != c.Config {
			return 0, fmt.Errorf("config mismatch: baseline %+v, current %+v — run microbench with the baseline's scale flags",
				b.Config, c.Config)
		}
		base[i], cur[i] = byName(b), byName(c)
	}
	if baseline[0].Go != current[0].Go {
		fmt.Fprintf(w, "note: go version differs (baseline %s, current %s) — expect some ns/op drift\n\n",
			baseline[0].Go, current[0].Go)
	}

	failures := 0
	fmt.Fprintf(w, "%-18s %14s %14s %8s %10s %10s %8s  %s\n",
		"benchmark", "base ns/op", "cur ns/op", "Δns%", "base alloc", "cur alloc", "Δalloc%", "verdict")
	for _, c0 := range current[0].Results {
		var bNs, cNs, bAlloc, cAlloc, nsRatio, allocRatio []float64
		for i := range cur {
			b, okb := base[i][c0.Name]
			c, okc := cur[i][c0.Name]
			if !okb || !okc {
				break
			}
			bNs, cNs = append(bNs, b.NsPerOp), append(cNs, c.NsPerOp)
			bAlloc, cAlloc = append(bAlloc, b.AllocsPerOp), append(cAlloc, c.AllocsPerOp)
			nsRatio = append(nsRatio, ratio(b.NsPerOp, c.NsPerOp))
			allocRatio = append(allocRatio, ratio(b.AllocsPerOp, c.AllocsPerOp))
		}
		if len(nsRatio) < len(cur) {
			fmt.Fprintf(w, "%-18s %14s %14.0f %8s %10s %10.0f %8s  new (not gated)\n",
				c0.Name, "-", c0.NsPerOp, "-", "-", c0.AllocsPerOp, "-")
			continue
		}
		nsDelta := (median(nsRatio) - 1) * 100
		allocDelta := (median(allocRatio) - 1) * 100
		verdict := "ok"
		switch {
		case excluded[c0.Name]:
			verdict = "excluded"
		case median(bNs) <= 0:
			verdict = "no baseline ns/op (not gated)"
		case nsDelta > nsThreshold:
			verdict = fmt.Sprintf("FAIL ns/op +%.1f%% > %.1f%%", nsDelta, nsThreshold)
			failures++
		case math.IsInf(allocDelta, 1):
			// A percentage gate cannot see growth from zero, and zero
			// allocations is exactly the pinned property worth guarding.
			verdict = fmt.Sprintf("FAIL allocs/op 0 -> %.0f", median(cAlloc))
			failures++
		case allocDelta > allocsThreshold:
			verdict = fmt.Sprintf("FAIL allocs/op +%.1f%% > %.1f%%", allocDelta, allocsThreshold)
			failures++
		}
		fmt.Fprintf(w, "%-18s %14.0f %14.0f %+7.1f%% %10.0f %10.0f %+7.1f%%  %s\n",
			c0.Name, median(bNs), median(cNs), nsDelta, median(bAlloc), median(cAlloc), allocDelta, verdict)
		if b := base[0][c0.Name]; c0.P99Ns > 0 || b.P99Ns > 0 {
			fmt.Fprintf(w, "%-18s   p50 %v → %v, p99 %v → %v, shed %.1f%% → %.1f%% (informational)\n",
				"", ns(b.P50Ns), ns(c0.P50Ns), ns(b.P99Ns), ns(c0.P99Ns),
				b.ShedRate*100, c0.ShedRate*100)
		}
	}
	for _, b := range baseline[0].Results {
		if _, ok := cur[0][b.Name]; !ok {
			fmt.Fprintf(w, "%-18s missing from current report (not gated)\n", b.Name)
		}
	}
	return failures, nil
}

func byName(r *benchReport) map[string]benchRecord {
	m := make(map[string]benchRecord, len(r.Results))
	for _, rec := range r.Results {
		m[rec.Name] = rec
	}
	return m
}

// ratio is cur/base. A zero base reads 1 when cur is zero too and +Inf
// when cur grew from it (a non-positive ns/op base is not gated).
func ratio(base, cur float64) float64 {
	switch {
	case base > 0:
		return cur / base
	case cur > 0:
		return math.Inf(1)
	default:
		return 1
	}
}

// median of a non-empty sample; the mean of the middle two for an even
// count.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ns(v float64) time.Duration { return time.Duration(v) }

// loadAll loads each report of a comma-separated list.
func loadAll(paths string) ([]*benchReport, error) {
	var out []*benchReport
	for _, p := range strings.Split(paths, ",") {
		r, err := load(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

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
