package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchmarkSpec is the part of BENCHMARK.json -compare reads: the gated
// metrics with the direction and the bound each may worsen by.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles returns the first, second and third quartile as Python's
// statistics.quantiles(values, n=4) computes them (the exclusive method),
// so a spread printed here is the spread the driver computes.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j := i * (ld + 1) / 4
		j = max(1, min(j, ld-1))
		delta := float64(i*(ld+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(values []float64) float64 {
	q1, q2, q3 := quartiles(values)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

func readRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{} // workload → metric → values
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec recordLine
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !rec.Correct {
			return nil, fmt.Errorf("%s: a %s run was not correct; its numbers do not count", path, rec.Workload)
		}
		if out[rec.Workload] == nil {
			out[rec.Workload] = map[string][]float64{}
		}
		for name, m := range rec.Metrics {
			out[rec.Workload][name] = append(out[rec.Workload][name], m.Value)
		}
	}
	return out, sc.Err()
}

// compareFiles applies the bounds in BENCHMARK.json to two sets of runs,
// A (the reference) and B, one row per (metric, workload). A pair is
// "unresolved" when either set's own spread exceeds the bound: the runs
// cannot tell a change of that size from noise. The exit code is 0 when
// every pair is within its bound, 1 when one regressed, 3 when none
// regressed but one is unresolved or missing.
func compareFiles(specPath, pathA, pathB string, stdout, stderr io.Writer) int {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", specPath, err)
		return 2
	}
	a, err := readRecords(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	b, err := readRecords(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	regressed, unresolved := 0, 0
	fmt.Fprintf(stdout, "%-18s %-8s %5s %14s %14s %9s %8s %8s %7s  %s\n",
		"workload", "metric", "unit", "median A", "median B", "B worse", "spread A", "spread B", "bound", "verdict")
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := a[w.Name][m.Name], b[w.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(stdout, "%-18s %-8s %5s %14s %14s %9s %8s %8s %7.3f  missing\n", w.Name, m.Name, m.Unit, "-", "-", "-", "-", "-", m.Bound)
				unresolved++
				continue
			}
			_, medA, _ := quartiles(va)
			_, medB, _ := quartiles(vb)
			worse := 0.0 // share of A's median by which B is worse
			if medA != 0 {
				worse = (medB - medA) / medA
				if m.Better == "higher" {
					worse = -worse
				}
			}
			sa, sb := spread(va), spread(vb)
			verdict := "ok"
			switch {
			case worse > m.Bound:
				verdict = "REGRESSED"
				regressed++
			case sa > m.Bound || sb > m.Bound:
				verdict = "unresolved"
				unresolved++
			}
			fmt.Fprintf(stdout, "%-18s %-8s %5s %14.4f %14.4f %+8.1f%% %7.1f%% %7.1f%% %6.1f%%  %s\n",
				w.Name, m.Name, m.Unit, medA, medB, 100*worse, 100*sa, 100*sb, 100*m.Bound, verdict)
		}
	}
	switch {
	case regressed > 0:
		return 1
	case unresolved > 0:
		return 3
	}
	return 0
}
