// Command bench is the repository's benchmark: four closed-loop workloads
// driven through the public surfaces (package shareddb, package client,
// internal/server), three gated end-to-end metrics per workload, and — on
// a traced run — per-layer metrics taken from outside each layer. See
// README.md in this directory.
//
//	bench -workload tpcw_browsing -seed 1 -seconds 15 -trace 0
//	bench -compare A.jsonl B.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// resultLine is the benchmark's machine-readable outcome, printed as the
// last line of standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// recordLine is what -record appends per run: the result plus what
// identifies the run, so -compare can group runs by workload.
type recordLine struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    int    `json:"trace"`
	resultLine
}

// setupsPerRun is how many times an untraced run sets the system up;
// setup_s is the median. It is part of the metric's definition, so it is
// not a flag: two record files always compare like for like.
const setupsPerRun = 3

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: tpcw_browsing, tpcw_ordering, net_fanin or sharded_shopping")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Int("seconds", 15, "length of the timed window")
	trace := fs.Int("trace", 0, "1 = traced run: print the per-layer metrics instead of the end-to-end ones")
	out := fs.String("out", "bench/out", "directory for trace files and scratch space")
	record := fs.String("record", "", "append this run's result to the named file, for -compare")
	compare := fs.Bool("compare", false, "compare two -record files (A B) under the bounds in BENCHMARK.json")
	spec := fs.String("benchmark", "BENCHMARK.json", "path of BENCHMARK.json, for -compare")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two record files")
			return 2
		}
		return compareFiles(*spec, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: -seconds must be at least 1 and -trace 0 or 1")
		return 2
	}
	o := runOptions{workload: *workload, seed: *seed, window: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, setups: setupsPerRun, outDir: *out, log: stdout}
	if o.trace {
		o.setups = 1 // setup_s is an end-to-end metric; a traced run does not report it
	}
	rep, err := runWorkload(o)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	for _, p := range rep.problems {
		fmt.Fprintln(stderr, "bench:", p)
	}
	res := resultLine{Correct: rep.correct, Attempted: rep.attempted, Failed: rep.failed, Metrics: rep.endToEnd}
	if o.trace {
		res.Metrics = rep.perLayer
	}
	printMetrics(stdout, *workload, res.Metrics)
	if *record != "" {
		if err := appendRecord(*record, recordLine{*workload, *seed, *seconds, *trace, res}); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rep.correct {
		return 1
	}
	return 0
}

// printMetrics prints every metric by name with its unit, one per line.
func printMetrics(w io.Writer, workload string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-18s %-38s %16.6f %s\n", workload, n, ms[n].Value, ms[n].Unit)
	}
}

func appendRecord(path string, rec recordLine) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
