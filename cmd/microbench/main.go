// Command microbench regenerates the micro-benchmark figures of the
// paper's evaluation:
//
//	microbench -fig 10     batch response time: light vs heavy queries
//	microbench -fig 11     load interaction between light and heavy queries
//	microbench -json       machine-readable scan/join/sort/TPC-W-mix baseline
//	                       (the BENCH_*.json perf-trajectory artifact)
//	microbench -load       network fan-in scenario: closed-loop clients over
//	                       loopback sockets
//
// See EXPERIMENTS.md for recorded outputs.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"shareddb/internal/experiments"
	"shareddb/internal/harness"
	"shareddb/internal/tpcw"
)

func main() {
	fig := flag.Int("fig", 10, "figure to regenerate (10 or 11)")
	items := flag.Int("items", 1000, "TPC-W item count")
	customers := flag.Int("customers", 1440, "TPC-W customer count")
	sizes := flag.String("sizes", "1,10,50,100,250,500,1000,2000", "batch sizes for figure 10")
	lightRate := flag.Float64("light", 200, "light queries per second for figure 11")
	heavyRates := flag.String("heavy", "0,5,10,25,50,100,200", "heavy query rates for figure 11")
	window := flag.Duration("window", 2*time.Second, "measurement window per data point")
	seed := flag.Int64("seed", 2012, "data generator seed")
	shards := flag.Int("shards", 0, "SharedDB shard engines for the sharded TPC-W mix bench (0 = default 2, 1 = skip the sharded entry)")
	jsonOut := flag.Bool("json", false, "emit the machine-readable scan/join/sort/TPC-W-mix benchmark baseline on stdout")
	warmup := flag.Int("warmup", 1, "untimed warm-up batches per -json statement bench (free lists, columnar mirror, batch pool)")
	count := flag.Int("count", 1, "timed runs per -json statement bench; the median ns/op is reported")
	kernels := flag.Bool("kernels", false, "with -json, emit only the kernel records CI's ratio gate reads: skip the subscribe, overload, fold and load scenarios")
	load := flag.Bool("load", false, "run the network fan-in scenario (Load1k) and print its record instead of a figure")
	loadClients := flag.Int("load-clients", 1000, "concurrent network connections for the Load1k scenario (-load and -json)")
	loadPipeline := flag.Int("load-pipeline", 2, "pipelined in-flight queries per Load1k connection")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of each timed window (not of set-up) to `file`, file.2, ...: each -fig data point, each timed run of a -json statement or mix bench")
	flag.Parse()

	opts := experiments.Options{
		Scale:         tpcw.Scale{Items: *items, Customers: *customers},
		PointDuration: *window,
		Seed:          *seed,
		Shards:        *shards,
		Profile:       harness.NewCPUProfile(*cpuprofile),
	}
	defer func() { exitOn(opts.Profile.Err()) }()

	if *load {
		exitOn(runLoadScenario(opts, *loadClients, *loadPipeline))
		return
	}
	if *jsonOut {
		exitOn(runJSONBench(opts, *warmup, *count, *loadClients, *loadPipeline, *kernels))
		return
	}

	switch *fig {
	case 10:
		for _, q := range []experiments.Fig10Query{experiments.LightQuery, experiments.HeavyQuery} {
			res, err := experiments.Fig10(q, parseInts(*sizes), opts)
			exitOn(err)
			fmt.Println(experiments.RenderFig10(q, res))
		}
	case 11:
		var rates []float64
		for _, part := range strings.Split(*heavyRates, ",") {
			f, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			exitOn(err)
			rates = append(rates, f)
		}
		res, err := experiments.Fig11(*lightRate, rates, opts)
		exitOn(err)
		fmt.Println(experiments.RenderFig11(*lightRate, res))
	default:
		fmt.Fprintf(os.Stderr, "unknown figure %d (want 10 or 11)\n", *fig)
		os.Exit(2)
	}
}

func parseInts(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		exitOn(err)
		out = append(out, n)
	}
	return out
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "microbench:", err)
		os.Exit(1)
	}
}
