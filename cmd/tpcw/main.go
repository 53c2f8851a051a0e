// Command tpcw regenerates the TPC-W figures of the paper's evaluation:
//
//	tpcw -fig 7            throughput under varying load, all three mixes
//	tpcw -fig 8            max throughput vs number of cores
//	tpcw -fig 9            max throughput per individual web interaction
//
// Flags scale the experiment; defaults are laptop-sized. See EXPERIMENTS.md
// for recorded outputs and the comparison with the paper.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"shareddb/internal/experiments"
	"shareddb/internal/harness"
	"shareddb/internal/tpcw"
)

func main() {
	fig := flag.Int("fig", 7, "figure to regenerate (7, 8 or 9)")
	items := flag.Int("items", 1000, "TPC-W item count")
	customers := flag.Int("customers", 1440, "TPC-W customer count")
	dur := flag.Duration("point", 2*time.Second, "measurement window per data point")
	think := flag.Duration("think", 20*time.Millisecond, "mean think time (spec: 7s, scaled down)")
	ebList := flag.String("ebs", "16,32,64,128,256,512", "EB counts for figure 7")
	coreList := flag.String("cores", "", "core counts for figure 8 (default 1,2,4,...,NumCPU)")
	saturate := flag.Int("saturate", 128, "closed-loop clients for figures 8 and 9")
	mixFlag := flag.String("mix", "all", "mix for figures 7/8: browsing, shopping, ordering or all")
	seed := flag.Int64("seed", 2012, "data generator seed")
	shards := flag.Int("shards", 0, "SharedDB shard engines (0 or 1 = single engine)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of each measurement window (not of data loading) to `file`, file.2, ...")
	flag.Parse()

	opts := experiments.Options{
		Scale:         tpcw.Scale{Items: *items, Customers: *customers},
		PointDuration: *dur,
		ThinkTime:     *think,
		Seed:          *seed,
		Shards:        *shards,
		Profile:       harness.NewCPUProfile(*cpuprofile),
	}
	defer func() { exitOn(opts.Profile.Err()) }()
	mixes := parseMixes(*mixFlag)

	switch *fig {
	case 7:
		ebs := parseInts(*ebList)
		for _, mix := range mixes {
			res, err := experiments.Fig7(mix, ebs, opts)
			exitOn(err)
			fmt.Println(experiments.RenderFig7(mix, res))
		}
	case 8:
		cores := parseInts(*coreList)
		if len(cores) == 0 {
			for n := 1; n <= runtime.NumCPU(); n *= 2 {
				cores = append(cores, n)
			}
			if last := cores[len(cores)-1]; last != runtime.NumCPU() {
				cores = append(cores, runtime.NumCPU())
			}
		}
		for _, mix := range mixes {
			res, err := experiments.Fig8(mix, cores, *saturate, opts, runtime.GOMAXPROCS)
			exitOn(err)
			fmt.Println(experiments.RenderFig8(mix, res))
		}
	case 9:
		res, err := experiments.Fig9(*saturate, opts)
		exitOn(err)
		fmt.Println(experiments.RenderFig9(res))
	default:
		fmt.Fprintf(os.Stderr, "unknown figure %d (want 7, 8 or 9)\n", *fig)
		os.Exit(2)
	}
}

func parseMixes(s string) []tpcw.Mix {
	switch strings.ToLower(s) {
	case "browsing":
		return []tpcw.Mix{tpcw.Browsing}
	case "shopping":
		return []tpcw.Mix{tpcw.Shopping}
	case "ordering":
		return []tpcw.Mix{tpcw.Ordering}
	default:
		return []tpcw.Mix{tpcw.Browsing, tpcw.Ordering, tpcw.Shopping}
	}
}

func parseInts(s string) []int {
	if s == "" {
		return nil
	}
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
		fmt.Fprintln(os.Stderr, "tpcw:", err)
		os.Exit(1)
	}
}
