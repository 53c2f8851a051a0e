package shareddb_test

// One benchmark per figure of the paper's evaluation (§5), plus
// the ablation benches for design choices (A1 lives in internal/queryset,
// A4 in internal/storage; A2 and A5 are here).
//
// These are smoke-scale versions: the full paper-shaped sweeps are produced
// by `go run ./cmd/tpcw` and `go run ./cmd/microbench` (see EXPERIMENTS.md).

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"shareddb"
	"shareddb/internal/baseline"
	"shareddb/internal/core"
	"shareddb/internal/storage"
	"shareddb/internal/tpcw"
	"shareddb/internal/types"
)

var benchScale = tpcw.Scale{Items: 500, Customers: 400}

func newBenchEnv(b *testing.B, kind string) (tpcw.System, *tpcw.IDAllocator) {
	b.Helper()
	db, err := storage.Open(storage.Options{})
	if err != nil {
		b.Fatal(err)
	}
	gen, err := tpcw.Setup(db, benchScale, 7)
	if err != nil {
		b.Fatal(err)
	}
	ids := tpcw.NewIDAllocator(gen)
	var sys tpcw.System
	switch kind {
	case "SharedDB":
		sys, err = tpcw.NewSharedSystem(db, core.Config{})
	case "SystemX":
		sys, err = tpcw.NewBaselineSystem(db, baseline.SystemXLike)
	case "MySQL":
		sys, err = tpcw.NewBaselineSystem(db, baseline.MySQLLike)
	}
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { sys.Close(); db.Close() })
	return sys, ids
}

// benchInteractions runs b.N interactions of the given mix concurrently
// (b.RunParallel supplies the concurrency that lets SharedDB batch).
func benchInteractions(b *testing.B, sys tpcw.System, ids *tpcw.IDAllocator, mix tpcw.Mix, only tpcw.Interaction) {
	weights := mix.Weights()
	var cum [tpcw.NumInteractions]float64
	total := 0.0
	for i, w := range weights {
		total += w
		cum[i] = total
	}
	var seed int64
	var mu sync.Mutex
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		mu.Lock()
		seed++
		sess := tpcw.NewSession(sys, benchScale, ids, seed)
		mu.Unlock()
		for pb.Next() {
			inter := only
			if inter < 0 {
				pick := sess.Rng.Float64() * total
				for i := tpcw.Interaction(0); i < tpcw.NumInteractions; i++ {
					if pick <= cum[i] {
						inter = i
						break
					}
				}
			}
			if err := sess.Run(inter); err != nil {
				// Write-write conflicts are expected under snapshot
				// isolation when concurrent BuyConfirms touch the same
				// item's stock; a real client retries. Anything else is a
				// bench failure.
				if errors.Is(err, storage.ErrConflict) || errors.Is(err, storage.ErrUniqueViolate) {
					continue
				}
				b.Error(err)
				return
			}
		}
	})
}

// Figure 7: TPC-W throughput under concurrent load, per mix. ns/op is the
// inverse of WIPS at this concurrency.
func BenchmarkFig7_TPCW(b *testing.B) {
	for _, mix := range []tpcw.Mix{tpcw.Browsing, tpcw.Shopping, tpcw.Ordering} {
		for _, kind := range []string{"MySQL", "SystemX", "SharedDB"} {
			b.Run(fmt.Sprintf("%s/%s", mix, kind), func(b *testing.B) {
				sys, ids := newBenchEnv(b, kind)
				benchInteractions(b, sys, ids, mix, -1)
			})
		}
	}
}

// Figure 8: throughput scaling with the core budget (GOMAXPROCS sweep).
func BenchmarkFig8_Cores(b *testing.B) {
	cores := []int{1, 2, 4}
	if n := runtime.NumCPU(); n >= 8 {
		cores = append(cores, 8)
	}
	for _, n := range cores {
		for _, kind := range []string{"MySQL", "SharedDB"} {
			b.Run(fmt.Sprintf("%dcores/%s", n, kind), func(b *testing.B) {
				prev := runtime.GOMAXPROCS(n)
				defer runtime.GOMAXPROCS(prev)
				sys, ids := newBenchEnv(b, kind)
				benchInteractions(b, sys, ids, tpcw.Shopping, -1)
			})
		}
	}
}

// Figure 9: individual web interactions (the paper's per-interaction bars;
// the two extremes plus the cart path keep bench time sane).
func BenchmarkFig9_Interactions(b *testing.B) {
	for _, inter := range []tpcw.Interaction{tpcw.Home, tpcw.BestSellers, tpcw.ShoppingCart, tpcw.OrderDisplay} {
		for _, kind := range []string{"MySQL", "SystemX", "SharedDB"} {
			b.Run(fmt.Sprintf("%s/%s", inter, kind), func(b *testing.B) {
				sys, ids := newBenchEnv(b, kind)
				benchInteractions(b, sys, ids, tpcw.Shopping, inter)
			})
		}
	}
}

// Figure 10: response time of one batch of concurrent identical-template
// queries (one op = one whole batch, light and heavy variants).
func BenchmarkFig10_BatchResponse(b *testing.B) {
	const batch = 128
	queries := []struct {
		name string
		stmt tpcw.StmtID
		mk   func(i int) []types.Value
	}{
		{"Light", tpcw.StDoTitleSearch, func(i int) []types.Value {
			return []types.Value{types.NewString(fmt.Sprintf("Title %02d%%", i%100))}
		}},
		{"Heavy", tpcw.StGetBestSellers, func(i int) []types.Value {
			return []types.Value{types.NewInt(0), types.NewString(tpcw.Subjects()[i%24])}
		}},
	}
	for _, q := range queries {
		for _, kind := range []string{"MySQL", "SystemX", "SharedDB"} {
			b.Run(fmt.Sprintf("%s/%s", q.name, kind), func(b *testing.B) {
				sys, _ := newBenchEnv(b, kind)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var wg sync.WaitGroup
					for j := 0; j < batch; j++ {
						wg.Add(1)
						go func(j int) {
							defer wg.Done()
							if _, err := sys.Query(q.stmt, q.mk(j)...); err != nil {
								b.Error(err)
							}
						}(j)
					}
					wg.Wait()
				}
			})
		}
	}
}

// Figure 11: load interaction — one op is a mixed burst of light queries
// plus heavy queries; SharedDB should degrade least as heavies mix in.
func BenchmarkFig11_LoadInteraction(b *testing.B) {
	for _, heavies := range []int{0, 4, 16} {
		for _, kind := range []string{"SystemX", "SharedDB"} {
			b.Run(fmt.Sprintf("%dheavy/%s", heavies, kind), func(b *testing.B) {
				sys, _ := newBenchEnv(b, kind)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var wg sync.WaitGroup
					for j := 0; j < 32; j++ {
						wg.Add(1)
						go func(j int) {
							defer wg.Done()
							if _, err := sys.Query(tpcw.StDoTitleSearch,
								types.NewString(fmt.Sprintf("Title %02d%%", j))); err != nil {
								b.Error(err)
							}
						}(j)
					}
					for j := 0; j < heavies; j++ {
						wg.Add(1)
						go func(j int) {
							defer wg.Done()
							if _, err := sys.Query(tpcw.StGetBestSellers,
								types.NewInt(0), types.NewString(tpcw.Subjects()[j%24])); err != nil {
								b.Error(err)
							}
						}(j)
					}
					wg.Wait()
				}
			})
		}
	}
}

// Ablation A2: the shared-sort trade-off of §3.5 — one sort of
// the union (f(o)) vs one sort per query (Σ f(ni)) at varying overlap.
// With high overlap the shared sort wins although n·log n is super-linear.
func BenchmarkAblation_SharedSortCrossover(b *testing.B) {
	const queries = 64
	const perQuery = 2000
	for _, overlapPct := range []int{0, 50, 100} {
		b.Run(fmt.Sprintf("overlap%d", overlapPct), func(b *testing.B) {
			// union size o: at 100% overlap every query sorts the same rows
			unionSize := perQuery + (queries-1)*perQuery*(100-overlapPct)/100
			shared := make([]int, unionSize)
			for i := range shared {
				shared[i] = (i * 7919) % 1000003
			}
			b.Run("shared", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					data := append([]int(nil), shared...)
					sort.Ints(data)
				}
			})
			b.Run("individual", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for q := 0; q < queries; q++ {
						data := make([]int, perQuery)
						for j := range data {
							data[j] = ((j + q*perQuery) * 7919) % 1000003
						}
						sort.Ints(data)
					}
				}
			})
		})
	}
}

// Ablation A5: heartbeat pacing — latency/throughput trade-off
// of the batch-oriented model (§3.5: "batching increases latency by a
// factor of 2" worst-case).
func BenchmarkAblation_BatchLatency(b *testing.B) {
	for _, hb := range []time.Duration{0, time.Millisecond, 5 * time.Millisecond} {
		b.Run(fmt.Sprintf("heartbeat=%s", hb), func(b *testing.B) {
			db, err := shareddb.Open(shareddb.Config{Heartbeat: hb})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			if _, err := db.Exec(`CREATE TABLE t (a INT, b VARCHAR, PRIMARY KEY (a))`); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 1000; i++ {
				if _, err := db.Exec(`INSERT INTO t VALUES (?, ?)`, int64(i), fmt.Sprintf("v%d", i)); err != nil {
					b.Fatal(err)
				}
			}
			stmt, err := db.Prepare(`SELECT b FROM t WHERE a = ?`)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := int64(0)
				for pb.Next() {
					if _, err := stmt.Query(i % 1000); err != nil {
						b.Error(err)
					}
					i++
				}
			})
		})
	}
}
