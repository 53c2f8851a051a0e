// Command shareddb-server exposes a SharedDB instance over TCP.
//
//	shareddb-server -listen :5843 [-wal dir] [-shards n]
//
// It speaks the binary wire protocol (internal/wire): length-
// prefixed frames, prepared-statement handles with typed parameter
// binding, streaming result cursors, and pipelined submission with
// out-of-order completion — one connection keeps a window of queries in
// flight, so duplicates land in the same generation and fold (README
// "Network protocol" documents the frame layout and guarantees; the
// `client` package is the Go client and cmd/shareddb-cli a line-oriented
// shell over it). Admission rejections travel as
// typed BUSY frames carrying the engine's RetryAfter hint.
//
// Every connected client's statements join the same always-on global
// plan, so concurrent clients share work exactly as the paper describes.
// The port default matches the paper's Figure 5 example ("Output Network,
// TCP Port 5843").
package main

import (
	"flag"
	"log"
	"net"
	"strings"

	"shareddb"
	"shareddb/internal/server"
)

func main() {
	listen := flag.String("listen", ":5843", "listen address")
	wal := flag.String("wal", "", "WAL directory (empty = no durability)")
	pipeline := flag.Int("pipeline", 0, "max generations in flight (0 = engine default, 1 = serial; negative values are rejected)")
	shards := flag.Int("shards", 0, "shard engines with hash-partitioned tables (0 or 1 = single engine)")
	replicate := flag.String("replicate", "", "comma-separated tables to replicate to every shard instead of partitioning")
	partition := flag.String("partition", "", "partition-key overrides as table=col[+col...],... (default: primary key)")
	maxDelay := flag.Duration("max-delay", 0, "per-generation latency SLO; enables SLO batch sizing and the slow-query breaker (0 = off, minimum 1ms)")
	queueLimit := flag.Int("queue-limit", 0, "max submissions queued per engine before BUSY rejections (0 = unlimited)")
	stmtQuota := flag.Int("stmt-quota", 0, "max activations of one statement per generation; excess shed to later generations (0 = unlimited)")
	window := flag.Int("window", 0, "per-connection in-flight request window (0 = default)")
	flag.Parse()

	cfg := shareddb.Config{WALDir: *wal, MaxInFlightGenerations: *pipeline, Shards: *shards,
		MaxGenerationDelay: *maxDelay, QueueDepthLimit: *queueLimit, StatementQuota: *stmtQuota}
	if *replicate != "" {
		cfg.ReplicatedTables = strings.Split(*replicate, ",")
	}
	if *partition != "" {
		cfg.PartitionKeys = map[string][]string{}
		for _, spec := range strings.Split(*partition, ",") {
			table, cols, ok := strings.Cut(spec, "=")
			if !ok {
				log.Fatalf("bad -partition entry %q (want table=col[+col...])", spec)
			}
			cfg.PartitionKeys[table] = strings.Split(cols, "+")
		}
	}
	db, err := shareddb.Open(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("shareddb-server listening on %s", ln.Addr())
	srv := server.New(db, server.Options{Window: *window})
	defer srv.Close()
	if err := srv.Serve(ln); err != nil {
		log.Fatal(err)
	}
}
