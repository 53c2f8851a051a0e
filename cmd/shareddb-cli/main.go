// Command shareddb-cli is a line-oriented shell for shareddb-server over
// the client package: one SQL statement per stdin line, results on stdout.
//
//	shareddb-cli -addr 127.0.0.1:5843 < script.sql
//
// A SELECT prints its rows tab-separated, one per line, then "OK <rows>";
// any other statement prints "OK <rows affected>". Failures print
// "ERR <message>", admission rejections "BUSY <retry-ms> <reason>", and the
// shell moves on to the next line — so the same script run against two
// servers (-shards 1 vs 3, -workers 1 vs 4) yields outputs that diff
// cleanly. Meta commands: \stats prints one "name<TAB>value" line per
// engine counter, \plan the global operator DAG (EXPLAIN PLAN), \q quits.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"shareddb/client"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:5843", "shareddb-server address")
	flag.Parse()
	db, err := client.Open(*addr)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1<<16), 1<<20)
	for in.Scan() {
		line := strings.TrimSpace(in.Text())
		switch {
		case line == "":
			continue
		case line == `\q`:
			return
		case line == `\stats`:
			stats(out, db)
		case line == `\plan`:
			query(out, db, "EXPLAIN PLAN")
		case strings.HasPrefix(strings.ToUpper(line), "SELECT"):
			query(out, db, line)
		default:
			if res, err := db.Exec(line); err != nil {
				fail(out, err)
			} else {
				fmt.Fprintf(out, "OK %d\n", res.RowsAffected)
			}
		}
		out.Flush()
	}
	if err := in.Err(); err != nil {
		log.Fatal(err)
	}
}

func query(out io.Writer, db *client.DB, sqlText string) {
	rows, err := db.Query(sqlText)
	if err != nil {
		fail(out, err)
		return
	}
	n := 0
	for rows.Next() {
		cells := make([]string, len(rows.Row()))
		for i, v := range rows.Row() {
			cells[i] = v.String()
		}
		fmt.Fprintln(out, strings.Join(cells, "\t"))
		n++
	}
	if err := rows.Err(); err != nil {
		fail(out, err)
		return
	}
	fmt.Fprintf(out, "OK %d\n", n)
}

func stats(out io.Writer, db *client.DB) {
	st, err := db.Stats()
	if err != nil {
		fail(out, err)
		return
	}
	fmt.Fprintf(out, "generations\t%d\nqueries_run\t%d\nwrites_applied\t%d\nfolded_queries\t%d\nfold_hit_rate\t%.4f\n",
		st.Generations, st.QueriesRun, st.WritesApplied, st.FoldedQueries, st.FoldHitRate())
	fmt.Fprintf(out, "in_flight_generations\t%d\nqueue_depth\t%d\nshed\t%d\nrejected\t%d\nbreaker_trips\t%d\nsubscriptions_active\t%d\nsubscription_updates\t%d\n",
		st.InFlightGenerations, st.QueueDepth, st.Shed, st.Rejected, st.BreakerTrips, st.SubscriptionsActive, st.SubscriptionUpdates)
	fmt.Fprintln(out, "OK 12")
}

// fail prints the error response: BUSY with the server's retry hint for
// admission rejections (the caller should wait and resubmit), ERR otherwise.
func fail(out io.Writer, err error) {
	var oe *client.OverloadError
	if errors.As(err, &oe) {
		fmt.Fprintf(out, "BUSY %d %s\n", max(1, oe.RetryAfter.Milliseconds()), oe.Reason)
		return
	}
	fmt.Fprintf(out, "ERR %v\n", err)
}
