package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Span names. A span is recorded around each call the benchmark makes into
// a layer's exported surface; spans inside the program are a later change.
const (
	spanOp          = iota // one operation of the workload (an interaction or a request)
	spanStmtQuery          // shareddb.Stmt.Query
	spanStmtExec           // shareddb.Stmt.Exec
	spanTx                 // shareddb.DB.Begin .. Tx.Commit
	spanClientQuery        // client.Stmt.Query + Rows.All
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"op", "shareddb.Stmt.Query", "shareddb.Stmt.Exec", "shareddb.Tx", "client.Stmt.Query+Rows.All",
}

// span is one timed call: name, start and end (ns after the traced window
// opened), the span that caused it (index in the same lane, -1 for an
// operation) and the operation it belongs to.
type span struct {
	name       uint8
	parent     int32
	op         uint32
	start, end int64
}

// laneTrace is one lane's span buffer, kept in memory and written out when
// the benchmark ends. Lanes never share a buffer, so recording a span is
// an append.
type laneTrace struct {
	epoch time.Time
	spans []span
	ops   uint32
	cur   int32 // the open operation span
}

func newLaneTrace(capacity int) *laneTrace {
	return &laneTrace{spans: make([]span, 0, capacity), cur: -1}
}

// beginOp opens the span of the lane's next operation.
func (t *laneTrace) beginOp() {
	t.ops++
	t.cur = int32(len(t.spans))
	t.spans = append(t.spans, span{name: spanOp, parent: -1, op: t.ops, start: time.Since(t.epoch).Nanoseconds()})
}

func (t *laneTrace) endOp() {
	t.spans[t.cur].end = time.Since(t.epoch).Nanoseconds()
	t.cur = -1
}

// begin opens a call span under the current operation and returns its
// index for end.
func (t *laneTrace) begin(name uint8) int {
	t.spans = append(t.spans, span{name: name, parent: t.cur, op: t.ops, start: time.Since(t.epoch).Nanoseconds()})
	return len(t.spans) - 1
}

func (t *laneTrace) end(i int) {
	t.spans[i].end = time.Since(t.epoch).Nanoseconds()
}

// spanDurations returns the durations (ms, sorted) of every finished span
// with the given name that ended inside the window.
func spanDurations(traces []*laneTrace, name uint8, length time.Duration) []float64 {
	var out []float64
	for _, t := range traces {
		for _, s := range t.spans {
			if s.name == name && s.end > 0 && s.end <= length.Nanoseconds() {
				out = append(out, float64(s.end-s.start)/1e6)
			}
		}
	}
	sort.Float64s(out)
	return out
}

// traceFileSpansPerLane bounds what writeTrace writes per lane: the
// network workload records millions of spans in a window, and the file is
// for reading a lane's timeline, not for the metrics (those use every
// span, in memory).
const traceFileSpansPerLane = 2048

// writeTrace writes each lane's first spans as JSON array rows
// [lane, index, name, parent, op, start_ns, end_ns]; parent is an index in
// the same lane, -1 for an operation.
func writeTrace(dir, workload string, traces []*laneTrace) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace_"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	recorded := 0
	for _, t := range traces {
		recorded += len(t.spans)
	}
	fmt.Fprintf(w, "{\"workload\":%q,\"spans_recorded\":%d,\"columns\":[\"lane\",\"index\",\"name\",\"parent\",\"op\",\"start_ns\",\"end_ns\"],\"names\":[", workload, recorded)
	for i, n := range spanNames {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "%q", n)
	}
	w.WriteString("],\"spans\":[\n")
	first := true
	for li, t := range traces {
		for si, s := range t.spans[:min(len(t.spans), traceFileSpansPerLane)] {
			if !first {
				w.WriteString(",\n")
			}
			first = false
			fmt.Fprintf(w, "[%d,%d,%d,%d,%d,%d,%d]", li, si, s.name, s.parent, s.op, s.start, s.end)
		}
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
