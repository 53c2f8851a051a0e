// Package harness provides the measurement utilities shared by the
// benchmark drivers: latency histograms, throughput tracking and table
// rendering for the figure-regeneration binaries.
package harness

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// Histogram records latency observations with log-scaled buckets
// (~4% relative error), cheap enough for hot paths.
type Histogram struct {
	mu      sync.Mutex
	buckets []uint64
	count   uint64
	sum     time.Duration
	max     time.Duration
}

const histBuckets = 400

// bucketOf maps a duration to a logarithmic bucket index.
func bucketOf(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	// log base 1.04 of microseconds
	b := int(math.Log(float64(d.Microseconds())+1) / math.Log(1.04))
	if b < 0 {
		b = 0
	}
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

func bucketValue(i int) time.Duration {
	us := math.Pow(1.04, float64(i)) - 1
	return time.Duration(us) * time.Microsecond
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{buckets: make([]uint64, histBuckets)}
}

// Observe records one latency.
func (h *Histogram) Observe(d time.Duration) {
	h.mu.Lock()
	h.buckets[bucketOf(d)]++
	h.count++
	h.sum += d
	if d > h.max {
		h.max = d
	}
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Mean returns the average latency.
func (h *Histogram) Mean() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / time.Duration(h.count)
}

// Max returns the largest observation.
func (h *Histogram) Max() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// Quantile returns the approximate q-quantile (0 < q <= 1).
func (h *Histogram) Quantile(q float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	target := uint64(q * float64(h.count))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range h.buckets {
		cum += c
		if cum >= target {
			return bucketValue(i)
		}
	}
	return h.max
}

// Merge folds other into h.
func (h *Histogram) Merge(other *Histogram) {
	other.mu.Lock()
	snapshot := append([]uint64{}, other.buckets...)
	cnt, sum, mx := other.count, other.sum, other.max
	other.mu.Unlock()

	h.mu.Lock()
	for i, c := range snapshot {
		h.buckets[i] += c
	}
	h.count += cnt
	h.sum += sum
	if mx > h.max {
		h.max = mx
	}
	h.mu.Unlock()
}

// Table renders aligned rows for figure output: the harness binaries print
// the same series the paper plots.
type Table struct {
	Header []string
	Rows   [][]string
}

// Add appends a row of stringified cells.
func (t *Table) Add(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.1f", v)
		case time.Duration:
			row[i] = fmt.Sprintf("%.2fms", float64(v.Microseconds())/1000)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, hd := range t.Header {
		widths[i] = len(hd)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var out string
	line := func(cells []string) string {
		s := ""
		for i, c := range cells {
			s += fmt.Sprintf("%-*s  ", widths[min(i, len(widths)-1)], c)
		}
		return s + "\n"
	}
	out += line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = repeat('-', widths[i])
	}
	out += line(sep)
	for _, r := range t.Rows {
		out += line(r)
	}
	return out
}

func repeat(b byte, n int) string {
	s := make([]byte, n)
	for i := range s {
		s[i] = b
	}
	return string(s)
}
