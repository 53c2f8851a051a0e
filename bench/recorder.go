package main

import (
	"math"
	"sort"
	"time"
)

// sample is one completed operation: when it ended (offset from the
// window start) and how long its caller waited. Twelve bytes, so a
// 15-second network window of ~1.5M operations stays under 20 MB.
type sample struct {
	endUs  uint32 // completion, µs after the window opened
	durNs  uint32 // latency, ns; saturates at ~4.29 s
	failed bool
}

// laneRecorder holds one closed-loop caller's raw samples. Each lane owns
// its recorder, so the timed loop appends without synchronisation; the
// slice is preallocated from the lane's expected rate and only grows (by
// append) if that guess was low.
type laneRecorder struct {
	samples  []sample
	firstErr error // kept for the failure report; failures are counted per sample
}

func newLaneRecorder(capacity int) *laneRecorder {
	return &laneRecorder{samples: make([]sample, 0, capacity)}
}

func (r *laneRecorder) observe(start time.Time, dur time.Duration, windowStart time.Time, failed bool) {
	d := dur.Nanoseconds()
	if d > math.MaxUint32 {
		d = math.MaxUint32
	}
	end := start.Add(dur).Sub(windowStart).Microseconds()
	if end < 0 {
		end = 0
	}
	r.samples = append(r.samples, sample{endUs: uint32(end), durNs: uint32(d), failed: failed})
}

// window is the merged outcome of one timed window: every operation that
// completed before the window closed.
type window struct {
	length    time.Duration
	attempted int
	failed    int
	durs      []float64 // ms, successful operations, sorted ascending
}

// mergeWindow keeps the operations that completed within length. An
// operation still in flight when the window closes runs to completion
// (its effects are checked) but is not counted: counting it would credit
// the window with work finished outside it.
func mergeWindow(lanes []*laneRecorder, length time.Duration) window {
	w := window{length: length}
	limit := uint32(length.Microseconds())
	total := 0
	for _, l := range lanes {
		total += len(l.samples)
	}
	w.durs = make([]float64, 0, total)
	for _, l := range lanes {
		for _, s := range l.samples {
			if s.endUs > limit {
				continue
			}
			w.attempted++
			if s.failed {
				w.failed++
				continue
			}
			w.durs = append(w.durs, float64(s.durNs)/1e6)
		}
	}
	sort.Float64s(w.durs)
	return w
}

// opsPerSecond is operations completed correctly per second of window.
func (w window) opsPerSecond() float64 {
	return float64(len(w.durs)) / w.length.Seconds()
}

// quantile is the exact nearest-rank quantile of the successful
// latencies: the smallest recorded value with at least a share q of the
// samples at or below it. Zero when nothing was recorded.
func (w window) quantile(q float64) float64 {
	return exactQuantile(w.durs, q)
}

func exactQuantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// reportable are the percentiles the benchmark may quote, ascending.
var reportable = []float64{0.50, 0.95, 0.99, 0.999}

// highestSupported applies the rule "report the highest percentile with
// at least ten samples beyond it": with n samples, percentile q has
// n·(1−q) samples beyond it. Returns 0 when even the median fails it.
func highestSupported(n int) float64 {
	best := 0.0
	for _, q := range reportable {
		if float64(n)*(1-q) >= 10 {
			best = q
		}
	}
	return best
}

func median(vs []float64) float64 {
	_, m, _ := quartiles(vs)
	return m
}
