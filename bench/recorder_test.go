package main

import (
	"math"
	"testing"
	"time"
)

func TestExactQuantile(t *testing.T) {
	// 1..100: nearest rank gives the value itself.
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	for _, c := range []struct{ q, want float64 }{
		{0.50, 50}, {0.95, 95}, {0.99, 99}, {0.999, 100}, {0, 1}, {1, 100},
	} {
		if got := exactQuantile(v, c.q); got != c.want {
			t.Errorf("quantile(%v) of 1..100 = %v, want %v", c.q, got, c.want)
		}
	}
	if got := exactQuantile(nil, 0.95); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
	// A single outlier among 20 samples is the p95 only from rank 20 up:
	// nearest rank never interpolates towards it.
	w := append(make([]float64, 19), 1000)
	if got := exactQuantile(w, 0.95); got != 0 {
		t.Errorf("p95 of 19 zeros and an outlier = %v, want 0", got)
	}
	if got := exactQuantile(w, 0.96); got != 1000 {
		t.Errorf("p96 of 19 zeros and an outlier = %v, want 1000", got)
	}
}

func TestHighestSupported(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {19, 0}, {20, 0.50}, {199, 0.50}, {200, 0.95}, {999, 0.95}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999}} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestMergeWindow(t *testing.T) {
	start := time.Unix(0, 0)
	a, b := newLaneRecorder(4), newLaneRecorder(4)
	a.observe(start, 2*time.Millisecond, start, false)
	a.observe(start.Add(990*time.Millisecond), 20*time.Millisecond, start, false) // ends after the window
	b.observe(start.Add(10*time.Millisecond), 4*time.Millisecond, start, false)
	b.observe(start.Add(20*time.Millisecond), time.Millisecond, start, true) // failed
	b.observe(start.Add(30*time.Millisecond), 10*time.Second, start, false)  // ends after the window, saturates
	w := mergeWindow([]*laneRecorder{a, b}, time.Second)
	if w.attempted != 3 || w.failed != 1 || len(w.durs) != 2 {
		t.Fatalf("attempted %d failed %d recorded %d, want 3 1 2", w.attempted, w.failed, len(w.durs))
	}
	if w.durs[0] != 2 || w.durs[1] != 4 {
		t.Errorf("latencies %v ms, want [2 4]", w.durs)
	}
	if got := w.opsPerSecond(); got != 2 {
		t.Errorf("ops/s = %v, want 2: only correct operations count", got)
	}
	if got := b.samples[2].durNs; got != math.MaxUint32 {
		t.Errorf("a latency beyond the sample's range must saturate, got %d", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles = %v %v %v, want 1 2 3", q1, q2, q3)
	}
}
