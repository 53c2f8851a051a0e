package harness

import (
	"strings"
	"testing"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Error("empty histogram should be zero")
	}
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	if h.Count() != 100 {
		t.Errorf("count = %d", h.Count())
	}
	if h.Max() != 100*time.Millisecond {
		t.Errorf("max = %v", h.Max())
	}
	mean := h.Mean()
	if mean < 45*time.Millisecond || mean > 56*time.Millisecond {
		t.Errorf("mean = %v", mean)
	}
	p50 := h.Quantile(0.5)
	if p50 < 40*time.Millisecond || p50 > 60*time.Millisecond {
		t.Errorf("p50 = %v (log buckets allow ~4%% error)", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 90*time.Millisecond {
		t.Errorf("p99 = %v", p99)
	}
	if h.Quantile(1.0) < p99 {
		t.Error("quantiles should be monotone")
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	a.Observe(time.Millisecond)
	b.Observe(time.Second)
	a.Merge(b)
	if a.Count() != 2 {
		t.Errorf("merged count = %d", a.Count())
	}
	if a.Max() != time.Second {
		t.Errorf("merged max = %v", a.Max())
	}
}

func TestHistogramExtremes(t *testing.T) {
	h := NewHistogram()
	h.Observe(0)
	h.Observe(-time.Second)
	h.Observe(24 * time.Hour) // beyond last bucket: clamped
	if h.Count() != 3 {
		t.Error("extreme observations dropped")
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{Header: []string{"name", "wips", "latency"}}
	tb.Add("SharedDB", 123.456, 1500*time.Microsecond)
	tb.Add("MySQL", 7.0, time.Second)
	out := tb.String()
	if !strings.Contains(out, "SharedDB") || !strings.Contains(out, "123.5") {
		t.Errorf("table output:\n%s", out)
	}
	if !strings.Contains(out, "1.50ms") {
		t.Errorf("duration formatting missing:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header, separator, 2 rows
		t.Errorf("line count = %d:\n%s", len(lines), out)
	}
}
