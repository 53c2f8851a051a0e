package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestResolve(t *testing.T) {
	if got := Resolve(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Resolve(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Resolve(-3); got != 1 {
		t.Errorf("Resolve(-3) = %d, want 1", got)
	}
	if got := Resolve(7); got != 7 {
		t.Errorf("Resolve(7) = %d, want 7", got)
	}
}

func TestDoCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		for _, n := range []int{0, 1, 3, 100} {
			hits := make([]atomic.Int32, n)
			Do(workers, n, func(i int) { hits[i].Add(1) })
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Errorf("workers=%d n=%d: index %d ran %d times", workers, n, i, got)
				}
			}
		}
	}
}

func TestDoSerialOrder(t *testing.T) {
	var order []int
	Do(1, 5, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("serial Do out of order: %v", order)
		}
	}
}

func TestSplit(t *testing.T) {
	cases := []struct {
		n, parts int
		want     []int
	}{
		{10, 2, []int{0, 5, 10}},
		{10, 3, []int{0, 3, 6, 10}},
		{2, 4, []int{0, 1, 2}}, // parts clamped to n
		{0, 4, []int{0, 0}},    // empty input: one empty range
		{5, 1, []int{0, 5}},
	}
	for _, c := range cases {
		got := Split(c.n, c.parts)
		if len(got) != len(c.want) {
			t.Errorf("Split(%d,%d) = %v, want %v", c.n, c.parts, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("Split(%d,%d) = %v, want %v", c.n, c.parts, got, c.want)
				break
			}
		}
	}
	// Every split must cover [0,n) exactly with non-decreasing bounds.
	for n := 0; n < 40; n++ {
		for parts := 1; parts < 9; parts++ {
			b := Split(n, parts)
			if b[0] != 0 || b[len(b)-1] != n {
				t.Fatalf("Split(%d,%d) bounds %v do not cover", n, parts, b)
			}
			for i := 1; i < len(b); i++ {
				if b[i] < b[i-1] {
					t.Fatalf("Split(%d,%d) bounds %v decrease", n, parts, b)
				}
			}
		}
	}
}

func TestPoolCoversEveryIndexOnce(t *testing.T) {
	p := newPool(3)
	for _, workers := range []int{1, 2, 4, 16} {
		for _, n := range []int{0, 1, 3, 100} {
			hits := make([]atomic.Int32, n)
			p.do(workers, n, func(i int) { hits[i].Add(1) })
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Errorf("workers=%d n=%d: index %d ran %d times", workers, n, i, got)
				}
			}
		}
	}
}

func TestNilPoolDelegatesToDefault(t *testing.T) {
	var p *pool
	hits := make([]atomic.Int32, 50)
	p.do(4, 50, func(i int) { hits[i].Add(1) })
	for i := range hits {
		if got := hits[i].Load(); got != 1 {
			t.Errorf("nil-pool Do: index %d ran %d times", i, got)
		}
	}
}

func TestPoolNestedDoDoesNotDeadlock(t *testing.T) {
	p := newPool(2)
	var total atomic.Int32
	p.do(4, 8, func(i int) {
		p.do(4, 8, func(j int) { total.Add(1) })
	})
	if got := total.Load(); got != 64 {
		t.Fatalf("nested Do ran %d inner items, want 64", got)
	}
}
