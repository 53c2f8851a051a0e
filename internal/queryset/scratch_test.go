package queryset

import (
	"math/rand"
	"testing"

	"shareddb/internal/testutil"
)

// Correctness of the scratch (zero-allocation) set operations against the
// map reference, plus AllocsPerRun gates pinning the steady-state routing
// path at zero allocations.

func TestIntersectIntoMatchesIntersect(t *testing.T) {
	cases := [][2][]QueryID{
		{{}, {}},
		{{1, 2, 3}, {}},
		{{}, {4, 5}},
		{{1, 2, 3}, {2, 3, 4}},
		{{1, 5, 9}, {2, 6, 10}},
		{{1, 2, 3, 4, 5}, {1, 2, 3, 4, 5}},
		{{1}, {1}},
		{{1, 3}, {2, 4}},
		{{10, 20, 30}, {1, 2, 3}}, // disjoint ranges fast path
	}
	var scratch []QueryID
	for _, c := range cases {
		a, b := Of(c[0]...), Of(c[1]...)
		want := refOf(c[0]).intersect(refOf(c[1]))
		got := a.IntersectInto(b, scratch)
		if !sameIDs(got, want) {
			t.Errorf("IntersectInto(%v, %v) = %v, want %v", a, b, got, want.sorted())
		}
		scratch = got.IDs()
	}
}

func TestRetainIntoMatchesRetain(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	keep := func(id QueryID) bool { return id%3 != 1 }
	var scratch []QueryID
	for i := 0; i < 200; i++ {
		ids := randIDs(r)
		want := ref{}
		for id := range refOf(ids) {
			if keep(id) {
				want[id] = true
			}
		}
		got := Of(ids...).RetainInto(keep, scratch)
		if !sameIDs(got, want) {
			t.Fatalf("RetainInto(%v) = %v, want %v", ids, got, want.sorted())
		}
		scratch = got.IDs()
	}
}

func TestArenaSetsSurviveGrowth(t *testing.T) {
	var a Arena
	big := Of(1, 2, 3, 4, 5, 6, 7, 8)
	var stored []Set
	// Enough appends to force several arena growths.
	for i := 0; i < 100; i++ {
		stored = append(stored, a.Intersect(big, Of(QueryID(i%8)+1)))
	}
	for i, s := range stored {
		want := Single(QueryID(i%8) + 1)
		if !s.Equal(want) {
			t.Fatalf("stored[%d] = %v, want %v (clobbered by arena growth?)", i, s, want)
		}
	}
	a.Reset()
	if a.Cap() == 0 {
		t.Error("Reset dropped the arena backing array")
	}
}

func TestArenaAppendEmpty(t *testing.T) {
	var a Arena
	if got := a.Append(Set{}); !got.Empty() {
		t.Errorf("Append(empty) = %v", got)
	}
	if got := a.Intersect(Of(1), Of(2)); !got.Empty() {
		t.Errorf("Intersect(disjoint) = %v", got)
	}
}

// TestIntersectIntoZeroAlloc is an allocation-regression gate: routing a
// tuple's set against an edge's set through scratch must not allocate.
func TestIntersectIntoZeroAlloc(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	a := Of(1, 2, 3, 5, 8)
	b := Of(2, 3, 4, 5, 9)
	scratch := make([]QueryID, 0, 8)
	allocs := testing.AllocsPerRun(1000, func() {
		s := a.IntersectInto(b, scratch)
		scratch = s.IDs()
	})
	if allocs != 0 {
		t.Errorf("IntersectInto allocates %.1f/op, want 0", allocs)
	}
}

// TestArenaSteadyStateZeroAlloc pins that a warmed arena absorbs
// intersections without allocating.
func TestArenaSteadyStateZeroAlloc(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	a := Of(1, 2, 3, 5, 8)
	b := Of(2, 3, 4, 5, 9)
	var arena Arena
	allocs := testing.AllocsPerRun(1000, func() {
		arena.Reset()
		for i := 0; i < 16; i++ {
			arena.Intersect(a, b)
		}
	})
	if allocs != 0 {
		t.Errorf("warmed Arena.Intersect allocates %.1f/run, want 0", allocs)
	}
}
