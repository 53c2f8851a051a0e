package queryset

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// ref is the map-based reference the list operations are checked against.
type ref map[QueryID]bool

func refOf(ids []QueryID) ref {
	r := ref{}
	for _, id := range ids {
		r[id] = true
	}
	return r
}

// sorted returns the members in ascending order.
func (r ref) sorted() []QueryID {
	var out []QueryID
	for id := range r {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

func (r ref) intersect(o ref) ref {
	out := ref{}
	for id := range r {
		if o[id] {
			out[id] = true
		}
	}
	return out
}

// sameIDs compares a set's members with a reference.
func sameIDs(s Set, want ref) bool { return slices.Equal(s.IDs(), want.sorted()) }

func TestOfDeduplicatesAndSorts(t *testing.T) {
	s := Of(3, 1, 2, 3, 1)
	want := []QueryID{1, 2, 3}
	got := s.IDs()
	if len(got) != len(want) {
		t.Fatalf("IDs() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IDs() = %v, want %v", got, want)
		}
	}
	if s.String() != "{1, 2, 3}" {
		t.Errorf("String() = %q", s.String())
	}
}

func TestEmptySet(t *testing.T) {
	var s Set
	if !s.Empty() || s.Len() != 0 || s.Contains(1) {
		t.Error("zero Set should be empty")
	}
	if !s.IntersectInto(Of(1), nil).Empty() || s.Intersects(Of(1)) {
		t.Error("∅ ∩ {1} != ∅")
	}
	if !s.RetainInto(func(QueryID) bool { return true }, nil).Empty() {
		t.Error("retaining from ∅ must stay empty")
	}
}

func TestContains(t *testing.T) {
	s := Of(2, 4, 6, 8)
	for _, id := range []QueryID{2, 4, 6, 8} {
		if !s.Contains(id) {
			t.Errorf("should contain %d", id)
		}
	}
	for _, id := range []QueryID{0, 1, 3, 5, 7, 9} {
		if s.Contains(id) {
			t.Errorf("should not contain %d", id)
		}
	}
	// exercise the binary-search path (>16 elements)
	big := make([]QueryID, 50)
	for i := range big {
		big[i] = QueryID(i * 2)
	}
	bs := FromSorted(big)
	if !bs.Contains(48) || bs.Contains(49) {
		t.Error("binary search path wrong")
	}
}

func TestIntersectAndIntersects(t *testing.T) {
	a, b := Of(1, 2, 3, 5), Of(2, 4, 5, 6)
	if got := a.IntersectInto(b, nil); !got.Equal(Of(2, 5)) {
		t.Errorf("IntersectInto = %v", got)
	}
	if !a.Intersects(b) {
		t.Error("Intersects should be true")
	}
	if Of(1, 2).Intersects(Of(3, 4)) {
		t.Error("disjoint sets should not intersect")
	}
	// disjoint-range fast path
	if Of(1, 2).Intersects(Of(100, 200)) || !Of(1, 2).IntersectInto(Of(100, 200), nil).Empty() {
		t.Error("range fast path broken")
	}
}

func TestRetain(t *testing.T) {
	s := Of(1, 2, 3, 4, 5)
	even := s.RetainInto(func(id QueryID) bool { return id%2 == 0 }, nil)
	if !even.Equal(Of(2, 4)) {
		t.Errorf("RetainInto = %v", even)
	}
	if !s.Equal(Of(1, 2, 3, 4, 5)) {
		t.Error("RetainInto mutated the receiver")
	}
}

func randIDs(r *rand.Rand) []QueryID {
	ids := make([]QueryID, r.Intn(20))
	for i := range ids {
		ids[i] = QueryID(r.Intn(64))
	}
	return ids
}

// Property: every kept operation agrees with the map reference, and
// intersection is commutative and idempotent.
func TestSetAlgebraProperties(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	var scratch []QueryID
	var arena Arena
	for i := 0; i < 500; i++ {
		ia, ib := randIDs(r), randIDs(r)
		a, b := Of(ia...), Of(ib...)
		ra, rb := refOf(ia), refOf(ib)
		if !sameIDs(a, ra) {
			t.Fatalf("Of(%v) = %v", ia, a)
		}
		want := ra.intersect(rb)
		ab := a.IntersectInto(b, scratch)
		if !sameIDs(ab, want) {
			t.Fatalf("%v ∩ %v = %v, want %v", a, b, ab, want.sorted())
		}
		scratch = ab.IDs()
		if !sameIDs(b.IntersectInto(a, nil), want) {
			t.Fatalf("intersect not commutative: %v %v", a, b)
		}
		if !a.IntersectInto(a, nil).Equal(a) {
			t.Fatalf("intersect not idempotent: %v", a)
		}
		if a.Intersects(b) != (len(want) > 0) {
			t.Fatalf("Intersects(%v, %v) inconsistent with the reference", a, b)
		}
		if !sameIDs(arena.Intersect(a, b), want) {
			t.Fatalf("Arena.Intersect(%v, %v) disagrees with the reference", a, b)
		}
		if a.Equal(b) != slices.Equal(ra.sorted(), rb.sorted()) {
			t.Fatalf("Equal(%v, %v) disagrees with the reference", a, b)
		}
	}
}

func TestFromSortedAdoptsSlice(t *testing.T) {
	ids := []QueryID{1, 5, 9}
	s := FromSorted(ids)
	if s.Len() != 3 || !s.Contains(5) {
		t.Error("FromSorted wrong")
	}
}

func TestSingle(t *testing.T) {
	s := Single(7)
	if s.Len() != 1 || !s.Contains(7) {
		t.Error("Single wrong")
	}
}

func TestQuickOfSorted(t *testing.T) {
	f := func(xs []uint32) bool { return sameIDs(Of(xs...), refOf(xs)) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
