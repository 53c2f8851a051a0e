package queryset

import (
	"testing"
)

// Ablation A1: list vs bitmap representation of the query_id
// set (§3.1: "we chose to use a list-based implementation because that
// turned out to be the more space and time efficient option in all our
// experiments"). For the sparse sets typical of shared plans (a handful of
// subscribers out of hundreds of active queries), lists win; bitmaps only
// catch up when sets are dense.

func sparseSets(universe, members int) (Set, Set, *Bitmap, *Bitmap) {
	a := make([]QueryID, 0, members)
	bIDs := make([]QueryID, 0, members)
	for i := 0; i < members; i++ {
		a = append(a, QueryID(i*universe/members))
		bIDs = append(bIDs, QueryID(i*universe/members+universe/(2*members)))
	}
	la, lb := Of(a...), Of(bIDs...)
	return la, lb, BitmapOf(universe, a...), BitmapOf(universe, bIDs...)
}

func BenchmarkAblation_QuerySetListVsBitmap(b *testing.B) {
	cases := []struct {
		name              string
		universe, members int
	}{
		{"sparse_1024q_8members", 1024, 8},
		{"medium_1024q_64members", 1024, 64},
		{"dense_1024q_512members", 1024, 512},
	}
	for _, c := range cases {
		la, lb, ba, bb := sparseSets(c.universe, c.members)
		// The list side is the production operation: IntersectInto over a
		// reused scratch buffer, as the shared join routes tuples.
		b.Run(c.name+"/list_intersect", func(b *testing.B) {
			var scratch []QueryID
			for i := 0; i < b.N; i++ {
				scratch = la.IntersectInto(lb, scratch).IDs()
			}
		})
		b.Run(c.name+"/bitmap_intersect", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = ba.Intersect(bb)
			}
		})
	}
}

func BenchmarkOf(b *testing.B) {
	ids := make([]QueryID, 128)
	for i := range ids {
		ids[i] = QueryID(i)
	}
	b.Run("sorted_fastpath", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = Of(ids...)
		}
	})
	rev := make([]QueryID, 128)
	for i := range rev {
		rev[i] = QueryID(127 - i)
	}
	b.Run("unsorted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = Of(rev...)
		}
	})
}
