package queryset

import (
	"testing"
)

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
