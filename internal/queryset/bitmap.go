package queryset

import "math/bits"

// Bitmap is the alternative set representation considered (and rejected) by
// the paper for the query_id attribute (§3.1: "In the literature, two data
// structures have been proposed: (a) bitmaps and (b) lists"). It is kept so
// the representation choice can be benchmarked (bench_test.go, ablation A1):
// bitmaps win when sets are dense relative to the id universe, lists win for
// the sparse sets typical of shared plans.
type Bitmap struct {
	words []uint64
}

// NewBitmap returns an empty bitmap sized for ids in [0, universe).
func NewBitmap(universe int) *Bitmap {
	return &Bitmap{words: make([]uint64, (universe+63)/64)}
}

// BitmapOf builds a bitmap containing the given ids.
func BitmapOf(universe int, ids ...QueryID) *Bitmap {
	b := NewBitmap(universe)
	for _, id := range ids {
		b.Set(id)
	}
	return b
}

// Set adds id to the bitmap, growing it as needed.
func (b *Bitmap) Set(id QueryID) {
	w := int(id / 64)
	for w >= len(b.words) {
		b.words = append(b.words, 0)
	}
	b.words[w] |= 1 << (id % 64)
}

// Contains reports membership of id.
func (b *Bitmap) Contains(id QueryID) bool {
	w := int(id / 64)
	return w < len(b.words) && b.words[w]&(1<<(id%64)) != 0
}

// Len returns the number of set bits.
func (b *Bitmap) Len() int {
	n := 0
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether no bit is set.
func (b *Bitmap) Empty() bool {
	for _, w := range b.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Intersect returns a new bitmap b ∩ o.
func (b *Bitmap) Intersect(o *Bitmap) *Bitmap {
	n := len(b.words)
	if len(o.words) < n {
		n = len(o.words)
	}
	out := make([]uint64, n)
	for i := 0; i < n; i++ {
		out[i] = b.words[i] & o.words[i]
	}
	return &Bitmap{words: out}
}

// Intersects reports whether b ∩ o is non-empty without materializing it.
func (b *Bitmap) Intersects(o *Bitmap) bool {
	n := len(b.words)
	if len(o.words) < n {
		n = len(o.words)
	}
	for i := 0; i < n; i++ {
		if b.words[i]&o.words[i] != 0 {
			return true
		}
	}
	return false
}

// IDs returns the members in ascending order.
func (b *Bitmap) IDs() []QueryID {
	out := make([]QueryID, 0, b.Len())
	for wi, w := range b.words {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			out = append(out, QueryID(wi*64+bit))
			w &= w - 1
		}
	}
	return out
}

// ToSet converts the bitmap to the list representation.
func (b *Bitmap) ToSet() Set { return FromSorted(b.IDs()) }
