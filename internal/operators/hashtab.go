package operators

import "shareddb/internal/types"

// Unboxed hash tables for the shared join build and the shared group-by
// (paper §3.3, §3.4). The previous implementation keyed Go maps on
// types.EncodeKey strings, paying a key-encoding allocation per tuple on
// the hottest path of the plan; these tables key on a precomputed 64-bit
// hash of the key columns with open addressing over power-of-two slot
// arrays, and verify collisions by direct value comparison — no per-tuple
// allocation once a cycle's table has warmed up. Tables are owned by their
// operator and recycled across cycles (a node runs one cycle at a time).

// FNV-1a mix constants plus a splitmix-style finalizer: open addressing
// indexes by the low bits, and FNV's low bits alone cluster for sequential
// ints. Serial and parallel group/join paths MUST agree on this hash
// (bucket disjointness and shard selection both assume it), so every key
// hash in the package goes through these two helpers.
const (
	hashOffset64 = 14695981039346656037
	hashPrime64  = 1099511628211
)

func hashFinish(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// hashValues mixes the hashes of a row's selected columns into one 64-bit
// key hash. types.Value.Hash is coercion-consistent (an integral FLOAT
// hashes like the equal INT), so equal keys always collide and the value
// comparison resolves the rest.
func hashValues(row types.Row, cols []int) uint64 {
	h := uint64(hashOffset64)
	for _, c := range cols {
		h = (h ^ row[c].Hash()) * hashPrime64
	}
	return hashFinish(h)
}

// rowsEqualOn reports whether two rows agree on their respective key
// columns (with numeric coercion, same as the previous EncodeKey equality).
func rowsEqualOn(a types.Row, acols []int, b types.Row, bcols []int) bool {
	for i := range acols {
		if !a[acols[i]].Equal(b[bcols[i]]) {
			return false
		}
	}
	return true
}

// joinTable is the shared hash join's build table: one bucket per distinct
// key, each holding its inner tuples as an arrival-ordered chain (so probe
// emission order matches the serial map-based build exactly).
type joinTable struct {
	keyCols []int   // key columns in the build rows' schema
	slots   []int32 // open addressing: bucket index + 1, 0 = empty
	mask    uint64
	buckets []joinBucket
	entries []joinEntry
}

type joinBucket struct {
	hash       uint64
	row        types.Row // representative row for collision verification
	head, tail int32     // entry chain in arrival order
}

type joinEntry struct {
	t    Tuple
	next int32 // -1 = end of chain
}

// reset prepares the table for a new cycle, keeping its backing arrays but
// dropping every tuple and representative-row reference so recycled version
// rows are not pinned between cycles.
func (jt *joinTable) reset(keyCols []int) {
	jt.keyCols = keyCols
	clear(jt.slots)
	clear(jt.buckets)
	jt.buckets = jt.buckets[:0]
	clear(jt.entries)
	jt.entries = jt.entries[:0]
}

func (jt *joinTable) len() int { return len(jt.entries) }

// grow (re)builds the slot array at the next power of two.
func (jt *joinTable) grow() {
	n := len(jt.slots) * 2
	if n < 16 {
		n = 16
	}
	if cap(jt.slots) >= n {
		jt.slots = jt.slots[:n]
		clear(jt.slots)
	} else {
		jt.slots = make([]int32, n)
	}
	jt.mask = uint64(n - 1)
	for bi := range jt.buckets {
		i := jt.buckets[bi].hash & jt.mask
		for jt.slots[i] != 0 {
			i = (i + 1) & jt.mask
		}
		jt.slots[i] = int32(bi) + 1
	}
}

// insert adds one build-side tuple under the hash of its key columns.
func (jt *joinTable) insert(h uint64, t Tuple) {
	// Load factor 1/2 over buckets (distinct keys), not entries.
	if len(jt.slots) == 0 || len(jt.buckets)*2 >= len(jt.slots) {
		jt.grow()
	}
	ei := int32(len(jt.entries))
	jt.entries = append(jt.entries, joinEntry{t: t, next: -1})
	i := h & jt.mask
	for {
		s := jt.slots[i]
		if s == 0 {
			jt.slots[i] = int32(len(jt.buckets)) + 1
			jt.buckets = append(jt.buckets, joinBucket{hash: h, row: t.Row, head: ei, tail: ei})
			return
		}
		b := &jt.buckets[s-1]
		if b.hash == h && rowsEqualOn(t.Row, jt.keyCols, b.row, jt.keyCols) {
			jt.entries[b.tail].next = ei
			b.tail = ei
			return
		}
		i = (i + 1) & jt.mask
	}
}

// lookup returns the head entry index for an outer row's key (-1 = no
// match). Iterate with jt.entries[i].next.
func (jt *joinTable) lookup(h uint64, outer types.Row, outerCols []int) int32 {
	if len(jt.slots) == 0 {
		return -1
	}
	i := h & jt.mask
	for {
		s := jt.slots[i]
		if s == 0 {
			return -1
		}
		b := &jt.buckets[s-1]
		if b.hash == h && rowsEqualOn(outer, outerCols, b.row, jt.keyCols) {
			return b.head
		}
		i = (i + 1) & jt.mask
	}
}

// groupTable is the shared group-by's hash table: insertion-ordered entries
// (deterministic Finish emission) with open-addressed hash slots.
type groupTable struct {
	slots   []int32 // entry index + 1, 0 = empty
	mask    uint64
	entries []*groupEntry
}

// reset prepares the table for a new cycle, keeping backing arrays.
func (gt *groupTable) reset() {
	clear(gt.slots)
	clear(gt.entries)
	gt.entries = gt.entries[:0]
}

func (gt *groupTable) grow() {
	n := len(gt.slots) * 2
	if n < 16 {
		n = 16
	}
	if cap(gt.slots) >= n {
		gt.slots = gt.slots[:n]
		clear(gt.slots)
	} else {
		gt.slots = make([]int32, n)
	}
	gt.mask = uint64(n - 1)
	for ei, ge := range gt.entries {
		i := ge.hash & gt.mask
		for gt.slots[i] != 0 {
			i = (i + 1) & gt.mask
		}
		gt.slots[i] = int32(ei) + 1
	}
}

// lookup finds the group whose key equals row's key columns (nil = absent;
// returning the probe slot is unnecessary since insert re-probes after a
// possible grow).
func (gt *groupTable) lookup(h uint64, row types.Row, cols []int) *groupEntry {
	if len(gt.slots) == 0 {
		return nil
	}
	i := h & gt.mask
	for {
		s := gt.slots[i]
		if s == 0 {
			return nil
		}
		ge := gt.entries[s-1]
		if ge.hash == h && keyEquals(ge.keyVals, row, cols) {
			return ge
		}
		i = (i + 1) & gt.mask
	}
}

// insert adds a new group entry (the caller has verified it is absent).
func (gt *groupTable) insert(ge *groupEntry) {
	if len(gt.slots) == 0 || len(gt.entries)*2 >= len(gt.slots) {
		gt.grow()
	}
	i := ge.hash & gt.mask
	for gt.slots[i] != 0 {
		i = (i + 1) & gt.mask
	}
	gt.slots[i] = int32(len(gt.entries)) + 1
	gt.entries = append(gt.entries, ge)
}

// keyEquals reports whether a group's key values equal row's key columns.
func keyEquals(keyVals []types.Value, row types.Row, cols []int) bool {
	for i, c := range cols {
		if !keyVals[i].Equal(row[c]) {
			return false
		}
	}
	return true
}
