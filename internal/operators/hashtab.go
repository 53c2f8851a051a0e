package operators

import (
	"math"

	"shareddb/internal/types"
)

// Unboxed hash tables for the shared join build and the shared group-by
// (paper §3.3, §3.4). The previous implementation keyed Go maps on
// types.EncodeKey strings, paying a key-encoding allocation per tuple on
// the hottest path of the plan; these tables key on a precomputed 64-bit
// hash of the key columns with open addressing over power-of-two slot
// arrays, and verify collisions by direct value comparison — no per-tuple
// allocation once a cycle's table has warmed up. Tables are owned by their
// operator and recycled across cycles (a node runs one cycle at a time).

// Key hashing: each key column hashes on its own (keyHash), the column
// hashes mix FNV-style, and a splitmix-style finalizer folds the high bits
// down, because open addressing indexes by the low bits. Every key hash in
// the package — join build, join probe (streamed or read from the column
// mirror) and group-by — goes through hashValues or hashKey, which agree
// on equal keys.
const (
	hashOffset64 = 14695981039346656037
	hashPrime64  = 1099511628211
	// hashWordMul is the golden-ratio multiplier of the fixed-width key
	// hash.
	hashWordMul = 0x9e3779b97f4a7c15
)

func hashFinish(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// keyHash hashes one key value under types.Value.Hash's coercion contract
// — values that compare equal across INT, BOOL, TIME and integral FLOAT
// hash alike — with one multiply for those kinds instead of FNV's eight.
// Other FLOATs hash their bit pattern the same way; strings and NULL keep
// Value.Hash.
func keyHash(v types.Value) uint64 {
	switch v.K {
	case types.KindInt, types.KindBool, types.KindTime:
		return uint64(v.Int) * hashWordMul
	case types.KindFloat:
		if f := v.AsFloat(); f == math.Trunc(f) && !math.IsInf(f, 0) {
			return uint64(int64(f)) * hashWordMul
		}
		return uint64(v.Int) * hashWordMul
	default:
		return v.Hash()
	}
}

// hashValues mixes the hashes of a row's selected columns into one 64-bit
// key hash. Equal keys always collide and the value comparison resolves
// the rest.
func hashValues(row types.Row, cols []int) uint64 {
	h := uint64(hashOffset64)
	for _, c := range cols {
		h = (h ^ keyHash(row[c])) * hashPrime64
	}
	return hashFinish(h)
}

// hashKey is hashValues over key values already pulled out of their row.
func hashKey(key []types.Value) uint64 {
	h := uint64(hashOffset64)
	for _, v := range key {
		h = (h ^ keyHash(v)) * hashPrime64
	}
	return hashFinish(h)
}

// joinTable is the shared hash join's build table: one bucket per distinct
// key, each holding its inner tuples as an arrival-ordered chain (so probe
// emission order matches the serial map-based build exactly). Each bucket
// caches its key values in keys, so verifying a probe never dereferences a
// build row.
type joinTable struct {
	keyCols []int   // key columns in the build rows' schema
	slots   []int32 // open addressing: bucket index + 1, 0 = empty
	mask    uint64
	buckets []joinBucket
	entries []joinEntry
	keys    []types.Value // bucket b's key is keys[b*len(keyCols):][:len(keyCols)]
}

type joinBucket struct {
	hash       uint64
	head, tail int32 // entry chain in arrival order
}

type joinEntry struct {
	t    Tuple
	next int32 // -1 = end of chain
}

// reset prepares the table for a new cycle, keeping its backing arrays but
// dropping every tuple and key reference so recycled version rows are not
// pinned between cycles.
func (jt *joinTable) reset(keyCols []int) {
	jt.keyCols = keyCols
	clear(jt.slots)
	jt.buckets = jt.buckets[:0]
	clear(jt.entries)
	jt.entries = jt.entries[:0]
	clear(jt.keys)
	jt.keys = jt.keys[:0]
}

func (jt *joinTable) len() int { return len(jt.entries) }

// bucketKey is bucket bi's cached key values.
func (jt *joinTable) bucketKey(bi int32) []types.Value {
	n := int32(len(jt.keyCols))
	return jt.keys[bi*n : bi*n+n]
}

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

// insert adds one build-side tuple under its key values and their hash
// (hashKey).
func (jt *joinTable) insert(h uint64, key []types.Value, t Tuple) {
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
			jt.buckets = append(jt.buckets, joinBucket{hash: h, head: ei, tail: ei})
			jt.keys = append(jt.keys, key...)
			return
		}
		b := &jt.buckets[s-1]
		if b.hash == h && valuesEqual(jt.bucketKey(s-1), key) {
			jt.entries[b.tail].next = ei
			b.tail = ei
			return
		}
		i = (i + 1) & jt.mask
	}
}

// lookup returns the bucket index for a probe key and its hash (-1 = no
// match). Iterate its chain from jt.buckets[bi].head with
// jt.entries[i].next.
func (jt *joinTable) lookup(h uint64, key []types.Value) int32 {
	if len(jt.slots) == 0 {
		return -1
	}
	i := h & jt.mask
	for {
		s := jt.slots[i]
		if s == 0 {
			return -1
		}
		if b := &jt.buckets[s-1]; b.hash == h && valuesEqual(jt.bucketKey(s-1), key) {
			return s - 1
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

// valuesEqual reports whether two keys agree value by value (with numeric
// coercion).
func valuesEqual(a, b []types.Value) bool {
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// keyEquals reports whether a group's key values equal row's key columns
// (with numeric coercion).
func keyEquals(keyVals []types.Value, row types.Row, cols []int) bool {
	for i, c := range cols {
		if !keyVals[i].Equal(row[c]) {
			return false
		}
	}
	return true
}
