package btree

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"shareddb/internal/testutil"
	"shareddb/internal/types"
)

// hit is one entry a seek yielded.
type hit struct {
	key Key
	rid uint64
}

// checkCursor seeks keys in the given order through one cursor and checks
// every seek against a Scan(key, key, true, true) of its own: the same
// entries, in the same order.
func checkCursor(t *testing.T, tr *Tree, keys []Key) {
	t.Helper()
	c := tr.Cursor()
	for i, key := range keys {
		var got, want []hit
		c.Seek(key, func(k Key, rid uint64) bool { got = append(got, hit{k, rid}); return true })
		tr.Scan(key, key, true, true, func(k Key, rid uint64) bool { want = append(want, hit{k, rid}); return true })
		if !slices.EqualFunc(got, want, func(a, b hit) bool { return a.rid == b.rid && slices.Equal(a.key, b.key) }) {
			t.Fatalf("seek %d of %d, key %v: cursor yields %v, Scan yields %v", i, len(keys), key, got, want)
		}
	}
}

// ascendingKeys sorts keys the way a probe cycle seeks them: by key, a
// prefix before the longer keys sharing it.
func ascendingKeys(keys []Key) []Key {
	slices.SortStableFunc(keys, func(a, b Key) int {
		if d := CompareKeys(a, b); d != 0 {
			return d
		}
		return len(a) - len(b)
	})
	return keys
}

// randomKeys draws n keys over first columns [0, span): two-column keys,
// one-column prefixes and repeats of earlier draws.
func randomKeys(rng *rand.Rand, n int, span int64) []Key {
	keys := make([]Key, 0, n)
	for len(keys) < n {
		switch r := rng.Intn(10); {
		case r == 0 && len(keys) > 0:
			keys = append(keys, keys[rng.Intn(len(keys))])
		case r < 3:
			keys = append(keys, ik(rng.Int63n(span)))
		default:
			keys = append(keys, ik(rng.Int63n(span), rng.Int63n(4)))
		}
	}
	return keys
}

// TestCursorMatchesScan seeks ascending key sequences — duplicates, prefix
// keys, keys past the last leaf, dense runs that stay in one leaf and sparse
// ones that jump past maxHops — through trees with duplicate keys and with
// runs of leaves emptied by deletes; every seek must yield exactly what
// Scan does. Unsorted and mixed-kind sequences (FLOAT, NaN, strings, NULL)
// must also match: any order is correct, only slower.
func TestCursorMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := New()
	for i := 0; i < 20000; i++ {
		tr.Insert(ik(rng.Int63n(3000), rng.Int63n(4)), uint64(rng.Intn(3)))
	}
	check := func(name string) {
		t.Run(name, func(t *testing.T) {
			for _, span := range []int64{40, 400, 3200} { // dense, medium, sparse and past the end
				keys := randomKeys(rng, 500, span)
				checkCursor(t, tr, ascendingKeys(slices.Clone(keys)))
				checkCursor(t, tr, keys)
			}
			checkCursor(t, tr, []Key{
				ik(5), {types.NewFloat(5)}, {types.NewFloat(5.5)}, ik(6, 1), {types.NewFloat(math.NaN())},
				ik(7), {types.Null}, ik(8), {types.NewString("x")}, ik(9), {types.NewInt(10), types.NewFloat(1)},
				{types.NewFloat(math.Inf(1))}, ik(11), {types.NewFloat(math.Inf(-1))}, ik(12), nil, ik(13), {}, ik(14),
			})
		})
	}
	check("full")
	// Empty whole runs of leaves: first-column bands [1000, 1600) and
	// [2000, 2050), plus every entry of a few scattered keys.
	var doomed []hit
	tr.Scan(nil, nil, true, true, func(k Key, rid uint64) bool {
		if f := k[0].Int; (f >= 1000 && f < 1600) || (f >= 2000 && f < 2050) || f%97 == 0 {
			doomed = append(doomed, hit{k, rid})
		}
		return true
	})
	for _, h := range doomed {
		if !tr.Delete(h.key, h.rid) {
			t.Fatalf("fixture: delete %v/%d failed", h.key, h.rid)
		}
	}
	check("after deletes")
}

// FuzzCursorSeeks drives a tree with a fuzzed insert/delete tape (as
// FuzzScanBounds does) and then seeks a fuzzed key sequence, sorted
// ascending unless flags say otherwise, through one cursor; each seek must
// yield exactly what Scan(key, key, true, true) yields.
func FuzzCursorSeeks(f *testing.F) {
	tape := func(n int, step byte) []byte {
		out := make([]byte, 0, 3*n)
		for i := 0; i < n; i++ {
			out = append(out, byte(i)%5, byte(i)*step, byte(i/7))
		}
		return out
	}
	seeks := func(n int, step byte) []byte {
		out := make([]byte, 0, 2*n)
		for i := 0; i < n; i++ {
			out = append(out, byte(i)*step, byte(i))
		}
		return out
	}
	f.Add([]byte{}, []byte{}, byte(0))
	f.Add(tape(40, 3), seeks(20, 5), byte(0))
	f.Add(tape(600, 11), seeks(200, 3), byte(0))
	f.Add(tape(600, 11), seeks(200, 3), byte(1))    // unsorted
	f.Add(tape(900, 13), seeks(100, 7), byte(2))    // head of the tree emptied
	f.Add(tape(2000, 17), seeks(300, 1), byte(2|1)) // emptied and unsorted
	f.Fuzz(func(t *testing.T, ops, keyTape []byte, flags byte) {
		tr := New()
		m := refModel{}
		for ; len(ops) >= 3; ops = ops[3:] {
			k, rid := ik(int64(ops[1]%32), int64(ops[2]%4)), uint64(ops[2]%3)
			if ops[0]%5 == 0 {
				tr.Delete(k, rid)
				m.remove(k, rid)
			} else {
				tr.Insert(k, rid)
				m.insert(k, rid)
			}
		}
		if flags&2 != 0 {
			sorted := m.sorted()
			for _, e := range sorted[:len(sorted)/2] {
				tr.Delete(e.key, e.rid)
			}
		}
		var keys []Key
		for ; len(keyTape) >= 2; keyTape = keyTape[2:] {
			a, b := int64(keyTape[0]%40), int64(keyTape[1]) // first columns 32..39 lie past the last leaf
			if b&0x80 != 0 {
				keys = append(keys, ik(a))
			} else {
				keys = append(keys, ik(a, b%4))
			}
		}
		if flags&1 == 0 {
			ascendingKeys(keys)
		}
		checkCursor(t, tr, keys)
	})
}

// TestCursorZeroAlloc pins the cursor's seeks at zero allocations, the
// forward walks between neighbouring keys and the root descents after a
// long jump alike.
func TestCursorZeroAlloc(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	tr := New()
	for i := 0; i < 10000; i++ {
		tr.Insert(ik(int64(i)), uint64(i))
	}
	key := ik(0)
	found := 0
	fn := func(Key, uint64) bool { found++; return true }
	allocs := testing.AllocsPerRun(100, func() {
		c := tr.Cursor()
		for i := int64(0); i < 256; i++ {
			key[0] = types.NewInt(i*3 + (i/64)*1000) // runs of near neighbours, then a jump
			c.Seek(key, fn)
		}
	})
	if found == 0 {
		t.Fatal("seeks found nothing")
	}
	if allocs != 0 {
		t.Errorf("256 cursor seeks allocate %.1f, want 0", allocs)
	}
}
