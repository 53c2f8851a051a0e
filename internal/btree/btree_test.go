package btree

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"shareddb/internal/testutil"
	"shareddb/internal/types"
)

func ik(vals ...int64) Key {
	k := make(Key, len(vals))
	for i, v := range vals {
		k[i] = types.NewInt(v)
	}
	return k
}

// lookup returns all row ids matching key (prefix semantics).
func lookup(tr *Tree, key Key) []uint64 {
	var out []uint64
	tr.SeekEQ(key, func(rid uint64) bool {
		out = append(out, rid)
		return true
	})
	return out
}

// ascend iterates all entries in key order.
func ascend(tr *Tree, fn func(key Key, rid uint64) bool) {
	tr.Scan(nil, nil, true, true, fn)
}

func TestInsertLookup(t *testing.T) {
	tr := New()
	if !tr.Insert(ik(5), 100) {
		t.Fatal("insert failed")
	}
	if tr.Insert(ik(5), 100) {
		t.Fatal("duplicate (key,rid) should be rejected")
	}
	if !tr.Insert(ik(5), 101) {
		t.Fatal("same key different rid should insert")
	}
	rids := lookup(tr, ik(5))
	if len(rids) != 2 || rids[0] != 100 || rids[1] != 101 {
		t.Errorf("Lookup = %v", rids)
	}
	if got := lookup(tr, ik(6)); len(got) != 0 {
		t.Errorf("Lookup(6) = %v", got)
	}
	if tr.Len() != 2 {
		t.Errorf("Len = %d", tr.Len())
	}
}

func TestDelete(t *testing.T) {
	tr := New()
	tr.Insert(ik(1), 1)
	tr.Insert(ik(2), 2)
	if !tr.Delete(ik(1), 1) {
		t.Fatal("delete failed")
	}
	if tr.Delete(ik(1), 1) {
		t.Fatal("double delete should fail")
	}
	if tr.Len() != 1 {
		t.Errorf("Len = %d", tr.Len())
	}
	if got := lookup(tr, ik(1)); len(got) != 0 {
		t.Errorf("deleted key still found: %v", got)
	}
}

func TestSplitGrowsHeight(t *testing.T) {
	tr := New()
	for i := 0; i < 10*degree; i++ {
		tr.Insert(ik(int64(i)), uint64(i))
	}
	if tr.Height() < 2 {
		t.Errorf("expected height >= 2, got %d", tr.Height())
	}
	// all present, in order
	var got []int64
	ascend(tr, func(k Key, rid uint64) bool {
		got = append(got, k[0].AsInt())
		return true
	})
	if len(got) != 10*degree {
		t.Fatalf("Ascend yielded %d entries", len(got))
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Error("Ascend not sorted")
	}
}

func TestRangeScan(t *testing.T) {
	tr := New()
	for i := 0; i < 100; i++ {
		tr.Insert(ik(int64(i)), uint64(i))
	}
	collect := func(lo, hi Key, loIncl, hiIncl bool) []int64 {
		var out []int64
		tr.Scan(lo, hi, loIncl, hiIncl, func(k Key, _ uint64) bool {
			out = append(out, k[0].AsInt())
			return true
		})
		return out
	}
	if got := collect(ik(10), ik(13), true, true); len(got) != 4 || got[0] != 10 || got[3] != 13 {
		t.Errorf("[10,13] = %v", got)
	}
	if got := collect(ik(10), ik(13), false, false); len(got) != 2 || got[0] != 11 || got[1] != 12 {
		t.Errorf("(10,13) = %v", got)
	}
	if got := collect(nil, ik(2), true, true); len(got) != 3 {
		t.Errorf("(-inf,2] = %v", got)
	}
	if got := collect(ik(97), nil, true, true); len(got) != 3 {
		t.Errorf("[97,inf) = %v", got)
	}
	// early stop
	n := 0
	tr.Scan(nil, nil, true, true, func(Key, uint64) bool { n++; return n < 5 })
	if n != 5 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestCompositeKeyPrefixScan(t *testing.T) {
	tr := New()
	// (a, b) composite index
	for a := int64(0); a < 10; a++ {
		for b := int64(0); b < 10; b++ {
			tr.Insert(ik(a, b), uint64(a*100+b))
		}
	}
	// prefix lookup: all entries with a=4
	rids := lookup(tr, ik(4))
	if len(rids) != 10 {
		t.Fatalf("prefix lookup found %d, want 10", len(rids))
	}
	for i, rid := range rids {
		if rid != uint64(400+i) {
			t.Errorf("rids[%d] = %d", i, rid)
		}
	}
	// exact composite lookup
	if got := lookup(tr, ik(4, 7)); len(got) != 1 || got[0] != 407 {
		t.Errorf("exact lookup = %v", got)
	}
	// prefix range: a in [3,5)
	var count int
	tr.Scan(ik(3), ik(5), true, false, func(Key, uint64) bool { count++; return true })
	if count != 20 {
		t.Errorf("prefix range count = %d, want 20", count)
	}
}

func TestStringKeys(t *testing.T) {
	tr := New()
	words := []string{"banana", "apple", "cherry", "date", "apricot"}
	for i, w := range words {
		tr.Insert(Key{types.NewString(w)}, uint64(i))
	}
	var got []string
	ascend(tr, func(k Key, _ uint64) bool {
		got = append(got, k[0].AsString())
		return true
	})
	want := []string{"apple", "apricot", "banana", "cherry", "date"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v", got)
		}
	}
	// LIKE-style prefix range [ap, aq)
	var pre []string
	tr.Scan(Key{types.NewString("ap")}, Key{types.NewString("aq")}, true, false,
		func(k Key, _ uint64) bool {
			pre = append(pre, k[0].AsString())
			return true
		})
	if len(pre) != 2 {
		t.Errorf("prefix scan = %v", pre)
	}
}

// refEntry is one (key, rid) pair of the sorted-slice reference model.
type refEntry struct {
	key Key
	rid uint64
}

// refModel mirrors a tree as a set of pairs; sorted() orders it the way the
// tree must: by full key, then rid.
type refModel map[string]refEntry

func refID(key Key, rid uint64) string { return fmt.Sprintf("%s/%d", types.EncodeKey(key...), rid) }

// insert and remove report what Tree.Insert and Tree.Delete must report.
func (m refModel) insert(key Key, rid uint64) bool {
	id := refID(key, rid)
	if _, dup := m[id]; dup {
		return false
	}
	m[id] = refEntry{key, rid}
	return true
}

func (m refModel) remove(key Key, rid uint64) bool {
	id := refID(key, rid)
	_, ok := m[id]
	delete(m, id)
	return ok
}

func (m refModel) sorted() []refEntry {
	out := make([]refEntry, 0, len(m))
	for _, e := range m {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if d := CompareKeys(out[i].key, out[j].key); d != 0 {
			return d < 0
		}
		return out[i].rid < out[j].rid
	})
	return out
}

// inRange is Scan's contract spelled out per entry.
func inRange(key, lo, hi Key, loIncl, hiIncl bool) bool {
	if lo != nil {
		if d := CompareKeys(key, lo); d < 0 || (d == 0 && !loIncl) {
			return false
		}
	}
	if hi != nil {
		if d := CompareKeys(key, hi); d > 0 || (d == 0 && !hiIncl) {
			return false
		}
	}
	return true
}

// checkRange compares Scan and Descend over one range against the sorted
// reference.
func checkRange(t *testing.T, tr *Tree, sorted []refEntry, lo, hi Key, loIncl, hiIncl bool) {
	t.Helper()
	var want []refEntry
	for _, e := range sorted {
		if inRange(e.key, lo, hi, loIncl, hiIncl) {
			want = append(want, e)
		}
	}
	collect := func(walk func(lo, hi Key, loIncl, hiIncl bool, fn func(Key, uint64) bool)) []refEntry {
		var got []refEntry
		walk(lo, hi, loIncl, hiIncl, func(k Key, rid uint64) bool {
			got = append(got, refEntry{k, rid})
			return true
		})
		return got
	}
	same := func(name string, got []refEntry, at func(i int) refEntry) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s lo=%v hi=%v incl=%v/%v: %d entries, want %d", name, lo, hi, loIncl, hiIncl, len(got), len(want))
		}
		for i := range got {
			w := at(i)
			if got[i].rid != w.rid || len(got[i].key) != len(w.key) || CompareKeys(got[i].key, w.key) != 0 {
				t.Fatalf("%s lo=%v hi=%v incl=%v/%v: entry %d = %v/%d, want %v/%d",
					name, lo, hi, loIncl, hiIncl, i, got[i].key, got[i].rid, w.key, w.rid)
			}
		}
	}
	same("Scan", collect(tr.Scan), func(i int) refEntry { return want[i] })
	same("Descend", collect(tr.Descend), func(i int) refEntry { return want[len(want)-1-i] })
}

// checkAllRanges runs checkRange over every inclusiveness combination of
// every pair of bounds (nil included).
func checkAllRanges(t *testing.T, tr *Tree, m refModel, bounds []Key) {
	t.Helper()
	sorted := m.sorted()
	bounds = append(bounds, nil)
	for _, lo := range bounds {
		for _, hi := range bounds {
			for incl := 0; incl < 4; incl++ {
				checkRange(t, tr, sorted, lo, hi, incl&1 != 0, incl&2 != 0)
			}
		}
	}
}

// Property: after a random interleaving of inserts and deletes — and then
// bulk deletes that leave the first leaf and a run of inner leaves empty (the
// tree never rebalances, so a binary-searched start position must roll over
// to the next leaf) — Scan and Descend agree with a sorted slice for every
// bound shape: full keys, prefix keys on a composite index, string keys,
// nil, and all four inclusiveness combinations.
func TestRandomizedAgainstReference(t *testing.T) {
	sk := func(v int64) Key { return Key{types.NewString(fmt.Sprintf("k%03d", v))} }
	shapes := []struct {
		name  string
		key   func(r *rand.Rand) Key
		bound func(r *rand.Rand) Key
	}{
		{"int", func(r *rand.Rand) Key { return ik(int64(r.Intn(200))) },
			func(r *rand.Rand) Key { return ik(int64(r.Intn(220) - 10)) }},
		{"composite", func(r *rand.Rand) Key { return ik(int64(r.Intn(20)), int64(r.Intn(20))) },
			func(r *rand.Rand) Key {
				if r.Intn(2) == 0 {
					return ik(int64(r.Intn(22) - 1)) // prefix bound
				}
				return ik(int64(r.Intn(22)-1), int64(r.Intn(22)-1))
			}},
		{"string", func(r *rand.Rand) Key { return sk(int64(r.Intn(200))) },
			func(r *rand.Rand) Key { return sk(int64(r.Intn(220))) }},
	}
	r := rand.New(rand.NewSource(1))
	for _, sh := range shapes {
		for trial := 0; trial < 6; trial++ {
			tr := New()
			m := refModel{}
			for i := 0; i < 3000; i++ {
				k, rid := sh.key(r), uint64(r.Intn(5))
				if r.Intn(4) == 0 {
					if got, want := tr.Delete(k, rid), m.remove(k, rid); got != want {
						t.Fatalf("%s: Delete(%v,%d) = %v, want %v", sh.name, k, rid, got, want)
					}
				} else if got, want := tr.Insert(k, rid), m.insert(k, rid); got != want {
					t.Fatalf("%s: Insert(%v,%d) = %v, want %v", sh.name, k, rid, got, want)
				}
			}
			bounds := make([]Key, 6)
			for i := range bounds {
				bounds[i] = sh.bound(r)
			}
			checkAllRanges(t, tr, m, bounds)

			// Empty the head of the tree and a stretch in the middle.
			sorted := m.sorted()
			for i, e := range sorted {
				if i < len(sorted)/4 || (i >= len(sorted)/2 && i < len(sorted)*3/4) {
					if !tr.Delete(e.key, e.rid) || !m.remove(e.key, e.rid) {
						t.Fatalf("%s: bulk Delete(%v,%d) missed", sh.name, e.key, e.rid)
					}
				}
			}
			if tr.Len() != len(m) {
				t.Fatalf("%s: Len = %d, want %d", sh.name, tr.Len(), len(m))
			}
			if first := leftmost(tr); len(sorted) > 8*degree && len(first.keys) != 0 {
				t.Fatalf("%s: first leaf still holds %d entries; the test must exercise an empty first leaf", sh.name, len(first.keys))
			}
			// Bounds inside the deleted stretches as well as outside them.
			bounds = append(bounds[:0], sorted[0].key, sorted[len(sorted)/8].key, sorted[len(sorted)*5/8].key)
			for i := 0; i < 4; i++ {
				bounds = append(bounds, sh.bound(r))
			}
			checkAllRanges(t, tr, m, bounds)
		}
	}
}

func leftmost(tr *Tree) *node {
	n := tr.root
	for !n.leaf {
		n = n.children[0]
	}
	return n
}

// A prefix bound must find entries left of a separator that shares the
// prefix and carries row id 0 — the descent may not treat the bound as a
// (key, rid 0) pair.
func TestPrefixScanAcrossSeparatorWithRowIDZero(t *testing.T) {
	tr := New()
	m := refModel{}
	add := func(k Key, rid uint64) {
		tr.Insert(k, rid)
		m.insert(k, rid)
	}
	// (5,50)/0 goes in first, then degree/2 larger and degree/2 smaller keys:
	// the split lands exactly on it and makes it the root's separator.
	add(ik(5, 50), 0)
	for b := int64(1); b <= degree/2; b++ {
		add(ik(5, 50+b), uint64(b))
	}
	for b := int64(1); b <= degree/2; b++ {
		add(ik(5, 50-b), uint64(1000+b))
	}
	if sep := tr.root.keys[0]; tr.root.leaf || sep.rid != 0 || CompareKeys(sep.key, ik(5, 50)) != 0 {
		t.Fatalf("fixture: root separator is %v/%d, want (5,50)/0", sep.key, sep.rid)
	}
	add(ik(4, 0), 7)
	add(ik(6, 0), 8)
	checkAllRanges(t, tr, m, []Key{ik(5), ik(5, 50), ik(4), ik(6)})
	if got := lookup(tr, ik(5)); len(got) != 1+degree {
		t.Errorf("prefix lookup found %d entries, want %d", len(got), 1+degree)
	}
}

// FuzzScanBounds drives a tree and the sorted-slice reference with a fuzzed
// op tape (3 bytes per op: kind, a, b) and checks one fuzzed range — shape,
// nil-ness and inclusiveness of both bounds come from flags — through Scan
// and Descend.
func FuzzScanBounds(f *testing.F) {
	tape := func(n int, step byte) []byte {
		out := make([]byte, 0, 3*n)
		for i := 0; i < n; i++ {
			out = append(out, byte(i)%5, byte(i)*step, byte(i/7))
		}
		return out
	}
	f.Add([]byte{}, byte(0), byte(0), byte(0), byte(0), byte(0))
	f.Add(tape(40, 3), byte(2), byte(0), byte(9), byte(0), byte(0x03))
	f.Add(tape(400, 7), byte(10), byte(3), byte(10), byte(3), byte(0x03))   // point seek
	f.Add(tape(400, 7), byte(10), byte(0), byte(12), byte(0), byte(0x30))   // prefix bounds, exclusive
	f.Add(tape(600, 11), byte(0), byte(0), byte(200), byte(0), byte(0x0B))  // nil lo
	f.Add(tape(600, 11), byte(5), byte(1), byte(0), byte(0), byte(0x47))    // nil hi, string keys
	f.Add(tape(900, 13), byte(100), byte(2), byte(20), byte(1), byte(0x83)) // inverted range after bulk delete
	f.Fuzz(func(t *testing.T, ops []byte, loA, loB, hiA, hiB, flags byte) {
		str := flags&0x40 != 0
		mk := func(a, b byte, prefix bool) Key {
			if str {
				return Key{types.NewString(string([]byte{'a' + a%16, 'a' + b%4}))}
			}
			if prefix {
				return ik(int64(a % 32))
			}
			return ik(int64(a%32), int64(b%4))
		}
		tr := New()
		m := refModel{}
		for ; len(ops) >= 3; ops = ops[3:] {
			k, rid := mk(ops[1], ops[2], false), uint64(ops[2]%3)
			if ops[0]%5 == 0 {
				if tr.Delete(k, rid) != m.remove(k, rid) {
					t.Fatalf("Delete(%v,%d) disagrees with the reference", k, rid)
				}
			} else if tr.Insert(k, rid) != m.insert(k, rid) {
				t.Fatalf("Insert(%v,%d) disagrees with the reference", k, rid)
			}
		}
		if flags&0x80 != 0 { // empty the head of the tree
			sorted := m.sorted()
			for _, e := range sorted[:len(sorted)/2] {
				tr.Delete(e.key, e.rid)
				m.remove(e.key, e.rid)
			}
		}
		var lo, hi Key
		if flags&0x08 == 0 {
			lo = mk(loA, loB, flags&0x10 != 0)
		}
		if flags&0x04 == 0 {
			hi = mk(hiA, hiB, flags&0x20 != 0)
		}
		checkRange(t, tr, m.sorted(), lo, hi, flags&0x01 != 0, flags&0x02 != 0)
	})
}

// TestSeekZeroAlloc pins the seek itself: wrapping the bounds, the descent
// and the leaf walk of a point Scan and a one-step Descend stay on the stack.
func TestSeekZeroAlloc(t *testing.T) {
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
	first := func(Key, uint64) bool { found++; return false }
	allocs := testing.AllocsPerRun(100, func() {
		for i := int64(0); i < 256; i++ {
			key[0] = types.NewInt(i * 39)
			tr.Scan(key, key, true, true, fn)
			tr.Descend(nil, key, true, false, first)
		}
	})
	if found == 0 {
		t.Fatal("seeks found nothing")
	}
	if allocs != 0 {
		t.Errorf("256 point seeks and 256 descending steps allocate %.1f, want 0", allocs)
	}
}

func TestCompareKeys(t *testing.T) {
	if CompareKeys(ik(1, 2), ik(1, 3)) >= 0 {
		t.Error("lexicographic order wrong")
	}
	if CompareKeys(ik(1), ik(1, 5)) != 0 {
		t.Error("prefix should compare equal")
	}
	if CompareKeys(ik(2), ik(1, 5)) <= 0 {
		t.Error("prefix order wrong")
	}
}

func BenchmarkInsert(b *testing.B) {
	tr := New()
	for i := 0; i < b.N; i++ {
		tr.Insert(ik(int64(i)), uint64(i))
	}
}

func BenchmarkLookup(b *testing.B) {
	tr := New()
	for i := 0; i < 100000; i++ {
		tr.Insert(ik(int64(i)), uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lookup(tr, ik(int64(i%100000)))
	}
}
