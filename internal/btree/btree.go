// Package btree implements the in-memory B+tree used by the Crescando
// storage manager for index probes and index nested-loop joins (paper §4.4:
// "we extended Crescando and implemented B-Tree indexes and index probe
// operators as an additional access path").
//
// The tree maps composite keys (one types.Value per indexed column) to row
// identifiers. Duplicate keys are allowed (non-unique indexes); the
// (key, rowID) pair is the unit of storage. Leaves are chained in both
// directions for ascending and descending range scans.
//
// Deletion removes entries from leaves without rebalancing: the tree never
// shrinks in height and a leaf may end up empty. This is a deliberate
// simplification — the workloads the engine targets are insert-heavy (TPC-W)
// and the MVCC storage layer retires whole index generations on checkpoint,
// at which point the index is rebuilt compactly. Correctness is unaffected
// and verified by property tests against a reference implementation.
package btree

import (
	"shareddb/internal/types"
)

// degree is the maximum number of entries per node (order of the tree).
const degree = 64

// Key is a composite index key: one value per indexed column.
type Key []types.Value

// CompareKeys orders two keys lexicographically over their common prefix.
// If the prefixes are equal the keys compare equal, regardless of length —
// this is what makes a short key usable as a prefix bound in Scan (e.g.
// scanning a two-column index for all entries with a given first column).
func CompareKeys(a, b Key) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if d := a[i].Compare(b[i]); d != 0 {
			return d
		}
	}
	return 0
}

// entry is one (key, rid) pair as stored in a node. The first key column's
// integer payload is cached beside the rid, so the common index shape — a
// leading INT or TIMESTAMP column — orders two entries without loading
// either key's backing array; every other shape falls through to
// CompareKeys. The layout is the same for every tree.
type entry struct {
	key  Key
	rid  uint64
	word int64 // key[0].Int when fast
	fast bool  // key[0] is INT, BOOL or TIME: orders against other fast entries by word
}

// makeEntry wraps key (not copied) with its cached leading word. Scan bounds
// and probe keys are wrapped the same way, with rid unused.
func makeEntry(key Key, rid uint64) entry {
	e := entry{key: key, rid: rid}
	if len(key) > 0 {
		switch key[0].K {
		case types.KindInt, types.KindBool, types.KindTime:
			e.word, e.fast = key[0].Int, true
		}
	}
	return e
}

// compareKey is CompareKeys(a.key, b.key): two integer-kinded leading values
// compare exactly as Value.Compare orders them (by Int, no float coercion),
// and the remaining columns keep the prefix semantics.
func (a *entry) compareKey(b *entry) int {
	if a.fast && b.fast {
		switch {
		case a.word < b.word:
			return -1
		case a.word > b.word:
			return 1
		}
		return CompareKeys(a.key[1:], b.key[1:])
	}
	return CompareKeys(a.key, b.key)
}

// before reports whether e sorts before bound by key alone (prefix
// semantics), or at it when incl; after is its mirror image.
func (e *entry) before(bound *entry, incl bool) bool {
	d := e.compareKey(bound)
	return d < 0 || (d == 0 && incl)
}

func (e *entry) after(bound *entry, incl bool) bool {
	d := e.compareKey(bound)
	return d > 0 || (d == 0 && incl)
}

// compare orders (key, rid) pairs totally: lexicographic key order with the
// row id as a tie-break. Full keys inside the tree always have the same
// length, so prefix semantics never apply here.
func (a *entry) compare(b *entry) int {
	if d := a.compareKey(b); d != 0 {
		return d
	}
	switch {
	case a.rid < b.rid:
		return -1
	case a.rid > b.rid:
		return 1
	default:
		return 0
	}
}

type node struct {
	// Internal nodes: len(children) == len(keys)+1; keys[i] is a lower bound
	// of the subtree children[i+1] (its smallest entry when the split made
	// it) and an upper bound of children[i].
	// Leaves: children == nil; entries sorted by (key, rid); next and prev
	// link the leaf chain in both directions.
	keys       []entry
	children   []*node
	next, prev *node
	leaf       bool
}

// Tree is a B+tree index. It is not safe for concurrent use on its own: the
// storage manager mutates it under the owning table's write lock and every
// reader traverses it under that table's read lock (generations pipeline, so
// reads and later generations' writes overlap in time).
type Tree struct {
	root *node
	size int
}

// New returns an empty tree.
func New() *Tree {
	return &Tree{root: &node{leaf: true}}
}

// Len returns the number of (key, rowID) entries.
func (t *Tree) Len() int { return t.size }

// Insert adds the (key, rid) pair. Inserting an exact duplicate pair is a
// no-op returning false.
func (t *Tree) Insert(key Key, rid uint64) bool {
	k := make(Key, len(key))
	copy(k, key)
	inserted, split, sepEntry, right := t.insert(t.root, makeEntry(k, rid))
	if split {
		newRoot := &node{
			keys:     []entry{sepEntry},
			children: []*node{t.root, right},
		}
		t.root = newRoot
	}
	if inserted {
		t.size++
	}
	return inserted
}

// insert returns (inserted, didSplit, separator, rightSibling).
func (t *Tree) insert(n *node, e entry) (bool, bool, entry, *node) {
	if n.leaf {
		i := n.lowerBound(&e)
		if i < len(n.keys) && n.keys[i].compare(&e) == 0 {
			return false, false, entry{}, nil
		}
		n.keys = append(n.keys, entry{})
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = e
		if len(n.keys) > degree {
			sep, right := n.splitLeaf()
			return true, true, sep, right
		}
		return true, false, entry{}, nil
	}
	ci := n.childIndex(&e)
	inserted, split, sep, right := t.insert(n.children[ci], e)
	if split {
		n.keys = append(n.keys, entry{})
		copy(n.keys[ci+1:], n.keys[ci:])
		n.keys[ci] = sep
		n.children = append(n.children, nil)
		copy(n.children[ci+2:], n.children[ci+1:])
		n.children[ci+1] = right
		if len(n.keys) > degree {
			sep2, right2 := n.splitInternal()
			return inserted, true, sep2, right2
		}
	}
	return inserted, false, entry{}, nil
}

// lowerBound returns the first position in a leaf whose (key, rid) >= e.
func (n *node) lowerBound(e *entry) int {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if n.keys[mid].compare(e) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// childIndex picks the subtree for the (key, rid) pair e in an internal node.
func (n *node) childIndex(e *entry) int {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if e.compare(&n.keys[mid]) < 0 {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

func (n *node) splitLeaf() (entry, *node) {
	mid := len(n.keys) / 2
	right := &node{leaf: true, next: n.next, prev: n}
	right.keys = append(right.keys, n.keys[mid:]...)
	n.keys = n.keys[:mid:mid]
	if n.next != nil {
		n.next.prev = right
	}
	n.next = right
	return right.keys[0], right
}

func (n *node) splitInternal() (entry, *node) {
	mid := len(n.keys) / 2
	sep := n.keys[mid]
	right := &node{}
	right.keys = append(right.keys, n.keys[mid+1:]...)
	right.children = append(right.children, n.children[mid+1:]...)
	n.keys = n.keys[:mid:mid]
	n.children = n.children[: mid+1 : mid+1]
	return sep, right
}

// Delete removes the (key, rid) pair, reporting whether it was present.
func (t *Tree) Delete(key Key, rid uint64) bool {
	e := makeEntry(key, rid)
	n := t.root
	for !n.leaf {
		n = n.children[n.childIndex(&e)]
	}
	i := n.lowerBound(&e)
	if i >= len(n.keys) || n.keys[i].compare(&e) != 0 {
		return false
	}
	copy(n.keys[i:], n.keys[i+1:])
	n.keys[len(n.keys)-1] = entry{}
	n.keys = n.keys[:len(n.keys)-1]
	t.size--
	return true
}

// SeekEQ invokes fn for every row id whose key equals key (prefix semantics:
// a short key matches all entries sharing that prefix). Iteration stops early
// if fn returns false.
func (t *Tree) SeekEQ(key Key, fn func(rid uint64) bool) {
	t.Scan(key, key, true, true, func(_ Key, rid uint64) bool { return fn(rid) })
}

// search returns the first position in ents (a node's keys, or a tail of
// them) whose key is >= bound, or > bound with afterEqual, comparing keys
// only (prefix semantics, no rid). In a leaf that is where a range starting
// (or, read backwards, ending) at the bound begins; in an internal node it
// is the child to descend into for that position: every separator left of
// it lies on the near side of the bound, and so does the whole subtree
// under each of them.
func search(ents []entry, bound *entry, afterEqual bool) int {
	lo, hi := 0, len(ents)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ents[mid].before(bound, afterEqual) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// seek binary-searches its way to the leaf position search describes. The
// position may be len(leaf.keys): deletes never rebalance, so the entry the
// bound points at can sit at the head of a later leaf.
func (t *Tree) seek(bound *entry, afterEqual bool) (*node, int) {
	n := t.root
	for !n.leaf {
		n = n.children[search(n.keys, bound, afterEqual)]
	}
	return n, search(n.keys, bound, afterEqual)
}

// Scan iterates entries in key order over [lo, hi] with per-bound
// inclusiveness; nil bounds are unbounded. Prefix semantics apply to both
// bounds. Iteration stops early if fn returns false.
//
// The start is binary-searched and lo is not looked at again; hi is tested
// once per leaf — when a leaf's last entry is inside the bound, so are all
// before it — and per entry only in the leaf where the range ends.
func (t *Tree) Scan(lo, hi Key, loIncl, hiIncl bool, fn func(key Key, rid uint64) bool) {
	var n *node
	i := 0
	if lo == nil {
		for n = t.root; !n.leaf; n = n.children[0] {
		}
	} else {
		b := makeEntry(lo, 0)
		n, i = t.seek(&b, !loIncl)
	}
	end := makeEntry(hi, 0)
	walk(n, i, &end, hiIncl, fn)
}

// walk yields the entries from position i of leaf n onwards, up to the
// bound end (unbounded when end.key is nil).
func walk(n *node, i int, end *entry, hiIncl bool, fn func(key Key, rid uint64) bool) {
	for ; n != nil; n, i = n.next, 0 {
		ents := n.keys[i:]
		if len(ents) == 0 {
			continue
		}
		whole := end.key == nil || ents[len(ents)-1].before(end, hiIncl)
		for j := range ents {
			e := &ents[j]
			if !whole && !e.before(end, hiIncl) {
				return
			}
			if !fn(e.key, e.rid) {
				return
			}
		}
	}
}

// Cursor runs a sequence of equality seeks over one tree; each Seek yields
// exactly what Scan(key, key, true, true, fn) yields. Fed keys in ascending
// order, a seek walks forward from the previous seek's start instead of
// descending from the root, so a batch of look-ups touches each leaf once,
// back to back (paper §4.4: "better instruction and data cache locality").
// Any key order is correct: a key that does not sort after the entry just
// before the previous start, or whose start lies more than maxHops leaves
// ahead, descends from the root. The tree must not change while a cursor is
// in use (callers hold the owning table's read lock across its seeks).
type Cursor struct {
	t   *Tree
	n   *node  // leaf of the previous seek's start; nil = descend from the root
	i   int    // the start's position in n (len(n.keys) when it lies in a later leaf)
	wit *entry // the last entry before the start; nil = no entry precedes it
}

// maxHops bounds how many leaves a seek walks forward before it gives up
// and descends from the root.
const maxHops = 2

// Cursor returns a cursor over t whose first seek descends from the root.
func (t *Tree) Cursor() Cursor { return Cursor{t: t} }

// Seek invokes fn for every entry whose key equals key (prefix semantics),
// in key order; iteration stops early if fn returns false.
func (c *Cursor) Seek(key Key, fn func(key Key, rid uint64) bool) {
	b := makeEntry(key, 0)
	n, i := c.advance(&b)
	if n == nil {
		n, i = c.descend(&b)
	}
	walk(n, i, &b, true, fn)
}

// advance finds bound's start by walking forward from the previous start.
// When the witness sorts before bound so does every entry up to it (the
// tree is sorted), so the start is the first entry after the witness that
// does not. A nil leaf means the root must be used.
func (c *Cursor) advance(bound *entry) (*node, int) {
	if c.n == nil || (c.wit != nil && !c.wit.before(bound, false)) {
		return nil, 0
	}
	n, i, wit := c.n, c.i, c.wit
	for hops := 0; ; hops++ {
		if k := len(n.keys); i < k {
			if !n.keys[k-1].before(bound, false) {
				i += search(n.keys[i:], bound, false)
				break
			}
			wit = &n.keys[k-1]
		}
		if n.next == nil { // past the last entry: the seek yields nothing
			i = len(n.keys)
			break
		}
		if hops == maxHops {
			return nil, 0
		}
		n, i = n.next, 0 // empty leaves left by deletes count as hops too
	}
	if i > 0 {
		wit = &n.keys[i-1]
	}
	c.n, c.i, c.wit = n, i, wit
	return n, i
}

// descend finds bound's start from the root. A start at the head of a leaf
// takes its witness from the previous leaf; when that leaf is empty the
// witness is unknown and the next seek descends too.
func (c *Cursor) descend(bound *entry) (*node, int) {
	n, i := c.t.seek(bound, false)
	c.n, c.i = n, i
	switch {
	case i > 0:
		c.wit = &n.keys[i-1]
	case n.prev == nil:
		c.wit = nil
	case len(n.prev.keys) > 0:
		c.wit = &n.prev.keys[len(n.prev.keys)-1]
	default:
		c.n = nil
	}
	return n, i
}

// Descend iterates the same range as Scan in descending key order: from the
// last entry inside hi back to the first entry inside lo.
func (t *Tree) Descend(lo, hi Key, loIncl, hiIncl bool, fn func(key Key, rid uint64) bool) {
	var n *node
	var i int
	if hi == nil {
		for n = t.root; !n.leaf; n = n.children[len(n.children)-1] {
		}
		i = len(n.keys)
	} else {
		b := makeEntry(hi, 0)
		n, i = t.seek(&b, hiIncl)
	}
	end := makeEntry(lo, 0)
	for n != nil {
		ents := n.keys[:i]
		if len(ents) > 0 {
			whole := lo == nil || ents[0].after(&end, loIncl)
			for j := len(ents) - 1; j >= 0; j-- {
				e := &ents[j]
				if !whole && !e.after(&end, loIncl) {
					return
				}
				if !fn(e.key, e.rid) {
					return
				}
			}
		}
		if n = n.prev; n != nil {
			i = len(n.keys)
		}
	}
}

// Height returns the tree height (1 for a lone leaf); used in tests.
func (t *Tree) Height() int {
	h, n := 1, t.root
	for !n.leaf {
		h++
		n = n.children[0]
	}
	return h
}
