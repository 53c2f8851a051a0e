package operators

import (
	"slices"

	"shareddb/internal/storage"
	"shareddb/internal/types"
)

// Key order for the shared index join's probes (paper §4.4: a cycle's
// look-ups run back to back "for better instruction and data cache
// locality"). Sorting a batch's probe keys lets one B-tree cursor walk
// forward through neighbouring leaves instead of descending from the root
// once per tuple.

// probeKey is one probing tuple of a batch: its index in the batch and its
// run key — tuples with equal run keys next to each other seek once. On the
// radix path the run key is the probe key minus the batch minimum.
type probeKey struct {
	key uint32
	idx int32
}

// probeOrder is an index join's reusable sort scratch.
type probeOrder struct {
	a, tmp []probeKey
	radix  bool // the last call sorted: the order is ascending by probe key
}

// sort returns the tuples whose key columns are all non-NULL — NULL equals
// nothing, so the others never probe — in the order to seek them. A single
// key column holding one integer kind (INT, BOOL or TIME) across the batch,
// spanning less than 2³² after subtracting its minimum, is radix-sorted by
// key, ties in batch order. Any other batch stays in batch order (the
// cursor is correct in any key order), and only neighbours with identical
// key columns share a run. The result aliases the scratch and is valid
// until the next call.
func (p *probeOrder) sort(tuples []Tuple, cols []int) []probeKey {
	a := p.a[:0]
	fast := len(cols) == 1
	var kind types.Kind
	var lo, hi int64
	for ti := range tuples {
		row := tuples[ti].Row
		if hasNullKey(row, cols) {
			continue
		}
		if v := row[cols[0]]; fast {
			switch {
			case len(a) == 0:
				kind, lo, hi = v.K, v.Int, v.Int
				fast = kind == types.KindInt || kind == types.KindBool || kind == types.KindTime
			case v.K == kind:
				lo, hi = min(lo, v.Int), max(hi, v.Int)
			default:
				fast = false
			}
		}
		a = append(a, probeKey{idx: int32(ti)})
	}
	p.a = a
	span := uint64(hi) - uint64(lo)
	p.radix = fast && span < 1<<32
	if !p.radix {
		for i := 1; i < len(a); i++ {
			prev, row := tuples[a[i-1].idx].Row, tuples[a[i].idx].Row
			a[i].key = a[i-1].key
			for _, c := range cols {
				if prev[c] != row[c] {
					a[i].key++
					break
				}
			}
		}
		return a
	}
	if len(a) < 2 {
		return a
	}
	for i := range a {
		a[i].key = uint32(tuples[a[i].idx].Row[cols[0]].Int - lo)
	}
	p.tmp = slices.Grow(p.tmp[:0], len(a))[:len(a)]
	return radixSort(a, p.tmp, uint32(span))
}

// radixSort sorts a by key with a stable LSD radix sort, one 8-bit digit per
// pass and only as many passes as span has bytes, ping-ponging through tmp
// (len(tmp) == len(a)). It returns whichever of the two holds the result.
func radixSort(a, tmp []probeKey, span uint32) []probeKey {
	for shift := uint(0); shift < 32 && span>>shift != 0; shift += 8 {
		var count [256]int32
		for _, e := range a {
			count[byte(e.key>>shift)]++
		}
		var sum int32
		for d, n := range count {
			count[d] = sum
			sum += n
		}
		for _, e := range a {
			d := byte(e.key >> shift)
			tmp[count[d]] = e
			count[d]++
		}
		a, tmp = tmp, a
	}
	return a
}

// indexSeek is the shared index join's seek loop, run by IndexJoinOp over
// every outer batch and by SortOp over the rows a Top-N keeps. Its slices
// are scratch reused across calls.
type indexSeek struct {
	keyBuf []types.Value
	order  probeOrder  // the tuples' probes in key order
	rows   []types.Row // visible inner rows, one run after another
	spans  []rowSpan   // per tuple: its run's rows
}

// rowSpan is the [lo, hi) range of indexSeek.rows one probe key matched.
type rowSpan struct{ lo, hi int32 }

// run seeks the key columns cols of every tuple through cur — in ascending
// key order when they radix-sort, else in tuple order — once per run of
// equal keys, and collects each run's visible rows; a tuple with a NULL key
// column matches nothing and is never sought. Afterwards spans[i] is tuple
// i's matches in rows, in index order. The caller holds the table's read
// lock while it reads them, then calls done.
func (s *indexSeek) run(cur *storage.IndexCursor, tuples []Tuple, cols []int) {
	s.spans = slices.Grow(s.spans[:0], len(tuples))[:len(tuples)]
	clear(s.spans)
	order := s.order.sort(tuples, cols)
	if len(order) == 0 {
		return
	}
	if cap(s.keyBuf) < len(cols) {
		s.keyBuf = make([]types.Value, len(cols))
	}
	key := s.keyBuf[:len(cols)]
	collect := func(_ storage.RowID, row types.Row) bool {
		s.rows = append(s.rows, row)
		return true
	}
	for lo := 0; lo < len(order); {
		hi := lo + 1
		for hi < len(order) && order[hi].key == order[lo].key {
			hi++
		}
		first := tuples[order[lo].idx].Row
		for i, col := range cols {
			key[i] = first[col]
		}
		sp := rowSpan{lo: int32(len(s.rows))}
		cur.Seek(key, collect)
		sp.hi = int32(len(s.rows))
		for _, p := range order[lo:hi] {
			s.spans[p.idx] = sp
		}
		lo = hi
	}
}

// done drops the collected rows, keeping the capacity.
func (s *indexSeek) done() {
	clear(s.rows)
	s.rows = s.rows[:0]
}
