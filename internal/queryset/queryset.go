// Package queryset implements the set-valued query_id attribute of
// SharedDB's data-query model (paper §3.1, Figure 1).
//
// Every intermediate tuple in a SharedDB plan carries the set of identifiers
// of queries potentially interested in it, so an operator touches each tuple
// once regardless of how many concurrent queries subscribed to it (the NF2
// representation on the right of Figure 1). The paper evaluated bitmap and
// list representations and chose sorted lists; Set is that list
// implementation.
//
// QueryIDs are generation-scoped: each engine generation numbers its
// queries densely from 1, which keeps sets small and lets operators use
// id-indexed slices. With pipelined generations the same ids are live in
// several generations at once — isolation comes from generation-tagged
// routing (every message and cycle carries its generation, and a cycle's
// edge query sets arrive with it), never from the id space itself.
package queryset

import (
	"sort"
	"strconv"
	"strings"
)

// QueryID identifies one active query within a batch generation.
type QueryID = uint32

// Set is an immutable sorted list of query identifiers. The zero value is
// the empty set. Sets are value types; operations write their result into a
// caller-owned buffer or arena and never mutate their receivers, so sets can
// be shared across tuples and operators without copying.
type Set struct {
	ids []QueryID // sorted ascending, no duplicates
}

// Of builds a set from the given ids (deduplicated, any order). Already
// sorted duplicate-free input — the common case when sets are assembled by
// in-order scans — takes a copy-only fast path.
func Of(ids ...QueryID) Set {
	if len(ids) == 0 {
		return Set{}
	}
	sorted := true
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			sorted = false
			break
		}
	}
	s := make([]QueryID, len(ids))
	copy(s, ids)
	if sorted {
		return Set{ids: s}
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	out := s[:1]
	for _, id := range s[1:] {
		if id != out[len(out)-1] {
			out = append(out, id)
		}
	}
	return Set{ids: out}
}

// FromSorted adopts a sorted, duplicate-free slice without copying.
// The caller must not modify the slice afterwards.
func FromSorted(ids []QueryID) Set { return Set{ids: ids} }

// Single returns the singleton set {id}.
func Single(id QueryID) Set { return Set{ids: []QueryID{id}} }

// Len returns the cardinality of the set.
func (s Set) Len() int { return len(s.ids) }

// Empty reports whether the set has no members.
func (s Set) Empty() bool { return len(s.ids) == 0 }

// Contains reports whether id is a member.
func (s Set) Contains(id QueryID) bool {
	// Sets are typically tiny (a handful of subscribed queries);
	// linear scan beats binary search until ~16 entries.
	if len(s.ids) <= 16 {
		for _, x := range s.ids {
			if x == id {
				return true
			}
			if x > id {
				return false
			}
		}
		return false
	}
	i := sort.Search(len(s.ids), func(i int) bool { return s.ids[i] >= id })
	return i < len(s.ids) && s.ids[i] == id
}

// IDs returns the members in ascending order. The returned slice is shared;
// callers must not modify it.
func (s Set) IDs() []QueryID { return s.ids }

// IntersectInto computes s ∩ o into dst (reusing dst's backing array) and
// returns the result as a Set aliasing dst. The returned set is valid only
// until the caller reuses dst. It serves the hot routing paths — the join's
// amended predicate R.query_id ∩ S.query_id ≠ ∅ (paper Figure 3) — where
// the result is consumed or copied into a longer-lived arena before the
// next call. dst may be nil (the first call then allocates; steady-state
// calls reuse the grown backing via IDs).
func (s Set) IntersectInto(o Set, dst []QueryID) Set {
	out := dst[:0]
	if s.Empty() || o.Empty() {
		return Set{ids: out}
	}
	if s.ids[len(s.ids)-1] < o.ids[0] || o.ids[len(o.ids)-1] < s.ids[0] {
		return Set{ids: out}
	}
	i, j := 0, 0
	for i < len(s.ids) && j < len(o.ids) {
		a, b := s.ids[i], o.ids[j]
		switch {
		case a < b:
			i++
		case a > b:
			j++
		default:
			out = append(out, a)
			i++
			j++
		}
	}
	return Set{ids: out}
}

// RetainInto computes the subset of s satisfying keep into dst (reusing
// dst's backing array), with the same validity contract as IntersectInto:
// per-tuple predicate routing (filters, sort Top-N cutoffs, index-join
// residuals) restricts a tuple's set to the queries whose predicate it
// passes.
func (s Set) RetainInto(keep func(QueryID) bool, dst []QueryID) Set {
	out := dst[:0]
	for _, id := range s.ids {
		if keep(id) {
			out = append(out, id)
		}
	}
	return Set{ids: out}
}

// Intersects reports whether s ∩ o is non-empty without materializing it.
func (s Set) Intersects(o Set) bool {
	if s.Empty() || o.Empty() {
		return false
	}
	if s.ids[len(s.ids)-1] < o.ids[0] || o.ids[len(o.ids)-1] < s.ids[0] {
		return false
	}
	i, j := 0, 0
	for i < len(s.ids) && j < len(o.ids) {
		a, b := s.ids[i], o.ids[j]
		switch {
		case a < b:
			i++
		case a > b:
			j++
		default:
			return true
		}
	}
	return false
}

// Arena is a bump allocator for query-id sets with a common lifetime: all
// sets created from one arena die together, at which point Reset reclaims
// the whole backing array at once. The routing hot path uses one arena per
// in-flight batch (internal/operators), so intersecting a tuple's set
// against an edge's active set allocates nothing in steady state — the ids
// land in the batch's arena and are recycled with it.
//
// Appending may grow the arena by allocating a fresh backing array;
// previously returned sets keep aliasing the old array (which stays alive
// through their references), so they remain valid until Reset. An Arena is
// single-owner: callers must not share one across goroutines without
// external synchronization (batch hand-off through SyncedQueue provides
// it).
type Arena struct {
	buf []QueryID
}

// Reset discards all sets allocated from the arena, keeping the (largest)
// backing array for reuse. Only call once every set previously returned by
// the arena is dead.
func (a *Arena) Reset() { a.buf = a.buf[:0] }

// Cap returns the arena's current backing capacity (diagnostics).
func (a *Arena) Cap() int { return cap(a.buf) }

// Intersect appends s ∩ o to the arena and returns the stored set. The
// returned set is capacity-clipped so later arena appends cannot write
// through it.
func (a *Arena) Intersect(s, o Set) Set {
	start := len(a.buf)
	if s.Empty() || o.Empty() {
		return Set{}
	}
	if s.ids[len(s.ids)-1] < o.ids[0] || o.ids[len(o.ids)-1] < s.ids[0] {
		return Set{}
	}
	i, j := 0, 0
	for i < len(s.ids) && j < len(o.ids) {
		x, y := s.ids[i], o.ids[j]
		switch {
		case x < y:
			i++
		case x > y:
			j++
		default:
			a.buf = append(a.buf, x)
			i++
			j++
		}
	}
	return Set{ids: a.buf[start:len(a.buf):len(a.buf)]}
}

// Append copies s into the arena and returns the stored copy.
func (a *Arena) Append(s Set) Set {
	if s.Empty() {
		return Set{}
	}
	start := len(a.buf)
	a.buf = append(a.buf, s.ids...)
	return Set{ids: a.buf[start:len(a.buf):len(a.buf)]}
}

// Equal reports set equality.
func (s Set) Equal(o Set) bool {
	if len(s.ids) != len(o.ids) {
		return false
	}
	for i := range s.ids {
		if s.ids[i] != o.ids[i] {
			return false
		}
	}
	return true
}

// String renders the set as "{1, 2, 3}".
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, id := range s.ids {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(strconv.FormatUint(uint64(id), 10))
	}
	b.WriteByte('}')
	return b.String()
}
