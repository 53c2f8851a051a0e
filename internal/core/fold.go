// Result folding: activations with identical statement identity and bound
// parameters that land in the same generation collapse to one activation
// whose result fans out to every subscriber ("Pay One, Get Hundreds for
// Free"). The fold window is the pending queue — a request stops accepting
// subscribers the moment batch formation drafts it into a generation, so a
// subscriber always receives exactly the rows its own activation would
// have produced at that generation's snapshot.
//
// Behind the window, a drafted read folds into the last completed identical
// read (readMemo) when no commit since that read's snapshot has stamped its
// statement's read set: the rows it would produce now are the rows it
// produced then.
//
// Fold identity is the statement handle plus bit-identical parameters:
// Prepare registers one handle per SQL text, so identical texts share a
// handle. Two requests fold when their fingerprints match AND they carry
// the same handle and parameter values identical bit for bit. The
// fingerprint (FNV-1a over the statement ID mixed with each parameter's
// types.Value.Hash) is only a prefilter: Value.Hash is coercion-consistent
// (INT 1 and FLOAT 1.0 hash alike) but those parameters can project
// different output values, so the authoritative check compares parameter
// bit patterns exactly.
package core

import (
	"slices"
	"sync"

	"shareddb/internal/plan"
	"shareddb/internal/types"
)

// FNV-1a parameters, mirroring types.Value.Hash so the statement-ID mix
// and the per-parameter value mixes compose into one stream.
const (
	foldFNVOffset64 = 14695981039346656037
	foldFNVPrime64  = 1099511628211
)

// foldFingerprint hashes a statement's ID together with its bound
// parameters into the fold-index key. Collisions are harmless — fold
// candidates are verified by handle and exact parameter comparison — the
// fingerprint only bounds the search.
func foldFingerprint(stmtID int, params []types.Value) uint64 {
	h := foldMix(foldFNVOffset64, uint64(stmtID))
	for _, p := range params {
		h = foldMix(h, p.Hash())
	}
	return h
}

// foldMix folds the eight bytes of u into the FNV-1a state h.
func foldMix(h, u uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= uint64(byte(u >> (8 * i)))
		h *= foldFNVPrime64
	}
	return h
}

// fanout is the subscriber group attached to a fold lead. The engine
// creates one lazily when the first duplicate folds in.
type fanout struct {
	mu   sync.Mutex
	subs []*Result
	done bool
}

// attach subscribes res to the group. It fails (returns false) when the
// group has already completed — the caller must then fall back to a fresh
// submission.
func (f *fanout) attach(res *Result) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.done {
		return false
	}
	f.subs = append(f.subs, res)
	res.fold = f
	return true
}

// detach removes res from the group before completion; true means the
// caller now owns the result (the fanout will never touch it again).
func (f *fanout) detach(res *Result) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.done {
		return false
	}
	for i, s := range f.subs {
		if s == res {
			f.subs = append(f.subs[:i], f.subs[i+1:]...)
			return true
		}
	}
	return false
}

// empty reports whether the group has no subscribers left to serve.
func (f *fanout) empty() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.subs) == 0
}

// complete fans the lead's outcome out to every subscriber and seals the
// group against further attaches. Subscribers share the lead's row slice
// (results are materialized and read-only by contract — see Rows in the
// public API).
func (f *fanout) complete(lead *Result) {
	f.mu.Lock()
	f.done = true
	subs := f.subs
	f.subs = nil
	f.mu.Unlock()
	for _, res := range subs {
		res.SnapshotTS = lead.SnapshotTS
		if lead.Err == nil {
			res.Schema = lead.Schema
			res.Rows = lead.Rows
		}
		res.complete(lead.Err)
	}
}

// Abandon detaches a waiter from its pending result (the context-aware
// API's cancellation path). A fold subscriber detaches from its group and
// completes immediately with err — the shared lead and its other
// subscribers are untouched. Any other pending request is marked
// abandoned: if it is still queued at the next batch formation it vacates
// the queue (freeing its queue-depth slot) without entering a generation;
// if it was already drafted it completes normally, unobserved. Returns
// true when the result was completed here (fold-subscriber case).
func (r *Result) Abandon(err error) bool {
	if f := r.fold; f != nil && f.detach(r) {
		r.complete(err)
		return true
	}
	r.abandoned.Store(true)
	return false
}

// The memo's bound is in values, not entries: an entry costs one value for
// itself plus one per parameter and per result value (rows × projected
// columns), and the memo holds at most memoCap in all, so a few wide results
// pin no more memory than the same budget of narrow ones. A result costing
// over memoEntryCap is not kept; past memoCap, recording a read evicts
// arbitrary entries until it fits.
const (
	memoCap      = 1 << 18
	memoEntryCap = memoCap / 64
)

// memoEntry is a completed read: its statement, parameters and rows, the
// snapshot it ran at, and its cost against memoCap.
type memoEntry struct {
	stmt   *plan.Statement
	params []types.Value
	ts     uint64
	rows   []types.Row
	cost   int
}

// readMemo holds the last completed read per fold identity. The sink
// goroutine records and the dispatcher looks up, so it has its own lock.
type readMemo struct {
	mu      sync.Mutex
	entries map[uint64]memoEntry // by fold fingerprint; a collision overwrites
	held    int                  // the entries' summed cost
}

// lookup returns the rows of r's last identical read if no commit has
// stamped r's read set since that read's snapshot. A stale entry goes.
func (m *readMemo) lookup(r *Request) ([]types.Row, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	en, ok := m.entries[r.fp]
	if !ok || en.stmt != r.Stmt || !slices.Equal(en.params, r.Params) {
		return nil, false
	}
	if r.Stmt.ChangedSince(en.ts) {
		m.drop(r.fp)
		return nil, false
	}
	return en.rows, true
}

// record keeps each executed read's result at snapshot ts; cols[i] holds
// the result of reads[i].
func (m *readMemo) record(reads []*Request, ts uint64, cols []collector) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, r := range reads {
		m.drop(r.fp)
		rows := cols[i].rows
		cost := 1 + len(r.Params) + len(rows)*len(r.Stmt.Project)
		if cost > memoEntryCap {
			continue
		}
		for fp := range m.entries {
			if m.held+cost <= memoCap {
				break
			}
			m.drop(fp)
		}
		m.entries[r.fp] = memoEntry{stmt: r.Stmt, params: slices.Clone(r.Params), ts: ts, rows: rows, cost: cost}
		m.held += cost
	}
}

// drop removes the entry under fp, if any. Caller holds mu.
func (m *readMemo) drop(fp uint64) {
	if en, ok := m.entries[fp]; ok {
		m.held -= en.cost
		delete(m.entries, fp)
	}
}
