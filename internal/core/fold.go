// Result folding: activations with identical statement identity and bound
// parameters that land in the same generation collapse to one activation
// whose result fans out to every subscriber ("Pay One, Get Hundreds for
// Free"). The fold window is the pending queue — a request stops accepting
// subscribers the moment batch formation drafts it into a generation, so a
// subscriber always receives exactly the rows its own activation would
// have produced at that generation's snapshot.
//
// Behind the window, a drafted read folds into the last completed identical
// read when no commit since that read's snapshot has stamped its
// statement's read set: the rows it would produce now are the rows it
// produced then.
//
// Both live in one foldTable, one entry per fold identity. Fold identity is
// the statement handle plus bit-identical parameters: Prepare registers one
// handle per SQL text, so identical texts share a handle. The key (FNV-1a
// over the statement ID and each parameter's kind and bits) gives every
// identity its own entry — INT 1 and FLOAT 1.0, or 0.0 and -0.0, project
// differently and never share one — and the entry's handle and parameters
// are compared exactly, so a 64-bit collision just misses.
package core

import (
	"slices"
	"sync"

	"shareddb/internal/plan"
	"shareddb/internal/types"
)

// FNV-1a parameters, mirroring types.Value.Hash so the statement-ID mix
// and the per-parameter mixes compose into one stream.
const (
	foldFNVOffset64 = 14695981039346656037
	foldFNVPrime64  = 1099511628211
)

// foldFingerprint hashes a statement's ID together with the kind and bits
// of each bound parameter into the fold table's key. It is never 0, which
// marks a request that cannot fold.
func foldFingerprint(stmtID int, params []types.Value) uint64 {
	h := foldMix(foldFNVOffset64, uint64(stmtID))
	for _, p := range params {
		h = foldMix(foldMix(h, uint64(p.K)), uint64(p.Int))
		if p.K == types.KindString {
			h = foldMix(h, types.HashString(p.Str))
		}
	}
	return h | 1
}

// foldMix folds the eight bytes of u into the FNV-1a state h.
func foldMix(h, u uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= uint64(byte(u >> (8 * i)))
		h *= foldFNVPrime64
	}
	return h
}

// The memo's bound is in values, not entries: a completed read costs one
// value for itself plus one per parameter and per result value (rows ×
// projected columns), and the table keeps at most memoCap in all, so a few
// wide results pin no more memory than the same budget of narrow ones. A
// result costing over memoEntryCap is not kept; past memoCap, recording a
// read drops arbitrary entries' rows until it fits.
const (
	memoCap      = 1 << 18
	memoEntryCap = memoCap / 64
)

// foldTable holds one entry per fold identity, keyed by fingerprint. Its
// mutex guards the entries and their summed cost. It is taken after
// Engine.mu when both are held, and Engine.mu is never taken while holding
// it.
type foldTable struct {
	mu      sync.Mutex
	entries map[uint64]*foldEntry
	held    int // the entries' summed cost
}

// foldEntry is one fold identity: its statement and parameters, the lead
// queued in the fold window (nil once drafted), and the last completed
// read's rows, the snapshot they were read at and their cost against
// memoCap (0 when none are kept). An entry with neither lead nor rows
// goes, unless its drafted read has yet to record.
type foldEntry struct {
	stmt   *plan.Statement
	params []types.Value
	lead   *Request
	rows   []types.Row
	ts     uint64
	cost   int
}

// holds reports whether en is r's fold identity. Value == is bit identity,
// stricter than Value.Equal.
func (en *foldEntry) holds(r *Request) bool {
	return en.stmt == r.Stmt && slices.Equal(en.params, r.Params)
}

// entry returns r's entry, made if absent, or nil when r cannot fold or
// another identity holds r's key. Caller holds mu.
func (t *foldTable) entry(r *Request) *foldEntry {
	en := t.entries[r.fp]
	switch {
	case r.fp == 0 || en != nil && !en.holds(r):
		return nil
	case en == nil:
		en = &foldEntry{stmt: r.Stmt, params: slices.Clone(r.Params)}
		t.entries[r.fp] = en
	}
	return en
}

// join subscribes r's result to the queued lead of r's identity (true), or
// makes r that lead (false) unless another identity holds r's key. Caller
// holds Engine.mu, which guards a queued lead's subscribers.
func (t *foldTable) join(r *Request) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch en := t.entry(r); {
	case en == nil:
	case en.lead == nil:
		en.lead = r
	default:
		en.lead.subs = append(en.lead.subs, r.Result)
		r.Result.lead = en.lead
		return true
	}
	return false
}

// close ends the fold window of every lead in reqs: it takes no more
// subscribers. The entry of a drafted lead stays for its read to record;
// that of a vacated or rejected one goes unless it keeps rows.
func (t *foldTable) close(reqs []*Request, drafted bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range reqs {
		if en := t.entries[r.fp]; en != nil && en.lead == r {
			en.lead = nil
			if en.cost == 0 && !drafted {
				delete(t.entries, r.fp)
			}
		}
	}
}

// answer takes out of reads each one whose identity keeps rows no commit
// has stamped the read set of since, puts the rows on its result and
// returns it in reused. A stale entry lets go of its rows.
func (t *foldTable) answer(reads []*Request) (run, reused []*Request) {
	t.mu.Lock()
	defer t.mu.Unlock()
	run = reads[:0]
	for _, r := range reads {
		if en := t.entries[r.fp]; en != nil && en.cost > 0 && en.holds(r) {
			if !r.Stmt.ChangedSince(en.ts) {
				r.Result.Rows = en.rows
				reused = append(reused, r)
				continue
			}
			t.keep(r.fp, en, nil, 0, 0)
		}
		run = append(run, r)
	}
	return run, reused
}

// record keeps each executed read's rows at snapshot ts unless they cost
// over memoEntryCap; cols[i] holds the result of reads[i]. Past memoCap it
// lets go of arbitrary entries' rows.
func (t *foldTable) record(reads []*Request, ts uint64, cols []collector) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, r := range reads {
		en := t.entry(r)
		if en == nil {
			continue
		}
		rows := cols[i].rows
		cost := 1 + len(r.Params) + len(rows)*len(r.Stmt.Project)
		if cost > memoEntryCap {
			rows, cost = nil, 0
		}
		for fp, o := range t.entries {
			if t.held-en.cost+cost <= memoCap {
				break
			}
			if o != en {
				t.keep(fp, o, nil, 0, 0)
			}
		}
		t.keep(r.fp, en, rows, ts, cost)
	}
}

// keep makes rows, read at snapshot ts and costing cost, en's completed
// read; nil rows at cost 0 let go of it. An entry left with neither a
// completed read nor a queued lead goes. Caller holds mu.
func (t *foldTable) keep(fp uint64, en *foldEntry, rows []types.Row, ts uint64, cost int) {
	t.held += cost - en.cost
	en.rows, en.ts, en.cost = rows, ts, cost
	if en.lead == nil && cost == 0 {
		delete(t.entries, fp)
	}
}

// deliver completes res and then each of its fold subscribers that Abandon
// has not claimed with one outcome: rows of schema at snapshot ts, or err.
// Subscribers share the lead's row slice (results are materialized and
// read-only by contract — see Rows in the public API).
func deliver(res *Result, subs []*Result, rows []types.Row, schema *types.Schema, ts uint64, err error) {
	res.SnapshotTS = ts
	if err == nil {
		res.Rows, res.Schema = rows, schema
	}
	res.complete(err)
	for _, s := range subs {
		if s.claimed.CompareAndSwap(false, true) {
			deliver(s, nil, rows, schema, ts, err)
		}
	}
}

// waiting reports whether fold subscriber res still waits on its lead.
func waiting(res *Result) bool { return !res.claimed.Load() }

// Abandon detaches a waiter from its pending result (the context-aware
// API's cancellation path). A fold subscriber its lead has not delivered
// to yet is claimed here and completes immediately with err — the shared
// lead and its other subscribers are untouched. Any other pending request
// is marked abandoned: if it is still queued at the next batch formation
// it vacates the queue (freeing its queue-depth slot) without entering a
// generation; if it was already drafted it completes normally, unobserved.
// Returns true when the result was completed here (fold-subscriber case).
func (r *Result) Abandon(err error) bool {
	if r.lead != nil && r.claimed.CompareAndSwap(false, true) {
		r.complete(err)
		return true
	}
	r.abandoned.Store(true)
	return false
}
