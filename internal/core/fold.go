// Result folding: activations with identical statement identity and bound
// parameters that land in the same generation collapse to one activation
// whose result fans out to every subscriber ("Pay One, Get Hundreds for
// Free"). The fold window is the pending queue — a request stops accepting
// subscribers the moment batch formation drafts it into a generation, so a
// subscriber always receives exactly the rows its own activation would
// have produced at that generation's snapshot.
//
// Two requests fold when their fingerprints match AND their SQL text and
// parameter values are identical byte for byte. The fingerprint (FNV-1a
// over the SQL text mixed with each parameter's types.Value.Hash) is only
// a prefilter: Value.Hash is coercion-consistent (INT 1 and FLOAT 1.0
// hash alike) but those parameters can project different output values,
// so the authoritative check compares parameter bit patterns exactly.
//
// Subsumption-lite (Config.FoldSubsume) additionally lets a parameter-free
// simple scan serve its equality-restriction duplicates: when
// internal/expr analysis proves the lead's output covers every column the
// subscriber's predicate and projection touch, the subscriber's rows are a
// residual filter plus column projection over the lead's rows — same scan
// order, same snapshot, bit-identical to a private activation.
package core

import (
	"math"
	"sync"

	"shareddb/internal/expr"
	"shareddb/internal/plan"
	"shareddb/internal/types"
)

// FNV-1a parameters, mirroring types.Value.Hash so the statement-text mix
// and the per-parameter value mixes compose into one stream.
const (
	foldFNVOffset64 = 14695981039346656037
	foldFNVPrime64  = 1099511628211
)

// FoldFingerprint hashes a statement's identity (its SQL text) together
// with its bound parameters into the fold-index key. Collisions are
// harmless — fold candidates are verified by exact SQL and parameter
// comparison — the fingerprint only bounds the search.
func FoldFingerprint(sqlText string, params []types.Value) uint64 {
	h := uint64(foldFNVOffset64)
	for i := 0; i < len(sqlText); i++ {
		h ^= uint64(sqlText[i])
		h *= foldFNVPrime64
	}
	for _, p := range params {
		u := p.Hash()
		for i := 0; i < 8; i++ {
			h ^= uint64(byte(u >> (8 * i)))
			h *= foldFNVPrime64
		}
	}
	return h
}

// IdenticalParams reports whether two parameter lists are identical bit
// for bit. This is deliberately stricter than types.Value.Equal: Equal
// coerces numerics (INT 1 equals FLOAT 1.0) and would also let -0.0 fold
// into 0.0, but a projected parameter renders those differently — folding
// must never change a single output byte.
func IdenticalParams(a, b []types.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].K != b[i].K || a[i].Int != b[i].Int || a[i].Str != b[i].Str ||
			math.Float64bits(a[i].Float) != math.Float64bits(b[i].Float) {
			return false
		}
	}
	return true
}

// foldTransform rewrites a lead's result rows into a subsumed subscriber's
// result: a residual filter (the subscriber's bound predicate, remapped to
// the lead's output columns) followed by a projection by lead-output index.
type foldTransform struct {
	residual expr.Expr // nil = no residual (predicate fully satisfied)
	project  []int     // subscriber output i = lead output project[i]
	schema   *types.Schema
}

func (t *foldTransform) apply(rows []types.Row) []types.Row {
	var out []types.Row
	for _, r := range rows {
		if t.residual != nil && !t.residual.Eval(r, nil).AsBool() {
			continue
		}
		nr := make(types.Row, len(t.project))
		for i, idx := range t.project {
			nr[i] = r[idx]
		}
		out = append(out, nr)
	}
	return out
}

// foldSub is one fan-out subscriber: a pending result plus the transform
// (nil for identical-fingerprint folds, which share the lead's rows).
type foldSub struct {
	res *Result
	tr  *foldTransform
}

// Fanout is the subscriber group attached to a fold lead. The engine
// creates one lazily when the first duplicate folds in; the shard router
// creates one per pending cross-shard gather via NewFanout.
type Fanout struct {
	mu   sync.Mutex
	subs []foldSub
	done bool
}

// NewFanout returns an empty fan-out group for callers that drive
// completion outside an engine generation (the shard router's
// fold-before-scatter path).
func NewFanout() *Fanout { return &Fanout{} }

// Attach subscribes res to the group. It fails (returns false) when the
// group has already completed — the caller must then fall back to a fresh
// submission.
func (f *Fanout) Attach(res *Result) bool { return f.attach(res, nil) }

func (f *Fanout) attach(res *Result, tr *foldTransform) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.done {
		return false
	}
	f.subs = append(f.subs, foldSub{res: res, tr: tr})
	res.fold = f
	return true
}

// detach removes res from the group before completion; true means the
// caller now owns the result (the fanout will never touch it again).
func (f *Fanout) detach(res *Result) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.done {
		return false
	}
	for i, s := range f.subs {
		if s.res == res {
			f.subs = append(f.subs[:i], f.subs[i+1:]...)
			return true
		}
	}
	return false
}

// empty reports whether the group has no subscribers left to serve.
func (f *Fanout) empty() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.subs) == 0
}

// Complete fans the lead's outcome out to every subscriber and seals the
// group against further attaches. Identical-fold subscribers share the
// lead's row slice (results are materialized and read-only by contract —
// see Rows in the public API); subsumed subscribers get freshly built
// filtered/projected rows.
func (f *Fanout) Complete(lead *Result) { f.complete(lead) }

func (f *Fanout) complete(lead *Result) {
	f.mu.Lock()
	f.done = true
	subs := f.subs
	f.subs = nil
	f.mu.Unlock()
	for _, s := range subs {
		res := s.res
		res.SnapshotTS = lead.SnapshotTS
		if lead.Err == nil {
			if s.tr == nil {
				res.Schema = lead.Schema
				res.Rows = lead.Rows
			} else {
				res.Schema = s.tr.schema
				res.Rows = s.tr.apply(lead.Rows)
			}
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

// buildFoldTransform proves that lead — a parameter-free simple scan —
// covers sub with the given parameters, and builds the residual transform.
// Requirements (nil on any failure):
//   - both statements carry fold metadata for the same table (single
//     shared ClockScan, pure column projection, no DISTINCT/ORDER/LIMIT),
//     so both would emit rows in the same clock-scan order;
//   - every column sub projects appears in lead's output;
//   - every conjunct of sub's bound predicate is a provable equality
//     restriction (expr.EqualityMatch) on a column lead outputs.
func buildFoldTransform(lead, sub *plan.Statement, params []types.Value) *foldTransform {
	if lead.FoldTable == "" || lead.FoldPred != nil || lead.FoldTable != sub.FoldTable {
		return nil
	}
	out := make(map[int]int, len(lead.FoldCols))
	for i, c := range lead.FoldCols {
		if _, dup := out[c]; !dup {
			out[c] = i
		}
	}
	project := make([]int, len(sub.FoldCols))
	for i, c := range sub.FoldCols {
		idx, ok := out[c]
		if !ok {
			return nil
		}
		project[i] = idx
	}
	bound := expr.Bind(sub.FoldPred, params)
	mapping := make(map[int]int)
	for _, conj := range expr.Conjuncts(bound) {
		col, _, ok := expr.EqualityMatch(conj)
		if !ok {
			return nil
		}
		idx, covered := out[col]
		if !covered {
			return nil
		}
		mapping[col] = idx
	}
	return &foldTransform{
		residual: expr.Remap(bound, mapping),
		project:  project,
		schema:   sub.OutSchema,
	}
}
