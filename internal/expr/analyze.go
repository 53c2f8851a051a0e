package expr

import "shareddb/internal/types"

// This file contains predicate analysis used by (a) the Crescando storage
// manager's ClockScan (storage.SharedScan), which indexes query
// predicates instead of data (paper §4.4) and evaluates them over the
// table's column mirror, and (b) index/access-path selection in both
// engines.

// Conjuncts flattens nested ANDs into a list of conjuncts. A nil expression
// yields an empty list.
func Conjuncts(e Expr) []Expr { return AppendConjuncts(nil, e) }

// AppendConjuncts appends e's conjuncts to dst, as Conjuncts lists them.
func AppendConjuncts(dst []Expr, e Expr) []Expr {
	if e == nil {
		return dst
	}
	if a, ok := e.(*And); ok {
		for _, k := range a.Kids {
			dst = AppendConjuncts(dst, k)
		}
		return dst
	}
	return append(dst, e)
}

// AndOf rebuilds a conjunction from parts (nil for empty, the sole element
// for singletons).
func AndOf(parts []Expr) Expr {
	switch len(parts) {
	case 0:
		return nil
	case 1:
		return parts[0]
	default:
		return &And{Kids: parts}
	}
}

// Bind returns a copy of e with every Param node replaced by the
// corresponding constant from params. The engine binds predicates at query
// activation time so that the storage layer can index them by value.
func Bind(e Expr, params []types.Value) Expr {
	if e == nil {
		return nil
	}
	switch n := e.(type) {
	case *ColRef, *Const:
		return e
	case *Param:
		return &Const{Val: n.Eval(nil, params)}
	case *Cmp:
		return &Cmp{Op: n.Op, L: Bind(n.L, params), R: Bind(n.R, params)}
	case *And:
		kids := make([]Expr, len(n.Kids))
		for i, k := range n.Kids {
			kids[i] = Bind(k, params)
		}
		return &And{Kids: kids}
	case *Or:
		kids := make([]Expr, len(n.Kids))
		for i, k := range n.Kids {
			kids[i] = Bind(k, params)
		}
		return &Or{Kids: kids}
	case *Not:
		return &Not{Kid: Bind(n.Kid, params)}
	case *Arith:
		return &Arith{Op: n.Op, L: Bind(n.L, params), R: Bind(n.R, params)}
	case *IsNull:
		return &IsNull{Kid: Bind(n.Kid, params), Negate: n.Negate}
	case *In:
		list := make([]Expr, len(n.List))
		for i, k := range n.List {
			list[i] = Bind(k, params)
		}
		return &In{L: Bind(n.L, params), List: list, Negate: n.Negate}
	case *Like:
		return &Like{L: Bind(n.L, params), Pattern: Bind(n.Pattern, params), Negate: n.Negate}
	default:
		return e
	}
}

// EqualityMatch recognizes a bound conjunct of the form col = const (or
// const = col) and returns the column index and constant: a PinOf whose
// operand is a constant.
func EqualityMatch(e Expr) (col int, val types.Value, ok bool) {
	col, operand, ok := PinOf(e)
	if k, isConst := operand.(*Const); ok && isConst {
		return col, k.Val, true
	}
	return 0, types.Null, false
}

// PinOf recognizes a conjunct that pins a column by equality: col = operand
// or operand = col, where operand is a constant or a statement parameter
// (still unbound at compile time).
func PinOf(e Expr) (col int, operand Expr, ok bool) {
	c, isCmp := e.(*Cmp)
	if !isCmp || c.Op != EQ {
		return 0, nil, false
	}
	if cr, o := c.L.(*ColRef); o && isPinOperand(c.R) {
		return cr.Idx, c.R, true
	}
	if cr, o := c.R.(*ColRef); o && isPinOperand(c.L) {
		return cr.Idx, c.L, true
	}
	return 0, nil, false
}

func isPinOperand(e Expr) bool {
	switch e.(type) {
	case *Const, *Param:
		return true
	}
	return false
}

// Pin is the conjunct that pins column Col: its position At in the
// predicate's Conjuncts and its Operand (a *Const or a *Param).
type Pin struct {
	Col, At int
	Operand Expr
}

// Pins are the pins of a predicate, one per pinned column.
type Pins []Pin

// PinsOf returns the pins of a predicate: for each column the first of its
// Conjuncts that pins it (PinOf) wins. Index probes and index edges in the
// planner, write-target resolution in storage and shard routing all take
// their equality keys from here, so they agree on the key a predicate
// pins. It inlines, so a caller's pins can stay on its stack.
func PinsOf(pred Expr) Pins { return appendPins(make(Pins, 0, 4), pred) }

func appendPins(pins Pins, pred Expr) Pins {
	for i, c := range Conjuncts(pred) {
		if col, operand, ok := PinOf(c); ok {
			if _, dup := pins.Of(col); !dup {
				pins = append(pins, Pin{Col: col, At: i, Operand: operand})
			}
		}
	}
	return pins
}

// Of returns the pin of column col.
func (p Pins) Of(col int) (Pin, bool) {
	for _, pin := range p {
		if pin.Col == col {
			return pin, true
		}
	}
	return Pin{}, false
}

// Operands returns the operands that pin cols, in order, or nil when a
// column of cols is not pinned.
func (p Pins) Operands(cols []int) []Expr {
	out := make([]Expr, len(cols))
	for i, c := range cols {
		pin, ok := p.Of(c)
		if !ok {
			return nil
		}
		out[i] = pin.Operand
	}
	return out
}

// Values returns the constants that pin cols, in order; ok is false when a
// column of cols is not pinned by a constant.
func (p Pins) Values(cols []int) (vals []types.Value, ok bool) {
	vals = make([]types.Value, len(cols))
	for i, c := range cols {
		pin, _ := p.Of(c)
		k, isConst := pin.Operand.(*Const)
		if !isConst {
			return nil, false
		}
		vals[i] = k.Val
	}
	return vals, true
}

// Range is a (possibly half-open) interval constraint on a column.
type Range struct {
	Col    int
	Lo, Hi types.Value // Null = unbounded
	LoIncl bool
	HiIncl bool
}

// Contains reports whether v lies within the range.
func (r Range) Contains(v types.Value) bool {
	if v.IsNull() {
		return false
	}
	if !r.Lo.IsNull() {
		d := v.Compare(r.Lo)
		if d < 0 || (d == 0 && !r.LoIncl) {
			return false
		}
	}
	if !r.Hi.IsNull() {
		d := v.Compare(r.Hi)
		if d > 0 || (d == 0 && !r.HiIncl) {
			return false
		}
	}
	return true
}

// RangeMatch recognizes a bound conjunct constraining a column by an
// inequality against a constant and returns it as a Range.
func RangeMatch(e Expr) (Range, bool) {
	c, isCmp := e.(*Cmp)
	if !isCmp {
		return Range{}, false
	}
	op := c.Op
	var colIdx int
	var k types.Value
	if cr, o := c.L.(*ColRef); o {
		cst, o2 := c.R.(*Const)
		if !o2 {
			return Range{}, false
		}
		colIdx, k = cr.Idx, cst.Val
	} else if cr, o := c.R.(*ColRef); o {
		cst, o2 := c.L.(*Const)
		if !o2 {
			return Range{}, false
		}
		colIdx, k = cr.Idx, cst.Val
		op = op.Flip()
	} else {
		return Range{}, false
	}
	switch op {
	case EQ:
		return Range{Col: colIdx, Lo: k, Hi: k, LoIncl: true, HiIncl: true}, true
	case LT:
		return Range{Col: colIdx, Hi: k}, true
	case LE:
		return Range{Col: colIdx, Hi: k, HiIncl: true}, true
	case GT:
		return Range{Col: colIdx, Lo: k}, true
	case GE:
		return Range{Col: colIdx, Lo: k, LoIncl: true}, true
	default:
		return Range{}, false
	}
}

// Columns returns the set of column indices referenced by e.
func Columns(e Expr) map[int]bool {
	out := map[int]bool{}
	var walk func(Expr)
	walk = func(e Expr) {
		if e == nil {
			return
		}
		switch n := e.(type) {
		case *ColRef:
			out[n.Idx] = true
		case *Cmp:
			walk(n.L)
			walk(n.R)
		case *And:
			for _, k := range n.Kids {
				walk(k)
			}
		case *Or:
			for _, k := range n.Kids {
				walk(k)
			}
		case *Not:
			walk(n.Kid)
		case *Arith:
			walk(n.L)
			walk(n.R)
		case *IsNull:
			walk(n.Kid)
		case *In:
			walk(n.L)
			for _, k := range n.List {
				walk(k)
			}
		case *Like:
			walk(n.L)
			walk(n.Pattern)
		}
	}
	walk(e)
	return out
}

// Remap returns a copy of e with every column index translated through
// mapping (old index → new index). Used when predicates are pushed through
// projections and joins. Unmapped columns panic: the planner must only
// remap predicates it proved moveable.
func Remap(e Expr, mapping map[int]int) Expr {
	return MapColumns(e, func(old int) int {
		idx, ok := mapping[old]
		if !ok {
			panic("expr: Remap with incomplete mapping")
		}
		return idx
	})
}

// MapColumns returns a copy of e with every column index translated by f.
// The shared plan uses it to rewrite expressions bound over a stream's
// logical schema onto the stream's physical (column-pruned) row layout.
func MapColumns(e Expr, f func(old int) int) Expr {
	if e == nil {
		return nil
	}
	mapAll := func(in []Expr) []Expr {
		out := make([]Expr, len(in))
		for i, k := range in {
			out[i] = MapColumns(k, f)
		}
		return out
	}
	switch n := e.(type) {
	case *ColRef:
		return &ColRef{Idx: f(n.Idx), Name: n.Name}
	case *Cmp:
		return &Cmp{Op: n.Op, L: MapColumns(n.L, f), R: MapColumns(n.R, f)}
	case *And:
		return &And{Kids: mapAll(n.Kids)}
	case *Or:
		return &Or{Kids: mapAll(n.Kids)}
	case *Not:
		return &Not{Kid: MapColumns(n.Kid, f)}
	case *Arith:
		return &Arith{Op: n.Op, L: MapColumns(n.L, f), R: MapColumns(n.R, f)}
	case *IsNull:
		return &IsNull{Kid: MapColumns(n.Kid, f), Negate: n.Negate}
	case *In:
		return &In{L: MapColumns(n.L, f), List: mapAll(n.List), Negate: n.Negate}
	case *Like:
		return &Like{L: MapColumns(n.L, f), Pattern: MapColumns(n.Pattern, f), Negate: n.Negate}
	default: // *Const, *Param
		return e
	}
}
