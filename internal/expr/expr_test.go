package expr

import (
	"testing"
	"testing/quick"

	"shareddb/internal/types"
)

func col(i int) Expr               { return &ColRef{Idx: i} }
func lit(v types.Value) Expr       { return &Const{Val: v} }
func intv(i int64) types.Value     { return types.NewInt(i) }
func strv(s string) types.Value    { return types.NewString(s) }
func cmp(op CmpOp, l, r Expr) Expr { return &Cmp{Op: op, L: l, R: r} }

var row = types.Row{intv(10), strv("hello"), types.NewFloat(2.5), types.Null}

func TestCmpEval(t *testing.T) {
	tests := []struct {
		e    Expr
		want bool
	}{
		{cmp(EQ, col(0), lit(intv(10))), true},
		{cmp(NE, col(0), lit(intv(10))), false},
		{cmp(LT, col(0), lit(intv(11))), true},
		{cmp(GE, col(0), lit(intv(10))), true},
		{cmp(GT, col(2), lit(intv(2))), true},
		{cmp(EQ, col(1), lit(strv("hello"))), true},
		{cmp(LE, col(0), lit(types.NewFloat(10.0))), true},
	}
	for _, tt := range tests {
		if got := TruthyEval(tt.e, row, nil); got != tt.want {
			t.Errorf("%s = %v, want %v", tt.e, got, tt.want)
		}
	}
}

func TestNullPropagation(t *testing.T) {
	e := cmp(EQ, col(3), lit(intv(1)))
	if !e.Eval(row, nil).IsNull() {
		t.Error("NULL = 1 should be NULL")
	}
	if TruthyEval(e, row, nil) {
		t.Error("NULL predicate should be falsy")
	}
	isn := &IsNull{Kid: col(3)}
	if !TruthyEval(isn, row, nil) {
		t.Error("IS NULL failed")
	}
	notn := &IsNull{Kid: col(0), Negate: true}
	if !TruthyEval(notn, row, nil) {
		t.Error("IS NOT NULL failed")
	}
	// AND: false dominates NULL; OR: true dominates NULL
	f := lit(types.NewBool(false))
	tr := lit(types.NewBool(true))
	nl := col(3)
	if v := (&And{Kids: []Expr{f, nl}}).Eval(row, nil); v.IsNull() || v.AsBool() {
		t.Error("false AND NULL should be false")
	}
	if v := (&And{Kids: []Expr{tr, nl}}).Eval(row, nil); !v.IsNull() {
		t.Error("true AND NULL should be NULL")
	}
	if v := (&Or{Kids: []Expr{tr, nl}}).Eval(row, nil); v.IsNull() || !v.AsBool() {
		t.Error("true OR NULL should be true")
	}
	if v := (&Or{Kids: []Expr{f, nl}}).Eval(row, nil); !v.IsNull() {
		t.Error("false OR NULL should be NULL")
	}
}

func TestLogicAndNot(t *testing.T) {
	tr := cmp(EQ, col(0), lit(intv(10)))
	fa := cmp(EQ, col(0), lit(intv(11)))
	if !TruthyEval(&And{Kids: []Expr{tr, tr}}, row, nil) {
		t.Error("true AND true")
	}
	if TruthyEval(&And{Kids: []Expr{tr, fa}}, row, nil) {
		t.Error("true AND false")
	}
	if !TruthyEval(&Or{Kids: []Expr{fa, tr}}, row, nil) {
		t.Error("false OR true")
	}
	if TruthyEval(&Not{Kid: tr}, row, nil) {
		t.Error("NOT true")
	}
}

func TestArith(t *testing.T) {
	tests := []struct {
		op   ArithOp
		l, r types.Value
		want types.Value
	}{
		{Add, intv(2), intv(3), intv(5)},
		{Sub, intv(2), intv(3), intv(-1)},
		{Mul, intv(4), intv(3), intv(12)},
		{Div, intv(6), intv(3), intv(2)},
		{Div, intv(7), intv(2), types.NewFloat(3.5)},
		{Div, intv(7), intv(0), types.Null},
		{Mod, intv(7), intv(3), intv(1)},
		{Add, types.NewFloat(1.5), intv(1), types.NewFloat(2.5)},
	}
	for _, tt := range tests {
		got := (&Arith{Op: tt.op, L: lit(tt.l), R: lit(tt.r)}).Eval(nil, nil)
		if got.Kind() != tt.want.Kind() || !got.Equal(tt.want) && !tt.want.IsNull() {
			t.Errorf("%v %v %v = %v, want %v", tt.l, tt.op, tt.r, got, tt.want)
		}
	}
}

func TestParamAndBind(t *testing.T) {
	e := cmp(EQ, col(0), &Param{Idx: 0})
	params := []types.Value{intv(10)}
	if !TruthyEval(e, row, params) {
		t.Error("param eval failed")
	}
	bound := Bind(e, params)
	if !TruthyEval(bound, row, nil) {
		t.Error("bound expr should not need params")
	}
	// out-of-range param is NULL
	if !(&Param{Idx: 5}).Eval(nil, nil).IsNull() {
		t.Error("out-of-range param should be NULL")
	}
}

func TestIn(t *testing.T) {
	e := &In{L: col(0), List: []Expr{lit(intv(1)), lit(intv(10))}}
	if !TruthyEval(e, row, nil) {
		t.Error("IN failed")
	}
	n := &In{L: col(0), List: []Expr{lit(intv(1))}, Negate: true}
	if !TruthyEval(n, row, nil) {
		t.Error("NOT IN failed")
	}
}

func TestLike(t *testing.T) {
	tests := []struct {
		pattern, s string
		want       bool
	}{
		{"hello", "hello", true},
		{"hello", "hell", false},
		{"hel%", "hello", true},
		{"%llo", "hello", true},
		{"%ell%", "hello", true},
		{"%ell%", "help", false},
		{"h_llo", "hello", true},
		{"h_llo", "hallo", true},
		{"h_llo", "hllo", false},
		{"%", "", true},
		{"%", "anything", true},
		{"", "", true},
		{"", "x", false},
		{"a%b%c", "aXXbYYc", true},
		{"a%b%c", "acb", false},
		{"_%_", "ab", true},
		{"_%_", "a", false},
	}
	for _, tt := range tests {
		if got := MatchLike(tt.pattern, tt.s); got != tt.want {
			t.Errorf("MatchLike(%q, %q) = %v, want %v", tt.pattern, tt.s, got, tt.want)
		}
	}
	e := &Like{L: col(1), Pattern: lit(strv("he%"))}
	if !TruthyEval(e, row, nil) {
		t.Error("Like expr failed")
	}
	// re-evaluate with same compiled pattern (cache hit path)
	if !TruthyEval(e, row, nil) {
		t.Error("Like cache failed")
	}
	ne := &Like{L: col(1), Pattern: lit(strv("xx%")), Negate: true}
	if !TruthyEval(ne, row, nil) {
		t.Error("NOT LIKE failed")
	}
}

func TestConjuncts(t *testing.T) {
	a := cmp(EQ, col(0), lit(intv(1)))
	b := cmp(EQ, col(1), lit(strv("x")))
	c := cmp(GT, col(2), lit(intv(0)))
	e := &And{Kids: []Expr{a, &And{Kids: []Expr{b, c}}}}
	cs := Conjuncts(e)
	if len(cs) != 3 {
		t.Fatalf("Conjuncts len = %d, want 3", len(cs))
	}
	if Conjuncts(nil) != nil {
		t.Error("Conjuncts(nil) should be nil")
	}
	if AndOf(nil) != nil {
		t.Error("AndOf(nil)")
	}
	if AndOf([]Expr{a}) != a {
		t.Error("AndOf singleton")
	}
	if _, ok := AndOf(cs).(*And); !ok {
		t.Error("AndOf multi")
	}
}

func TestEqualityAndRangeMatch(t *testing.T) {
	e := cmp(EQ, col(2), lit(intv(5)))
	colIdx, v, ok := EqualityMatch(e)
	if !ok || colIdx != 2 || v.AsInt() != 5 {
		t.Errorf("EqualityMatch = %d, %v, %v", colIdx, v, ok)
	}
	// reversed operands
	e2 := cmp(EQ, lit(intv(5)), col(2))
	if _, _, ok := EqualityMatch(e2); !ok {
		t.Error("reversed equality not matched")
	}
	if _, _, ok := EqualityMatch(cmp(GT, col(0), lit(intv(1)))); ok {
		t.Error("GT should not match equality")
	}

	r, ok := RangeMatch(cmp(GT, col(1), lit(intv(7))))
	if !ok || r.Col != 1 || r.Lo.AsInt() != 7 || r.LoIncl || !r.Hi.IsNull() {
		t.Errorf("RangeMatch GT = %+v", r)
	}
	r, ok = RangeMatch(cmp(LE, col(1), lit(intv(7))))
	if !ok || !r.HiIncl || r.Hi.AsInt() != 7 {
		t.Errorf("RangeMatch LE = %+v", r)
	}
	// flipped: 7 < col means col > 7
	r, ok = RangeMatch(cmp(LT, lit(intv(7)), col(1)))
	if !ok || r.Lo.AsInt() != 7 || r.LoIncl {
		t.Errorf("flipped RangeMatch = %+v", r)
	}
	if !r.Contains(intv(8)) || r.Contains(intv(7)) || r.Contains(types.Null) {
		t.Error("Range.Contains wrong")
	}
}

func TestColumnsAndRemap(t *testing.T) {
	e := &And{Kids: []Expr{
		cmp(EQ, col(0), lit(intv(1))),
		&Like{L: col(2), Pattern: lit(strv("%x%"))},
	}}
	cols := Columns(e)
	if !cols[0] || !cols[2] || cols[1] {
		t.Errorf("Columns = %v", cols)
	}
	re := Remap(e, map[int]int{0: 5, 2: 6})
	cols = Columns(re)
	if !cols[5] || !cols[6] || cols[0] {
		t.Errorf("Remapped columns = %v", cols)
	}
}

func TestCmpOpHelpers(t *testing.T) {
	if EQ.Negate() != NE || LT.Negate() != GE || GT.Negate() != LE {
		t.Error("Negate wrong")
	}
	if LT.Flip() != GT || LE.Flip() != GE || EQ.Flip() != EQ {
		t.Error("Flip wrong")
	}
}

// Property: LIKE with a pattern equal to the string (no wildcards) always
// matches, and '%'+s+'%' always matches any superstring.
func TestLikeProperty(t *testing.T) {
	f := func(s, pre, post string) bool {
		if len(s) > 50 || len(pre) > 20 || len(post) > 20 {
			return true
		}
		clean := func(x string) string {
			out := []byte{}
			for i := 0; i < len(x); i++ {
				if x[i] != '%' && x[i] != '_' {
					out = append(out, x[i])
				}
			}
			return string(out)
		}
		cs := clean(s)
		return MatchLike(cs, cs) && MatchLike("%"+cs+"%", clean(pre)+cs+clean(post))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Bind(e, params) evaluated without params equals e evaluated with
// params, for a family of random comparison predicates.
func TestBindEquivalenceProperty(t *testing.T) {
	f := func(x, p int64, opIdx uint8) bool {
		op := CmpOp(opIdx % 6)
		e := cmp(op, col(0), &Param{Idx: 0})
		r := types.Row{intv(x)}
		params := []types.Value{intv(p)}
		return TruthyEval(e, r, params) == TruthyEval(Bind(e, params), r, nil)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
