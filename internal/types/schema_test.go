package types

import (
	"testing"
	"testing/quick"
)

func userSchema() *Schema {
	return NewSchema(
		Column{Qualifier: "users", Name: "id", Kind: KindInt},
		Column{Qualifier: "users", Name: "name", Kind: KindString},
		Column{Qualifier: "users", Name: "account", Kind: KindFloat},
	)
}

func TestSchemaColIndex(t *testing.T) {
	s := userSchema()
	for name, want := range map[string]int{
		"id": 0, "name": 1, "account": 2,
		"users.id": 0, "USERS.NAME": 1,
	} {
		got, err := s.ColIndex(name)
		if err != nil {
			t.Fatalf("ColIndex(%q): %v", name, err)
		}
		if got != want {
			t.Errorf("ColIndex(%q) = %d, want %d", name, got, want)
		}
	}
	if _, err := s.ColIndex("missing"); err == nil {
		t.Error("expected error for unknown column")
	}
	if _, err := s.ColIndex("orders.id"); err == nil {
		t.Error("expected error for wrong qualifier")
	}
}

func TestSchemaAmbiguity(t *testing.T) {
	s := userSchema().Concat(NewSchema(Column{Qualifier: "orders", Name: "id", Kind: KindInt}))
	if _, err := s.ColIndex("id"); err == nil {
		t.Error("bare 'id' should be ambiguous after join")
	}
	if i, err := s.ColIndex("orders.id"); err != nil || i != 3 {
		t.Errorf("orders.id = %d, %v; want 3, nil", i, err)
	}
}

func TestSchemaConcatProjectQualifier(t *testing.T) {
	s := userSchema()
	j := s.Concat(s.WithQualifier("u2"))
	if j.Len() != 6 {
		t.Fatalf("concat len = %d, want 6", j.Len())
	}
	if i := j.MustColIndex("u2.name"); i != 4 {
		t.Errorf("u2.name = %d, want 4", i)
	}
	p := j.Project([]int{4, 0})
	if p.Len() != 2 || p.Cols[0].Name != "name" || p.Cols[1].Name != "id" {
		t.Errorf("bad projection: %v", p)
	}
}

func TestEncodeKeyInjective(t *testing.T) {
	// ("a","bc") and ("ab","c") must not collide: lengths are encoded.
	k1 := EncodeKey(NewString("a"), NewString("bc"))
	k2 := EncodeKey(NewString("ab"), NewString("c"))
	if k1 == k2 {
		t.Error("EncodeKey collided on shifted strings")
	}
	if EncodeKey(NewInt(7)) != EncodeKey(NewFloat(7)) {
		t.Error("integral float should key like int (coerced join)")
	}
	if EncodeKey(NewInt(7)) == EncodeKey(NewInt(8)) {
		t.Error("distinct ints collided")
	}
}

func TestEncodeKeyProperty(t *testing.T) {
	f := func(a, b int64, s1, s2 string) bool {
		k1 := EncodeKey(NewInt(a), NewString(s1))
		k2 := EncodeKey(NewInt(b), NewString(s2))
		same := a == b && s1 == s2
		return (k1 == k2) == same
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRowCloneConcat(t *testing.T) {
	r := Row{NewInt(1), NewString("x")}
	c := r.Clone()
	c[0] = NewInt(9)
	if r[0].AsInt() != 1 {
		t.Error("Clone aliases the original")
	}
	j := r.Concat(Row{NewBool(true)})
	if len(j) != 3 || !j[2].AsBool() {
		t.Errorf("Concat = %v", j)
	}
	if r.String() != "[1, x]" {
		t.Errorf("Row.String() = %q", r.String())
	}
}

func TestRowCodecRoundTrip(t *testing.T) {
	rows := []Row{
		{},
		{Null},
		{NewInt(-5), NewFloat(2.25), NewString("héllo"), NewBool(true), Null},
		{NewString("")},
	}
	for _, r := range rows {
		enc := AppendRow(nil, r)
		dec, n, err := DecodeRow(enc)
		if err != nil {
			t.Fatalf("DecodeRow(%v): %v", r, err)
		}
		if n != len(enc) {
			t.Errorf("consumed %d of %d bytes", n, len(enc))
		}
		if len(dec) != len(r) {
			t.Fatalf("len mismatch: %d vs %d", len(dec), len(r))
		}
		for i := range r {
			if !dec[i].Equal(r[i]) || dec[i].K != r[i].K {
				t.Errorf("col %d: %v != %v", i, dec[i], r[i])
			}
		}
	}
}

func TestRowCodecProperty(t *testing.T) {
	f := func(i int64, fl float64, s string, b bool) bool {
		r := Row{NewInt(i), NewFloat(fl), NewString(s), NewBool(b)}
		enc := AppendRow(nil, r)
		dec, _, err := DecodeRow(enc)
		if err != nil || len(dec) != 4 {
			return false
		}
		return dec[0].Int == i && dec[1].AsFloat() == fl && dec[2].Str == s && dec[3].AsBool() == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeCorrupt(t *testing.T) {
	if _, _, err := DecodeValue(nil); err == nil {
		t.Error("empty input should error")
	}
	if _, _, err := DecodeValue([]byte{byte(KindInt), 1, 2}); err == nil {
		t.Error("short int should error")
	}
	if _, _, err := DecodeValue([]byte{200}); err == nil {
		t.Error("bad kind byte should error")
	}
	if _, _, err := DecodeRow([]byte{2, byte(KindNull)}); err == nil {
		t.Error("truncated row should error")
	}
}
