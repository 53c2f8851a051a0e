package types

import (
	"fmt"
	"math"
	"strings"
)

// Column describes one attribute of a relation. Name may be qualified
// ("table.col"); Qualifier holds the table (or alias) part when present.
type Column struct {
	Qualifier string // table name or alias, may be empty
	Name      string // bare column name
	Kind      Kind
}

// QName returns the qualified name ("t.c") or the bare name if unqualified.
func (c Column) QName() string {
	if c.Qualifier == "" {
		return c.Name
	}
	return c.Qualifier + "." + c.Name
}

// Col is shorthand for an unqualified column definition.
func Col(name string, kind Kind) Column { return Column{Name: name, Kind: kind} }

// Schema is an ordered list of columns with name-based lookup.
type Schema struct {
	Cols []Column
}

// NewSchema builds a schema from columns.
func NewSchema(cols ...Column) *Schema {
	return &Schema{Cols: cols}
}

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.Cols) }

// ColIndex resolves a possibly-qualified column name to its index.
// A bare name matches any qualifier; "t.c" matches only columns with
// qualifier t. Returns an error when the name is unknown or ambiguous.
func (s *Schema) ColIndex(name string) (int, error) {
	qual, bare := "", name
	if i := strings.IndexByte(name, '.'); i >= 0 {
		qual, bare = name[:i], name[i+1:]
	}
	found := -1
	for i, c := range s.Cols {
		if !strings.EqualFold(c.Name, bare) {
			continue
		}
		if qual != "" && !strings.EqualFold(c.Qualifier, qual) {
			continue
		}
		if found >= 0 {
			return -1, fmt.Errorf("ambiguous column reference %q", name)
		}
		found = i
	}
	if found < 0 {
		return -1, fmt.Errorf("unknown column %q", name)
	}
	return found, nil
}

// MustColIndex is ColIndex for statically known-good names; it panics on
// resolution failure and is intended for tests and generated plans.
func (s *Schema) MustColIndex(name string) int {
	i, err := s.ColIndex(name)
	if err != nil {
		panic(err)
	}
	return i
}

// Concat returns the schema of a join result: the columns of s followed by
// the columns of o, qualifiers preserved.
func (s *Schema) Concat(o *Schema) *Schema {
	cols := make([]Column, 0, len(s.Cols)+len(o.Cols))
	cols = append(cols, s.Cols...)
	cols = append(cols, o.Cols...)
	return &Schema{Cols: cols}
}

// Project returns a schema containing the given column indices of s.
func (s *Schema) Project(idx []int) *Schema {
	cols := make([]Column, len(idx))
	for i, j := range idx {
		cols[i] = s.Cols[j]
	}
	return &Schema{Cols: cols}
}

// WithQualifier returns a copy of s with every column's qualifier replaced.
// Used when a table is aliased in a query ("FROM item i").
func (s *Schema) WithQualifier(q string) *Schema {
	cols := make([]Column, len(s.Cols))
	for i, c := range s.Cols {
		c.Qualifier = q
		cols[i] = c
	}
	return &Schema{Cols: cols}
}

// String renders the schema as "(a INT, b VARCHAR)".
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, c := range s.Cols {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.QName())
		b.WriteByte(' ')
		b.WriteString(c.Kind.String())
	}
	b.WriteByte(')')
	return b.String()
}

// Row is one tuple: a slice of values positionally aligned with a schema.
type Row []Value

// Clone returns a deep copy of the row (values are immutable, so a shallow
// copy of the slice suffices).
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Concat returns the concatenation of two rows (join result).
func (r Row) Concat(o Row) Row {
	out := make(Row, 0, len(r)+len(o))
	out = append(out, r...)
	out = append(out, o...)
	return out
}

// String renders the row for debugging.
func (r Row) String() string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = v.String()
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// EncodeKey builds a deterministic byte-string key from a list of values,
// suitable for use as a Go map key in hash joins and group-by tables.
// Distinct value lists produce distinct keys (values are length-prefixed),
// and numerically equal INT/FLOAT/BOOL/TIME values of the *same kind*
// produce equal keys.
func EncodeKey(vals ...Value) string {
	n := 0
	for _, v := range vals {
		n += 10 + len(v.Str)
	}
	b := make([]byte, 0, n)
	for _, v := range vals {
		b = append(b, byte(v.K))
		switch v.K {
		case KindNull:
		case KindInt, KindBool, KindTime:
			u := uint64(v.Int)
			for i := 0; i < 8; i++ {
				b = append(b, byte(u>>(8*i)))
			}
		case KindFloat:
			// Encode integral floats as their int64 image so INT and
			// FLOAT columns holding the same number join correctly.
			f := v.AsFloat()
			if f == float64(int64(f)) {
				b[len(b)-1] = byte(KindInt)
				u := uint64(int64(f))
				for i := 0; i < 8; i++ {
					b = append(b, byte(u>>(8*i)))
				}
			} else {
				u := math.Float64bits(f)
				for i := 0; i < 8; i++ {
					b = append(b, byte(u>>(8*i)))
				}
			}
		case KindString:
			l := uint32(len(v.Str))
			b = append(b, byte(l), byte(l>>8), byte(l>>16), byte(l>>24))
			b = append(b, v.Str...)
		}
	}
	return string(b)
}
