// Package testutil holds shared test helpers.
package testutil

import (
	"fmt"
	"sort"
	"strings"

	"shareddb/internal/types"
)

// CanonRows renders rows as a sorted multiset fingerprint for differential
// comparisons. Floats are rounded to 6 decimals — the rounding width is
// load-bearing: it absorbs the float-association differences between
// serial and cross-shard partial-sum aggregation, and every differential
// suite must use the same width.
func CanonRows(rows []types.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		parts := make([]string, len(r))
		for j, v := range r {
			if v.Kind() == types.KindFloat {
				parts[j] = fmt.Sprintf("%.6f", v.AsFloat())
			} else {
				parts[j] = v.String()
			}
		}
		out[i] = strings.Join(parts, "|")
	}
	sort.Strings(out)
	return out
}

// SameRows reports whether two result sets are equal as multisets under
// CanonRows.
func SameRows(a, b []types.Row) bool {
	ca, cb := CanonRows(a), CanonRows(b)
	if len(ca) != len(cb) {
		return false
	}
	for i := range ca {
		if ca[i] != cb[i] {
			return false
		}
	}
	return true
}
