// Package tpcw implements the TPC-W benchmark used in the paper's
// evaluation (§5): the full database schema, a scalable data generator, the
// prepared statements of the reference implementation, all 14 web
// interactions, the three workload mixes, and an emulated-browser driver
// measuring WIPS (web interactions per second) under the per-interaction
// response-time limits.
//
// Substitutions from the reference implementation are minimal: no web tier
// or images (the paper also bypassed them), scalar subqueries split into two
// statements (MAX(o_id) is fetched separately, preserving "analysis of the
// latest 3,333 orders"), and related-items use a single related column.
package tpcw

import (
	"fmt"

	"shareddb/internal/storage"
	"shareddb/internal/types"
)

// Scale configures the database population. The TPC-W scale drivers are the
// item count and the emulated-browser count; the remaining cardinalities
// follow the spec's ratios.
type Scale struct {
	Items     int // spec: 1k, 10k, 100k, ...
	Customers int // spec: 2880 per EB; scaled down for laptop runs
}

// DefaultScale is a laptop-sized population.
func DefaultScale() Scale { return Scale{Items: 1000, Customers: 1440} }

// Authors returns the author count (spec: items / 4).
func (s Scale) Authors() int { return max(s.Items/4, 10) }

// Orders returns the initial order count (spec: 0.9 × customers).
func (s Scale) Orders() int { return max(s.Customers*9/10, 10) }

// Addresses returns the address count (spec: 2 × customers).
func (s Scale) Addresses() int { return s.Customers * 2 }

// numCountries matches the TPC-W country table.
const numCountries = 92

// subjects are the 24 item subjects of the TPC-W specification.
var subjects = []string{
	"ARTS", "BIOGRAPHIES", "BUSINESS", "CHILDREN", "COMPUTERS", "COOKING",
	"HEALTH", "HISTORY", "HOME", "HUMOR", "LITERATURE", "MYSTERY",
	"NON-FICTION", "PARENTING", "POLITICS", "REFERENCE", "RELIGION",
	"ROMANCE", "SELF-HELP", "SCIENCE-NATURE", "SCIENCE-FICTION", "SPORTS",
	"YOUTH", "TRAVEL",
}

// Subjects returns the 24 TPC-W subjects.
func Subjects() []string { return subjects }

// CreateSchema creates the nine TPC-W base tables of the paper's global
// plan (Figure 6) plus CC_XACTS, with the indexes both engines use.
func CreateSchema(db *storage.Database) error {
	type tableDef struct {
		name    string
		cols    []types.Column
		pk      []string
		indexes [][]string
	}
	col := func(table, name string, k types.Kind) types.Column {
		return types.Column{Qualifier: table, Name: name, Kind: k}
	}
	defs := []tableDef{
		{
			name: "country",
			cols: []types.Column{
				col("country", "co_id", types.KindInt),
				col("country", "co_name", types.KindString),
				col("country", "co_exchange", types.KindFloat),
				col("country", "co_currency", types.KindString),
			},
			pk:      []string{"co_id"},
			indexes: [][]string{{"co_name"}},
		},
		{
			name: "address",
			cols: []types.Column{
				col("address", "addr_id", types.KindInt),
				col("address", "addr_street1", types.KindString),
				col("address", "addr_street2", types.KindString),
				col("address", "addr_city", types.KindString),
				col("address", "addr_state", types.KindString),
				col("address", "addr_zip", types.KindString),
				col("address", "addr_co_id", types.KindInt),
			},
			pk: []string{"addr_id"},
		},
		{
			name: "customer",
			cols: []types.Column{
				col("customer", "c_id", types.KindInt),
				col("customer", "c_uname", types.KindString),
				col("customer", "c_passwd", types.KindString),
				col("customer", "c_fname", types.KindString),
				col("customer", "c_lname", types.KindString),
				col("customer", "c_addr_id", types.KindInt),
				col("customer", "c_phone", types.KindString),
				col("customer", "c_email", types.KindString),
				col("customer", "c_since", types.KindTime),
				col("customer", "c_last_login", types.KindTime),
				col("customer", "c_login", types.KindTime),
				col("customer", "c_expiration", types.KindTime),
				col("customer", "c_discount", types.KindFloat),
				col("customer", "c_balance", types.KindFloat),
				col("customer", "c_ytd_pmt", types.KindFloat),
				col("customer", "c_birthdate", types.KindTime),
				col("customer", "c_data", types.KindString),
			},
			pk:      []string{"c_id"},
			indexes: [][]string{{"c_uname"}, {"c_addr_id"}},
		},
		{
			name: "orders",
			cols: []types.Column{
				col("orders", "o_id", types.KindInt),
				col("orders", "o_c_id", types.KindInt),
				col("orders", "o_date", types.KindTime),
				col("orders", "o_sub_total", types.KindFloat),
				col("orders", "o_tax", types.KindFloat),
				col("orders", "o_total", types.KindFloat),
				col("orders", "o_ship_type", types.KindString),
				col("orders", "o_ship_date", types.KindTime),
				col("orders", "o_bill_addr_id", types.KindInt),
				col("orders", "o_ship_addr_id", types.KindInt),
				col("orders", "o_status", types.KindString),
			},
			pk:      []string{"o_id"},
			indexes: [][]string{{"o_c_id"}},
		},
		{
			name: "order_line",
			cols: []types.Column{
				col("order_line", "ol_id", types.KindInt),
				col("order_line", "ol_o_id", types.KindInt),
				col("order_line", "ol_i_id", types.KindInt),
				col("order_line", "ol_qty", types.KindInt),
				col("order_line", "ol_discount", types.KindFloat),
				col("order_line", "ol_comments", types.KindString),
			},
			pk:      []string{"ol_id"},
			indexes: [][]string{{"ol_o_id"}, {"ol_i_id"}},
		},
		{
			name: "cc_xacts",
			cols: []types.Column{
				col("cc_xacts", "cx_o_id", types.KindInt),
				col("cc_xacts", "cx_type", types.KindString),
				col("cc_xacts", "cx_num", types.KindString),
				col("cc_xacts", "cx_name", types.KindString),
				col("cc_xacts", "cx_expire", types.KindTime),
				col("cc_xacts", "cx_auth_id", types.KindString),
				col("cc_xacts", "cx_xact_amt", types.KindFloat),
				col("cc_xacts", "cx_xact_date", types.KindTime),
				col("cc_xacts", "cx_co_id", types.KindInt),
			},
			pk: []string{"cx_o_id"},
		},
		{
			name: "item",
			cols: []types.Column{
				col("item", "i_id", types.KindInt),
				col("item", "i_title", types.KindString),
				col("item", "i_a_id", types.KindInt),
				col("item", "i_pub_date", types.KindTime),
				col("item", "i_publisher", types.KindString),
				col("item", "i_subject", types.KindString),
				col("item", "i_desc", types.KindString),
				col("item", "i_related1", types.KindInt),
				col("item", "i_thumbnail", types.KindString),
				col("item", "i_image", types.KindString),
				col("item", "i_srp", types.KindFloat),
				col("item", "i_cost", types.KindFloat),
				col("item", "i_avail", types.KindTime),
				col("item", "i_stock", types.KindInt),
				col("item", "i_isbn", types.KindString),
				col("item", "i_page", types.KindInt),
				col("item", "i_backing", types.KindString),
				col("item", "i_dimensions", types.KindString),
			},
			pk:      []string{"i_id"},
			indexes: [][]string{{"i_subject"}, {"i_a_id"}, {"i_title"}},
		},
		{
			name: "author",
			cols: []types.Column{
				col("author", "a_id", types.KindInt),
				col("author", "a_fname", types.KindString),
				col("author", "a_lname", types.KindString),
				col("author", "a_mname", types.KindString),
				col("author", "a_dob", types.KindTime),
				col("author", "a_bio", types.KindString),
			},
			pk:      []string{"a_id"},
			indexes: [][]string{{"a_lname"}},
		},
		{
			name: "shopping_cart",
			cols: []types.Column{
				col("shopping_cart", "sc_id", types.KindInt),
				col("shopping_cart", "sc_time", types.KindTime),
			},
			pk: []string{"sc_id"},
		},
		{
			name: "shopping_cart_line",
			cols: []types.Column{
				col("shopping_cart_line", "scl_sc_id", types.KindInt),
				col("shopping_cart_line", "scl_qty", types.KindInt),
				col("shopping_cart_line", "scl_i_id", types.KindInt),
			},
			pk: []string{"scl_sc_id", "scl_i_id"},
		},
	}
	for _, d := range defs {
		t, err := db.CreateTable(d.name, types.NewSchema(d.cols...))
		if err != nil {
			return err
		}
		if _, err := t.SetPrimaryKey(d.pk...); err != nil {
			return err
		}
		for _, ixCols := range d.indexes {
			name := fmt.Sprintf("ix_%s_%s", d.name, ixCols[0])
			if _, err := t.AddIndex(name, false, ixCols...); err != nil {
				return err
			}
		}
	}
	return nil
}
