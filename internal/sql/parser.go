package sql

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"shareddb/internal/types"
)

// Parse parses one SQL statement.
func Parse(src string) (Statement, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: src}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	p.accept(tokOp, ";")
	if !p.at(tokEOF, "") {
		return nil, p.errf("unexpected trailing input %q", p.cur().text)
	}
	return stmt, nil
}

// NumParams returns the number of positional parameters in a parsed
// statement (the highest ParamRef index + 1).
func NumParams(stmt Statement) int {
	max := -1
	var walkNode func(Node)
	walkNode = func(n Node) {
		switch x := n.(type) {
		case nil:
		case *ParamRef:
			if x.Idx > max {
				max = x.Idx
			}
		case *BinOp:
			walkNode(x.L)
			walkNode(x.R)
		case *UnOp:
			walkNode(x.Kid)
		case *FuncCall:
			walkNode(x.Arg)
		case *LikeNode:
			walkNode(x.L)
			walkNode(x.Pattern)
		case *InNode:
			walkNode(x.L)
			for _, e := range x.List {
				walkNode(e)
			}
		case *IsNullNode:
			walkNode(x.L)
		case *BetweenNode:
			walkNode(x.L)
			walkNode(x.Lo)
			walkNode(x.Hi)
		}
	}
	switch s := stmt.(type) {
	case *SelectStmt:
		for _, it := range s.Items {
			walkNode(it.Expr)
		}
		for _, f := range s.From {
			walkNode(f.JoinOn)
		}
		walkNode(s.Where)
		for _, g := range s.GroupBy {
			walkNode(g)
		}
		walkNode(s.Having)
		for _, o := range s.OrderBy {
			walkNode(o.Expr)
		}
	case *InsertStmt:
		for _, v := range s.Values {
			walkNode(v)
		}
	case *UpdateStmt:
		for _, sc := range s.Set {
			walkNode(sc.Value)
		}
		walkNode(s.Where)
	case *DeleteStmt:
		walkNode(s.Where)
	}
	return max + 1
}

type parser struct {
	toks      []token
	pos       int
	src       string
	numParams int
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) peek() token { return p.toks[min(p.pos+1, len(p.toks)-1)] }

func (p *parser) at(k tokenKind, text string) bool {
	t := p.cur()
	return t.kind == k && (text == "" || t.text == text)
}

func (p *parser) accept(k tokenKind, text string) bool {
	if p.at(k, text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(k tokenKind, text string) (token, error) {
	t := p.cur()
	if !p.at(k, text) {
		want := text
		if want == "" {
			want = fmt.Sprintf("token kind %d", k)
		}
		return t, p.errf("expected %s, found %q", want, t.text)
	}
	p.pos++
	return t, nil
}

func (p *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("sql: parse error near position %d: %s", p.cur().pos, fmt.Sprintf(format, args...))
}

func (p *parser) parseStatement() (Statement, error) {
	switch {
	case p.at(tokKeyword, "SELECT"):
		return p.parseSelect()
	case p.at(tokKeyword, "INSERT"):
		return p.parseInsert()
	case p.at(tokKeyword, "UPDATE"):
		return p.parseUpdate()
	case p.at(tokKeyword, "DELETE"):
		return p.parseDelete()
	case p.at(tokKeyword, "CREATE"):
		return p.parseCreate()
	default:
		return nil, p.errf("expected statement, found %q", p.cur().text)
	}
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if _, err := p.expect(tokKeyword, "SELECT"); err != nil {
		return nil, err
	}
	s := &SelectStmt{Limit: -1}
	if p.accept(tokKeyword, "DISTINCT") {
		s.Distinct = true
	}
	// TOP n (TPC-W uses LIMIT; TOP supported as a convenience)
	if p.accept(tokKeyword, "TOP") {
		n, err := p.expect(tokNumber, "")
		if err != nil {
			return nil, err
		}
		limit, err := strconv.Atoi(n.text)
		if err != nil {
			return nil, p.errf("bad TOP count %q", n.text)
		}
		s.Limit = limit
	}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		s.Items = append(s.Items, item)
		if !p.accept(tokOp, ",") {
			break
		}
	}
	if _, err := p.expect(tokKeyword, "FROM"); err != nil {
		return nil, err
	}
	from, err := p.parseFrom()
	if err != nil {
		return nil, err
	}
	s.From = from
	if p.accept(tokKeyword, "WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Where = w
	}
	if p.accept(tokKeyword, "GROUP") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			g, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.GroupBy = append(s.GroupBy, g)
			if !p.accept(tokOp, ",") {
				break
			}
		}
	}
	if p.accept(tokKeyword, "HAVING") {
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Having = h
	}
	if p.accept(tokKeyword, "ORDER") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.accept(tokKeyword, "DESC") {
				item.Desc = true
			} else {
				p.accept(tokKeyword, "ASC")
			}
			s.OrderBy = append(s.OrderBy, item)
			if !p.accept(tokOp, ",") {
				break
			}
		}
	}
	if p.accept(tokKeyword, "LIMIT") {
		n, err := p.expect(tokNumber, "")
		if err != nil {
			return nil, err
		}
		limit, err := strconv.Atoi(n.text)
		if err != nil {
			return nil, p.errf("bad LIMIT %q", n.text)
		}
		s.Limit = limit
	}
	return s, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if p.accept(tokOp, "*") {
		return SelectItem{Star: true}, nil
	}
	// t.* form
	if p.at(tokIdent, "") && p.peek().kind == tokOp && p.peek().text == "." {
		save := p.pos
		qual := p.cur().text
		p.pos += 2
		if p.accept(tokOp, "*") {
			return SelectItem{Star: true, StarTable: qual}, nil
		}
		p.pos = save
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.accept(tokKeyword, "AS") {
		id, err := p.expect(tokIdent, "")
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = id.Name()
	} else if p.at(tokIdent, "") {
		item.Alias = p.cur().text
		p.pos++
	}
	return item, nil
}

func (p *parser) parseFrom() ([]TableRef, error) {
	var refs []TableRef
	first, err := p.parseTableRef()
	if err != nil {
		return nil, err
	}
	refs = append(refs, first)
	for {
		switch {
		case p.accept(tokOp, ","):
			r, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			refs = append(refs, r)
		case p.at(tokKeyword, "JOIN") || p.at(tokKeyword, "INNER") || p.at(tokKeyword, "LEFT"):
			// only inner-join semantics are implemented; LEFT parses but
			// binds as inner (documented limitation, unused by TPC-W)
			p.accept(tokKeyword, "INNER")
			p.accept(tokKeyword, "LEFT")
			if _, err := p.expect(tokKeyword, "JOIN"); err != nil {
				return nil, err
			}
			r, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokKeyword, "ON"); err != nil {
				return nil, err
			}
			cond, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			r.JoinOn = cond
			refs = append(refs, r)
		default:
			return refs, nil
		}
	}
}

func (p *parser) parseTableRef() (TableRef, error) {
	id, err := p.expect(tokIdent, "")
	if err != nil {
		return TableRef{}, err
	}
	ref := TableRef{Table: id.text}
	if p.accept(tokKeyword, "AS") {
		alias, err := p.expect(tokIdent, "")
		if err != nil {
			return TableRef{}, err
		}
		ref.Alias = alias.text
	} else if p.at(tokIdent, "") {
		ref.Alias = p.cur().text
		p.pos++
	}
	return ref, nil
}

func (p *parser) parseInsert() (*InsertStmt, error) {
	p.pos++ // INSERT
	if _, err := p.expect(tokKeyword, "INTO"); err != nil {
		return nil, err
	}
	tbl, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	s := &InsertStmt{Table: tbl.text}
	if p.accept(tokOp, "(") {
		for {
			c, err := p.expect(tokIdent, "")
			if err != nil {
				return nil, err
			}
			s.Columns = append(s.Columns, c.text)
			if !p.accept(tokOp, ",") {
				break
			}
		}
		if _, err := p.expect(tokOp, ")"); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(tokKeyword, "VALUES"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokOp, "("); err != nil {
		return nil, err
	}
	for {
		v, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Values = append(s.Values, v)
		if !p.accept(tokOp, ",") {
			break
		}
	}
	if _, err := p.expect(tokOp, ")"); err != nil {
		return nil, err
	}
	return s, nil
}

func (p *parser) parseUpdate() (*UpdateStmt, error) {
	p.pos++ // UPDATE
	tbl, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	s := &UpdateStmt{Table: tbl.text}
	if _, err := p.expect(tokKeyword, "SET"); err != nil {
		return nil, err
	}
	for {
		col, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokOp, "="); err != nil {
			return nil, err
		}
		v, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Set = append(s.Set, SetClause{Column: col.text, Value: v})
		if !p.accept(tokOp, ",") {
			break
		}
	}
	if p.accept(tokKeyword, "WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Where = w
	}
	return s, nil
}

func (p *parser) parseDelete() (*DeleteStmt, error) {
	p.pos++ // DELETE
	if _, err := p.expect(tokKeyword, "FROM"); err != nil {
		return nil, err
	}
	tbl, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	s := &DeleteStmt{Table: tbl.text}
	if p.accept(tokKeyword, "WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Where = w
	}
	return s, nil
}

func (p *parser) parseCreate() (Statement, error) {
	p.pos++ // CREATE
	unique := p.accept(tokKeyword, "UNIQUE")
	switch {
	case p.accept(tokKeyword, "TABLE"):
		if unique {
			return nil, p.errf("UNIQUE TABLE is not valid")
		}
		return p.parseCreateTable()
	case p.accept(tokKeyword, "INDEX"):
		return p.parseCreateIndex(unique)
	default:
		return nil, p.errf("expected TABLE or INDEX after CREATE")
	}
}

func (p *parser) parseCreateTable() (*CreateTableStmt, error) {
	tbl, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	s := &CreateTableStmt{Table: tbl.text}
	if _, err := p.expect(tokOp, "("); err != nil {
		return nil, err
	}
	for {
		if p.accept(tokKeyword, "PRIMARY") {
			if _, err := p.expect(tokKeyword, "KEY"); err != nil {
				return nil, err
			}
			if _, err := p.expect(tokOp, "("); err != nil {
				return nil, err
			}
			for {
				c, err := p.expect(tokIdent, "")
				if err != nil {
					return nil, err
				}
				s.Primary = append(s.Primary, c.text)
				if !p.accept(tokOp, ",") {
					break
				}
			}
			if _, err := p.expect(tokOp, ")"); err != nil {
				return nil, err
			}
		} else {
			name, err := p.expect(tokIdent, "")
			if err != nil {
				return nil, err
			}
			kind, err := p.parseType()
			if err != nil {
				return nil, err
			}
			s.Columns = append(s.Columns, ColumnDef{Name: name.text, Kind: kind})
		}
		if !p.accept(tokOp, ",") {
			break
		}
	}
	if _, err := p.expect(tokOp, ")"); err != nil {
		return nil, err
	}
	return s, nil
}

func (p *parser) parseType() (types.Kind, error) {
	t := p.cur()
	if t.kind != tokKeyword {
		return 0, p.errf("expected type name, found %q", t.text)
	}
	p.pos++
	var kind types.Kind
	switch t.text {
	case "INT", "INTEGER", "BIGINT":
		kind = types.KindInt
	case "FLOAT", "DOUBLE", "REAL":
		kind = types.KindFloat
	case "VARCHAR", "TEXT":
		kind = types.KindString
	case "BOOL", "BOOLEAN":
		kind = types.KindBool
	case "TIMESTAMP", "DATE":
		kind = types.KindTime
	default:
		return 0, p.errf("unknown type %q", t.text)
	}
	// optional length: VARCHAR(40)
	if p.accept(tokOp, "(") {
		if _, err := p.expect(tokNumber, ""); err != nil {
			return 0, err
		}
		if _, err := p.expect(tokOp, ")"); err != nil {
			return 0, err
		}
	}
	return kind, nil
}

func (p *parser) parseCreateIndex(unique bool) (*CreateIndexStmt, error) {
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "ON"); err != nil {
		return nil, err
	}
	tbl, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	s := &CreateIndexStmt{Name: name.text, Table: tbl.text, Unique: unique}
	if _, err := p.expect(tokOp, "("); err != nil {
		return nil, err
	}
	for {
		c, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		s.Columns = append(s.Columns, c.text)
		if !p.accept(tokOp, ",") {
			break
		}
	}
	if _, err := p.expect(tokOp, ")"); err != nil {
		return nil, err
	}
	return s, nil
}

// --- expressions ---

func (p *parser) parseExpr() (Node, error) { return p.parseOr() }

func (p *parser) parseOr() (Node, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyword, "OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &BinOp{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Node, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyword, "AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &BinOp{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Node, error) {
	if p.accept(tokKeyword, "NOT") {
		k, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnOp{Op: "NOT", Kid: k}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (Node, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	// postfix predicates
	negate := false
	if p.at(tokKeyword, "NOT") &&
		(p.peek().text == "LIKE" || p.peek().text == "IN" || p.peek().text == "BETWEEN") {
		p.pos++
		negate = true
	}
	switch {
	case p.accept(tokKeyword, "LIKE"):
		pat, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &LikeNode{L: l, Pattern: pat, Negate: negate}, nil
	case p.accept(tokKeyword, "IN"):
		if _, err := p.expect(tokOp, "("); err != nil {
			return nil, err
		}
		var list []Node
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if !p.accept(tokOp, ",") {
				break
			}
		}
		if _, err := p.expect(tokOp, ")"); err != nil {
			return nil, err
		}
		return &InNode{L: l, List: list, Negate: negate}, nil
	case p.accept(tokKeyword, "BETWEEN"):
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &BetweenNode{L: l, Lo: lo, Hi: hi, Negate: negate}, nil
	case p.accept(tokKeyword, "IS"):
		neg := p.accept(tokKeyword, "NOT")
		if _, err := p.expect(tokKeyword, "NULL"); err != nil {
			return nil, err
		}
		return &IsNullNode{L: l, Negate: neg}, nil
	}
	if negate {
		return nil, p.errf("dangling NOT")
	}
	for _, op := range []string{"<=", ">=", "<>", "!=", "=", "<", ">"} {
		if p.accept(tokOp, op) {
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			if op == "!=" {
				op = "<>"
			}
			return &BinOp{Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *parser) parseAdditive() (Node, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept(tokOp, "+"):
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = &BinOp{Op: "+", L: l, R: r}
		case p.accept(tokOp, "-"):
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = &BinOp{Op: "-", L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseMultiplicative() (Node, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept(tokOp, "*"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &BinOp{Op: "*", L: l, R: r}
		case p.accept(tokOp, "/"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &BinOp{Op: "/", L: l, R: r}
		case p.accept(tokOp, "%"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &BinOp{Op: "%", L: l, R: r}
		default:
			return l, nil
		}
	}
}

// parseUnary folds a minus into a numeric literal. An integer literal
// right after the minus is parsed with its sign, so the most negative INT,
// whose magnitude has no positive INT, can be written; negating it again
// is an overflow.
func (p *parser) parseUnary() (Node, error) {
	if p.accept(tokOp, "-") {
		if t := p.cur(); t.kind == tokNumber && !strings.Contains(t.text, ".") {
			if i, err := strconv.ParseInt("-"+t.text, 10, 64); err == nil {
				p.pos++
				return &Lit{Val: types.NewInt(i)}, nil
			}
		}
		k, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if lit, ok := k.(*Lit); ok {
			switch lit.Val.Kind() {
			case types.KindInt:
				if lit.Val.Int == math.MinInt64 {
					return nil, p.errf("integer overflow negating %d", lit.Val.Int)
				}
				return &Lit{Val: types.NewInt(-lit.Val.Int)}, nil
			case types.KindFloat:
				return &Lit{Val: types.NewFloat(-lit.Val.AsFloat())}, nil
			}
		}
		return &UnOp{Op: "-", Kid: k}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Node, error) {
	t := p.cur()
	switch {
	case t.kind == tokNumber:
		p.pos++
		if strings.Contains(t.text, ".") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, p.errf("bad number %q", t.text)
			}
			return &Lit{Val: types.NewFloat(f)}, nil
		}
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad number %q", t.text)
		}
		return &Lit{Val: types.NewInt(i)}, nil
	case t.kind == tokString:
		p.pos++
		return &Lit{Val: types.NewString(t.text)}, nil
	case t.kind == tokParam:
		p.pos++
		n := &ParamRef{Idx: p.numParams}
		p.numParams++
		return n, nil
	case t.kind == tokKeyword && t.text == "NULL":
		p.pos++
		return &Lit{Val: types.Null}, nil
	case t.kind == tokKeyword && t.text == "TRUE":
		p.pos++
		return &Lit{Val: types.NewBool(true)}, nil
	case t.kind == tokKeyword && t.text == "FALSE":
		p.pos++
		return &Lit{Val: types.NewBool(false)}, nil
	case t.kind == tokKeyword && isAggName(t.text):
		p.pos++
		if _, err := p.expect(tokOp, "("); err != nil {
			return nil, err
		}
		fc := &FuncCall{Name: t.text}
		if p.accept(tokOp, "*") {
			fc.Star = true
		} else {
			if p.accept(tokKeyword, "DISTINCT") {
				fc.Distinct = true
			}
			arg, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			fc.Arg = arg
		}
		if _, err := p.expect(tokOp, ")"); err != nil {
			return nil, err
		}
		return fc, nil
	case t.kind == tokIdent:
		p.pos++
		name := t.text
		if p.accept(tokOp, ".") {
			col, err := p.expect(tokIdent, "")
			if err != nil {
				return nil, err
			}
			name = name + "." + col.text
		}
		return &Ident{Name: name}, nil
	case p.accept(tokOp, "("):
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokOp, ")"); err != nil {
			return nil, err
		}
		return e, nil
	default:
		return nil, p.errf("expected expression, found %q", t.text)
	}
}

func isAggName(s string) bool {
	switch s {
	case "COUNT", "SUM", "MIN", "MAX", "AVG":
		return true
	}
	return false
}

// Name returns the token's identifier text (helper making alias parsing read
// naturally).
func (t token) Name() string { return t.text }
