package memdb

import (
	"fmt"
	"strconv"
	"strings"
)

// The SQL subset: a lexer and recursive-descent parser for exactly the
// statements internal/sqlgen emits (plus the DDL/DML the mirror needs).
// Booleans are SQLite-style values — comparisons yield 1/0/NULL — so
// conditions and value expressions share one grammar and three-valued
// logic falls out of evaluation, not the parse.

type tokKind int

const (
	tEOF    tokKind = iota
	tWord           // bare identifier / keyword
	tQuoted         // "..." quoted identifier
	tString         // '...' string literal
	tNumber         // integer literal
	tPunct          // operators and delimiters
)

type token struct {
	kind tokKind
	text string
}

func lex(src string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == ';':
			i++
		case c == '"' || c == '\'':
			quote := c
			var b strings.Builder
			j := i + 1
			for {
				if j >= len(src) {
					return nil, fmt.Errorf("memdb: unterminated %c-quoted token at offset %d", quote, i)
				}
				if src[j] == quote {
					if j+1 < len(src) && src[j+1] == quote { // doubled quote
						b.WriteByte(quote)
						j += 2
						continue
					}
					j++
					break
				}
				b.WriteByte(src[j])
				j++
			}
			kind := tQuoted
			if quote == '\'' {
				kind = tString
			}
			toks = append(toks, token{kind, b.String()})
			i = j
		case c >= '0' && c <= '9':
			j := i
			for j < len(src) && src[j] >= '0' && src[j] <= '9' {
				j++
			}
			toks = append(toks, token{tNumber, src[i:j]})
			i = j
		case c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z'):
			j := i
			for j < len(src) && (src[j] == '_' || src[j] >= '0' && src[j] <= '9' ||
				src[j] >= 'a' && src[j] <= 'z' || src[j] >= 'A' && src[j] <= 'Z') {
				j++
			}
			toks = append(toks, token{tWord, src[i:j]})
			i = j
		default:
			if i+1 < len(src) {
				two := src[i : i+2]
				if two == "<>" || two == "<=" || two == ">=" || two == "!=" {
					toks = append(toks, token{tPunct, two})
					i += 2
					continue
				}
			}
			switch c {
			case '(', ')', ',', '.', '+', '-', '*', '=', '?', '<', '>':
				toks = append(toks, token{tPunct, string(c)})
				i++
			default:
				return nil, fmt.Errorf("memdb: unexpected character %q at offset %d", c, i)
			}
		}
	}
	return append(toks, token{tEOF, ""}), nil
}

// --- AST ---

type stmt interface{ isStmt() }

type createStmt struct {
	table string
	cols  []string
}

type dropStmt struct {
	table    string
	ifExists bool
}

type insertStmt struct {
	table string
	rows  [][]expr
}

type deleteStmt struct {
	table string
	where expr // nil = all rows
}

type selItem struct {
	star bool // "*" or "alias.*"
	e    expr
	name string // output column label
}

type orderItem struct {
	e    expr
	desc bool
}

type selectStmt struct {
	items   []selItem
	table   string
	alias   string
	where   expr
	groupBy []expr
	having  expr
	orderBy []orderItem
}

func (*createStmt) isStmt() {}
func (*dropStmt) isStmt()   {}
func (*insertStmt) isStmt() {}
func (*deleteStmt) isStmt() {}
func (*selectStmt) isStmt() {}

// Expressions. Values are nil (NULL), string, or int64; comparisons and
// logic yield int64 1 / int64 0 / nil.
type expr interface{ isExpr() }

type colRef struct {
	table string // optional alias qualifier
	col   string
}

type lit struct{ v any } // string or int64

type param struct{ n int } // 0-based placeholder ordinal

type binary struct {
	op   string // = <> < > <= >= + -
	l, r expr
}

type logic struct {
	and  bool // true: AND, false: OR
	l, r expr
}

type notExpr struct{ e expr }

type isNull struct {
	e   expr
	not bool
}

type existsExpr struct{ sel *selectStmt }

type caseExpr struct {
	whens []struct{ cond, then expr }
	els   expr // nil = NULL
}

type aggExpr struct {
	fn       string // count, min, max
	star     bool   // COUNT(*)
	distinct bool
	arg      expr
}

func (colRef) isExpr()      {}
func (lit) isExpr()         {}
func (param) isExpr()       {}
func (*binary) isExpr()     {}
func (*logic) isExpr()      {}
func (*notExpr) isExpr()    {}
func (*isNull) isExpr()     {}
func (*existsExpr) isExpr() {}
func (*caseExpr) isExpr()   {}
func (*aggExpr) isExpr()    {}

// --- parser ---

type parser struct {
	toks    []token
	pos     int
	nparams int
}

func parse(src string) (stmt, int, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, 0, err
	}
	p := &parser{toks: toks}
	s, err := p.statement()
	if err != nil {
		return nil, 0, err
	}
	if !p.atEOF() {
		return nil, 0, fmt.Errorf("memdb: trailing input after statement: %q", p.peek().text)
	}
	return s, p.nparams, nil
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) atEOF() bool { return p.peek().kind == tEOF }

// kw reports whether the next token is the given bare keyword
// (case-insensitive) and consumes it if so.
func (p *parser) kw(word string) bool {
	t := p.peek()
	if t.kind == tWord && strings.EqualFold(t.text, word) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectKw(word string) error {
	if !p.kw(word) {
		return fmt.Errorf("memdb: expected %s, got %q", word, p.peek().text)
	}
	return nil
}

func (p *parser) punct(sym string) bool {
	t := p.peek()
	if t.kind == tPunct && t.text == sym {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectPunct(sym string) error {
	if !p.punct(sym) {
		return fmt.Errorf("memdb: expected %q, got %q", sym, p.peek().text)
	}
	return nil
}

// ident accepts a quoted or bare identifier.
func (p *parser) ident() (string, error) {
	t := p.peek()
	if t.kind == tQuoted || t.kind == tWord {
		p.pos++
		return t.text, nil
	}
	return "", fmt.Errorf("memdb: expected identifier, got %q", t.text)
}

func (p *parser) statement() (stmt, error) {
	switch {
	case p.kw("select"):
		return p.selectRest()
	case p.kw("create"):
		return p.createRest()
	case p.kw("drop"):
		return p.dropRest()
	case p.kw("insert"):
		return p.insertRest()
	case p.kw("delete"):
		return p.deleteRest()
	}
	return nil, fmt.Errorf("memdb: unsupported statement starting at %q", p.peek().text)
}

func (p *parser) createRest() (stmt, error) {
	if err := p.expectKw("table"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	s := &createStmt{table: name}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		s.cols = append(s.cols, col)
		// Skip the type name (and any further bare words) up to , or ).
		for p.peek().kind == tWord {
			p.pos++
		}
		if p.punct(",") {
			continue
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return s, nil
	}
}

func (p *parser) dropRest() (stmt, error) {
	if err := p.expectKw("table"); err != nil {
		return nil, err
	}
	s := &dropStmt{}
	if p.kw("if") {
		if err := p.expectKw("exists"); err != nil {
			return nil, err
		}
		s.ifExists = true
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	s.table = name
	return s, nil
}

func (p *parser) insertRest() (stmt, error) {
	if err := p.expectKw("into"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("values"); err != nil {
		return nil, err
	}
	s := &insertStmt{table: name}
	for {
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		var row []expr
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if p.punct(",") {
				continue
			}
			break
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		s.rows = append(s.rows, row)
		if p.punct(",") {
			continue
		}
		return s, nil
	}
}

func (p *parser) deleteRest() (stmt, error) {
	if err := p.expectKw("from"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	s := &deleteStmt{table: name}
	if p.kw("where") {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		s.where = e
	}
	return s, nil
}

func (p *parser) selectRest() (*selectStmt, error) {
	s := &selectStmt{}
	for {
		item, err := p.selItem()
		if err != nil {
			return nil, err
		}
		s.items = append(s.items, item)
		if p.punct(",") {
			continue
		}
		break
	}
	if err := p.expectKw("from"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	s.table = name
	// Optional alias: a bare or quoted identifier that is not a clause
	// keyword.
	if t := p.peek(); t.kind == tQuoted ||
		t.kind == tWord && !isClauseKeyword(t.text) {
		s.alias = t.text
		p.pos++
	}
	if p.kw("where") {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		s.where = e
	}
	if p.kw("group") {
		if err := p.expectKw("by"); err != nil {
			return nil, err
		}
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			s.groupBy = append(s.groupBy, e)
			if p.punct(",") {
				continue
			}
			break
		}
	}
	if p.kw("having") {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		s.having = e
	}
	if p.kw("order") {
		if err := p.expectKw("by"); err != nil {
			return nil, err
		}
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			it := orderItem{e: e}
			if p.kw("desc") {
				it.desc = true
			} else {
				p.kw("asc")
			}
			s.orderBy = append(s.orderBy, it)
			if p.punct(",") {
				continue
			}
			break
		}
	}
	return s, nil
}

func isClauseKeyword(w string) bool {
	switch strings.ToLower(w) {
	case "where", "group", "having", "order", "from", "and", "or", "not", "on", "as":
		return true
	}
	return false
}

func (p *parser) selItem() (selItem, error) {
	if p.punct("*") {
		return selItem{star: true, name: "*"}, nil
	}
	// "alias.*"
	if t := p.peek(); (t.kind == tWord && !isClauseKeyword(t.text) || t.kind == tQuoted) &&
		p.toks[p.pos+1].kind == tPunct && p.toks[p.pos+1].text == "." &&
		p.toks[p.pos+2].kind == tPunct && p.toks[p.pos+2].text == "*" {
		p.pos += 3
		return selItem{star: true, name: "*"}, nil
	}
	e, err := p.expr()
	if err != nil {
		return selItem{}, err
	}
	item := selItem{e: e, name: exprLabel(e)}
	if p.kw("as") {
		n, err := p.ident()
		if err != nil {
			return selItem{}, err
		}
		item.name = n
	}
	return item, nil
}

func exprLabel(e expr) string {
	if c, ok := e.(colRef); ok {
		return c.col
	}
	return ""
}

// expr parses OR-precedence expressions.
func (p *parser) expr() (expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.kw("or") {
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = &logic{and: false, l: l, r: r}
	}
	return l, nil
}

func (p *parser) andExpr() (expr, error) {
	l, err := p.notTerm()
	if err != nil {
		return nil, err
	}
	for p.kw("and") {
		r, err := p.notTerm()
		if err != nil {
			return nil, err
		}
		l = &logic{and: true, l: l, r: r}
	}
	return l, nil
}

func (p *parser) notTerm() (expr, error) {
	if p.kw("not") {
		if p.kw("exists") {
			e, err := p.existsTail()
			if err != nil {
				return nil, err
			}
			return &notExpr{e: e}, nil
		}
		e, err := p.notTerm()
		if err != nil {
			return nil, err
		}
		return &notExpr{e: e}, nil
	}
	return p.comparison()
}

func (p *parser) comparison() (expr, error) {
	l, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tPunct {
			switch t.text {
			case "=", "<>", "!=", "<", ">", "<=", ">=":
				p.pos++
				r, err := p.addExpr()
				if err != nil {
					return nil, err
				}
				op := t.text
				if op == "!=" {
					op = "<>"
				}
				l = &binary{op: op, l: l, r: r}
				continue
			}
		}
		if t.kind == tWord && strings.EqualFold(t.text, "is") {
			p.pos++
			not := p.kw("not")
			if err := p.expectKw("null"); err != nil {
				return nil, err
			}
			l = &isNull{e: l, not: not}
			continue
		}
		return l, nil
	}
}

func (p *parser) addExpr() (expr, error) {
	l, err := p.primary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.punct("+"):
			r, err := p.primary()
			if err != nil {
				return nil, err
			}
			l = &binary{op: "+", l: l, r: r}
		case p.punct("-"):
			r, err := p.primary()
			if err != nil {
				return nil, err
			}
			l = &binary{op: "-", l: l, r: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) existsTail() (expr, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	if err := p.expectKw("select"); err != nil {
		return nil, err
	}
	sel, err := p.selectRest()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return &existsExpr{sel: sel}, nil
}

func (p *parser) primary() (expr, error) {
	t := p.peek()
	switch {
	case t.kind == tString:
		p.pos++
		return lit{v: t.text}, nil
	case t.kind == tNumber:
		p.pos++
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("memdb: bad number %q: %v", t.text, err)
		}
		return lit{v: n}, nil
	case t.kind == tPunct && t.text == "?":
		p.pos++
		e := param{n: p.nparams}
		p.nparams++
		return e, nil
	case t.kind == tPunct && t.text == "(":
		p.pos++
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.kind == tWord && strings.EqualFold(t.text, "null"):
		p.pos++
		return lit{v: nil}, nil
	case t.kind == tWord && strings.EqualFold(t.text, "exists"):
		p.pos++
		return p.existsTail()
	case t.kind == tWord && strings.EqualFold(t.text, "case"):
		p.pos++
		return p.caseTail()
	case t.kind == tWord && isAggName(t.text) &&
		p.toks[p.pos+1].kind == tPunct && p.toks[p.pos+1].text == "(":
		p.pos += 2
		return p.aggTail(strings.ToLower(t.text))
	case t.kind == tWord || t.kind == tQuoted:
		p.pos++
		if p.peek().kind == tPunct && p.peek().text == "." {
			p.pos++
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			return colRef{table: t.text, col: col}, nil
		}
		return colRef{col: t.text}, nil
	}
	return nil, fmt.Errorf("memdb: unexpected token %q in expression", t.text)
}

func isAggName(w string) bool {
	switch strings.ToLower(w) {
	case "count", "min", "max":
		return true
	}
	return false
}

func (p *parser) aggTail(fn string) (expr, error) {
	a := &aggExpr{fn: fn}
	if fn == "count" && p.punct("*") {
		a.star = true
		return a, p.expectPunct(")")
	}
	if p.kw("distinct") {
		a.distinct = true
	}
	e, err := p.expr()
	if err != nil {
		return nil, err
	}
	a.arg = e
	return a, p.expectPunct(")")
}

func (p *parser) caseTail() (expr, error) {
	c := &caseExpr{}
	for {
		if err := p.expectKw("when"); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("then"); err != nil {
			return nil, err
		}
		then, err := p.expr()
		if err != nil {
			return nil, err
		}
		c.whens = append(c.whens, struct{ cond, then expr }{cond, then})
		if p.peek().kind == tWord && strings.EqualFold(p.peek().text, "when") {
			continue
		}
		break
	}
	if p.kw("else") {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		c.els = e
	}
	return c, p.expectKw("end")
}
