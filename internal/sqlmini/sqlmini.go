// Package sqlmini is a minimal SQL layer over the scan engine: it parses the
// subset of SELECT the paper's workload uses (Table 1's Q1/Q2 and simple
// aggregates) and compiles it into a scanengine.Query.
//
// Grammar (case-insensitive keywords):
//
//	[EXPLAIN [ANALYZE]] SELECT select_list FROM ident
//	    [WHERE cond {AND cond}] [GROUP BY ident {',' ident}]
//	select_list := '*' | item {',' item}
//	item        := ident | agg
//	agg         := COUNT '(' '*' ')' | (SUM|MIN|MAX) '(' ident ')'
//	cond        := ident op literal
//	op          := '=' | '!=' | '<>' | '<' | '<=' | '>' | '>='
//	literal     := integer | 'single-quoted string' | :name (bind)
//
// The select list may mix grouping columns with any number of aggregates;
// every plain column must then appear in GROUP BY, and grouped statements
// compile into a scanengine hash GROUP BY (Result.Grouped).
//
// Binds are resolved from a parameter map at compile time, mirroring the
// paper's "SELECT * FROM C101_6P1M_HASH WHERE n1 = :1".
package sqlmini

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"dbimadg/internal/rowstore"
	"dbimadg/internal/scanengine"
)

// Bind is a bind-variable value (number or string).
type Bind struct {
	Num   int64
	Str   string
	IsStr bool
}

// NumBind builds a numeric bind value.
func NumBind(v int64) Bind { return Bind{Num: v} }

// StrBind builds a string bind value.
func StrBind(v string) Bind { return Bind{Str: v, IsStr: true} }

// AggItem is one parsed select-list aggregate.
type AggItem struct {
	Kind scanengine.AggKind
	Col  string // "" for COUNT(*)
}

// Statement is a parsed SELECT.
type Statement struct {
	TableName string
	Star      bool
	Columns   []string
	// Aggs is the select-list aggregate list.
	Aggs    []AggItem
	GroupBy []string
	Conds   []cond

	// Explain marks an EXPLAIN-prefixed statement: return the scan plan.
	// Analyze additionally executes the query and reports actuals
	// (EXPLAIN ANALYZE).
	Explain bool
	Analyze bool
}

type cond struct {
	col  string
	op   scanengine.CmpOp
	lit  string // raw literal or bind name (":x")
	isSQ bool   // single-quoted string literal
}

// tokenizer -------------------------------------------------------------------

type tokenizer struct {
	src  string
	pos  int
	toks []string
}

func tokenize(src string) ([]string, error) {
	var toks []string
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case unicode.IsSpace(rune(c)):
			i++
		case c == '\'':
			j := i + 1
			for j < len(src) && src[j] != '\'' {
				j++
			}
			if j >= len(src) {
				return nil, fmt.Errorf("sqlmini: unterminated string literal")
			}
			toks = append(toks, src[i:j+1])
			i = j + 1
		case strings.ContainsRune("(),*", rune(c)):
			toks = append(toks, string(c))
			i++
		case c == '<' || c == '>' || c == '!' || c == '=':
			if i+1 < len(src) && (src[i+1] == '=' || (c == '<' && src[i+1] == '>')) {
				toks = append(toks, src[i:i+2])
				i += 2
			} else {
				toks = append(toks, string(c))
				i++
			}
		case c == ':' || c == '_' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c)):
			j := i + 1
			for j < len(src) && (src[j] == '_' || src[j] == '.' || unicode.IsLetter(rune(src[j])) || unicode.IsDigit(rune(src[j]))) {
				j++
			}
			toks = append(toks, src[i:j])
			i = j
		default:
			return nil, fmt.Errorf("sqlmini: unexpected character %q", c)
		}
	}
	return toks, nil
}

// parser ----------------------------------------------------------------------

type parser struct {
	toks []string
	pos  int
}

func (p *parser) peek() string {
	if p.pos >= len(p.toks) {
		return ""
	}
	return p.toks[p.pos]
}

func (p *parser) next() string {
	t := p.peek()
	p.pos++
	return t
}

func (p *parser) expectKeyword(kw string) error {
	if !strings.EqualFold(p.peek(), kw) {
		return fmt.Errorf("sqlmini: expected %s, got %q", kw, p.peek())
	}
	p.pos++
	return nil
}

func (p *parser) expect(tok string) error {
	if p.peek() != tok {
		return fmt.Errorf("sqlmini: expected %q, got %q", tok, p.peek())
	}
	p.pos++
	return nil
}

// Parse parses a SELECT statement, optionally prefixed with
// EXPLAIN or EXPLAIN ANALYZE.
func Parse(src string) (*Statement, error) {
	toks, err := tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	st := &Statement{}
	if strings.EqualFold(p.peek(), "EXPLAIN") {
		st.Explain = true
		p.pos++
		if strings.EqualFold(p.peek(), "ANALYZE") {
			st.Analyze = true
			p.pos++
		}
	} else if strings.EqualFold(p.peek(), "ANALYZE") {
		return nil, fmt.Errorf("sqlmini: ANALYZE requires EXPLAIN (use EXPLAIN ANALYZE)")
	}
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	if err := p.parseSelectList(st); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	st.TableName = p.next()
	if st.TableName == "" {
		return nil, fmt.Errorf("sqlmini: missing table name")
	}
	if p.peek() != "" && !strings.EqualFold(p.peek(), "GROUP") {
		if err := p.expectKeyword("WHERE"); err != nil {
			return nil, err
		}
		for {
			if err := p.parseCond(st); err != nil {
				return nil, err
			}
			if !strings.EqualFold(p.peek(), "AND") {
				break
			}
			p.pos++
		}
	}
	if strings.EqualFold(p.peek(), "GROUP") {
		p.pos++
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			col := p.next()
			if col == "" || col == "," {
				return nil, fmt.Errorf("sqlmini: bad GROUP BY list")
			}
			st.GroupBy = append(st.GroupBy, col)
			if p.peek() != "," {
				break
			}
			p.pos++
		}
	}
	if p.peek() != "" {
		return nil, fmt.Errorf("sqlmini: trailing tokens at %q", p.peek())
	}
	if err := st.checkShape(); err != nil {
		return nil, err
	}
	return st, nil
}

// checkShape validates the select-list / GROUP BY combination once the whole
// statement is parsed.
func (st *Statement) checkShape() error {
	if len(st.GroupBy) > 0 && st.Star {
		return fmt.Errorf("sqlmini: SELECT * cannot be combined with GROUP BY")
	}
	if len(st.GroupBy) > 0 && len(st.Aggs) == 0 {
		return fmt.Errorf("sqlmini: GROUP BY requires an aggregate in the select list")
	}
	if len(st.Aggs) > 0 || len(st.GroupBy) > 0 {
		for _, col := range st.Columns {
			found := false
			for _, g := range st.GroupBy {
				if strings.EqualFold(col, g) {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("sqlmini: column %q must appear in GROUP BY", col)
			}
		}
	}
	return nil
}

var aggKeywords = map[string]scanengine.AggKind{
	"COUNT": scanengine.AggCount, "SUM": scanengine.AggSum,
	"MIN": scanengine.AggMin, "MAX": scanengine.AggMax,
}

func (p *parser) parseSelectList(st *Statement) error {
	if p.peek() == "*" {
		st.Star = true
		p.pos++
		return nil
	}
	for {
		if err := p.parseSelectItem(st); err != nil {
			return err
		}
		if p.peek() != "," {
			return nil
		}
		p.pos++
	}
}

// parseSelectItem parses one select-list entry: an aggregate when the token
// is an aggregate keyword followed by '(', otherwise a plain column name.
func (p *parser) parseSelectItem(st *Statement) error {
	t := p.peek()
	if t == "" || t == "," {
		return fmt.Errorf("sqlmini: bad select list")
	}
	kind, isAgg := aggKeywords[strings.ToUpper(t)]
	if isAgg && p.pos+1 < len(p.toks) && p.toks[p.pos+1] == "(" {
		p.pos += 2
		item := AggItem{Kind: kind}
		if kind == scanengine.AggCount {
			if err := p.expect("*"); err != nil {
				return err
			}
		} else {
			item.Col = p.next()
			if item.Col == "" || item.Col == ")" {
				return fmt.Errorf("sqlmini: bad select list")
			}
		}
		if err := p.expect(")"); err != nil {
			return err
		}
		st.Aggs = append(st.Aggs, item)
		return nil
	}
	st.Columns = append(st.Columns, p.next())
	return nil
}

var opMap = map[string]scanengine.CmpOp{
	"=": scanengine.EQ, "!=": scanengine.NE, "<>": scanengine.NE,
	"<": scanengine.LT, "<=": scanengine.LE, ">": scanengine.GT, ">=": scanengine.GE,
}

func (p *parser) parseCond(st *Statement) error {
	col := p.next()
	if col == "" {
		return fmt.Errorf("sqlmini: missing condition column")
	}
	op, ok := opMap[p.next()]
	if !ok {
		return fmt.Errorf("sqlmini: bad comparison operator in WHERE")
	}
	lit := p.next()
	if lit == "" {
		return fmt.Errorf("sqlmini: missing literal")
	}
	c := cond{col: col, op: op, lit: lit}
	if strings.HasPrefix(lit, "'") {
		c.isSQ = true
		c.lit = strings.Trim(lit, "'")
	}
	st.Conds = append(st.Conds, c)
	return nil
}

// Compile resolves the statement against a table's schema and binds, yielding
// an executable scanengine.Query.
func (st *Statement) Compile(tbl *rowstore.Table, binds map[string]Bind) (*scanengine.Query, error) {
	schema := tbl.Schema()
	q := &scanengine.Query{Table: tbl}
	if !st.Star && len(st.Aggs) == 0 {
		for _, name := range st.Columns {
			ci := schema.ColIndex(name)
			if ci < 0 {
				return nil, fmt.Errorf("sqlmini: no column %q", name)
			}
			q.Project = append(q.Project, ci)
		}
	}
	for _, a := range st.Aggs {
		spec := scanengine.AggSpec{Kind: a.Kind}
		if a.Col != "" {
			ci := schema.ColIndex(a.Col)
			if ci < 0 {
				return nil, fmt.Errorf("sqlmini: no aggregate column %q", a.Col)
			}
			spec.Col = ci
		}
		q.Aggs = append(q.Aggs, spec)
	}
	for _, name := range st.GroupBy {
		ci := schema.ColIndex(name)
		if ci < 0 {
			return nil, fmt.Errorf("sqlmini: no column %q", name)
		}
		q.GroupBy = append(q.GroupBy, ci)
	}
	for _, c := range st.Conds {
		ci := schema.ColIndex(c.col)
		if ci < 0 {
			return nil, fmt.Errorf("sqlmini: no column %q", c.col)
		}
		f := scanengine.Filter{Col: ci, Op: c.op}
		kind := schema.Col(ci).Kind
		switch {
		case strings.HasPrefix(c.lit, ":"):
			b, ok := binds[c.lit[1:]]
			if !ok {
				return nil, fmt.Errorf("sqlmini: missing bind %s", c.lit)
			}
			if b.IsStr != (kind == rowstore.KindVarchar) {
				return nil, fmt.Errorf("sqlmini: bind %s type mismatch for column %q", c.lit, c.col)
			}
			f.Num, f.Str = b.Num, b.Str
		case c.isSQ:
			if kind != rowstore.KindVarchar {
				return nil, fmt.Errorf("sqlmini: string literal for NUMBER column %q", c.col)
			}
			f.Str = c.lit
		default:
			if kind != rowstore.KindNumber {
				return nil, fmt.Errorf("sqlmini: numeric literal for VARCHAR2 column %q", c.col)
			}
			v, err := strconv.ParseInt(c.lit, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("sqlmini: bad numeric literal %q", c.lit)
			}
			f.Num = v
		}
		q.Filters = append(q.Filters, f)
	}
	return q, nil
}

// ParseAndCompile is the one-shot convenience used by examples.
func ParseAndCompile(src string, tbl *rowstore.Table, binds map[string]Bind) (*scanengine.Query, error) {
	st, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if !strings.EqualFold(st.TableName, tbl.Name) {
		return nil, fmt.Errorf("sqlmini: statement targets %q, got table %q", st.TableName, tbl.Name)
	}
	return st.Compile(tbl, binds)
}
