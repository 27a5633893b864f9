package reldb

import (
	"fmt"
	"strconv"
	"strings"
)

// parser is a hand-written recursive-descent parser over the token stream.
type parser struct {
	toks []token
	pos  int
}

func parseSQL(input string) (statement, error) {
	toks, err := lexSQL(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var st statement
	switch {
	case p.acceptKeyword("CREATE"):
		st, err = p.parseCreateTable()
	case p.acceptKeyword("INSERT"):
		st, err = p.parseInsert()
	case p.acceptKeyword("SELECT"):
		st, err = p.parseSelect()
	default:
		return nil, fmt.Errorf("reldb: expected CREATE, INSERT or SELECT, got %q", p.peek().text)
	}
	if err != nil {
		return nil, err
	}
	p.acceptPunct(";")
	if p.peek().kind != tokEOF {
		return nil, fmt.Errorf("reldb: trailing input starting at %q", p.peek().text)
	}
	return st, nil
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) acceptKeyword(kw string) bool {
	if t := p.peek(); t.kind == tokKeyword && t.text == kw {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return fmt.Errorf("reldb: expected %s, got %q", kw, p.peek().text)
	}
	return nil
}

func (p *parser) acceptPunct(s string) bool {
	if t := p.peek(); t.kind == tokPunct && t.text == s {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectPunct(s string) error {
	if !p.acceptPunct(s) {
		return fmt.Errorf("reldb: expected %q, got %q", s, p.peek().text)
	}
	return nil
}

func (p *parser) expectIdent() (string, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return "", fmt.Errorf("reldb: expected identifier, got %q", t.text)
	}
	p.pos++
	return t.text, nil
}

// CREATE TABLE name (col TYPE [PRIMARY KEY] [NOT NULL] [REFERENCES t(c)], ...)
func (p *parser) parseCreateTable() (statement, error) {
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var cols []Column
	for {
		colName, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		typeName, err := p.expectIdent()
		if err != nil {
			return nil, fmt.Errorf("reldb: column %q: %w", colName, err)
		}
		kind, err := parseTypeName(typeName)
		if err != nil {
			return nil, err
		}
		col := Column{Name: colName, Type: kind}
		for {
			switch {
			case p.acceptKeyword("PRIMARY"):
				if err := p.expectKeyword("KEY"); err != nil {
					return nil, err
				}
				col.PrimaryKey = true
			case p.acceptKeyword("NOT"):
				if err := p.expectKeyword("NULL"); err != nil {
					return nil, err
				}
				col.NotNull = true
			case p.acceptKeyword("REFERENCES"):
				refTable, err := p.expectIdent()
				if err != nil {
					return nil, err
				}
				if err := p.expectPunct("("); err != nil {
					return nil, err
				}
				refCol, err := p.expectIdent()
				if err != nil {
					return nil, err
				}
				if err := p.expectPunct(")"); err != nil {
					return nil, err
				}
				col.FK = &ForeignKey{Table: refTable, Column: refCol}
			default:
				goto doneConstraints
			}
		}
	doneConstraints:
		cols = append(cols, col)
		if p.acceptPunct(",") {
			continue
		}
		break
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return createTableStmt{name: name, cols: cols}, nil
}

func parseTypeName(name string) (Kind, error) {
	switch strings.ToLower(name) {
	case "text", "varchar", "string", "char":
		return KindText, nil
	case "int", "integer", "bigint", "smallint":
		return KindInt, nil
	case "float", "real", "double", "numeric", "decimal":
		return KindFloat, nil
	case "bool", "boolean":
		return KindBool, nil
	default:
		return KindNull, fmt.Errorf("reldb: unknown type %q", name)
	}
}

// INSERT INTO name [(cols)] VALUES (...), (...)
func (p *parser) parseInsert() (statement, error) {
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	var cols []string
	if p.acceptPunct("(") {
		for {
			c, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			cols = append(cols, c)
			if p.acceptPunct(",") {
				continue
			}
			break
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	var rows [][]exprNode
	for {
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		var row []exprNode
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if p.acceptPunct(",") {
				continue
			}
			break
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		rows = append(rows, row)
		if p.acceptPunct(",") {
			continue
		}
		break
	}
	return insertStmt{table: table, cols: cols, rows: rows}, nil
}

// SELECT [DISTINCT] list FROM t [alias] [JOIN t2 [alias] ON a.b = c.d]*
// [WHERE expr] [ORDER BY ref [ASC|DESC], ...] [LIMIT n]
func (p *parser) parseSelect() (statement, error) {
	st := selectStmt{limit: -1}
	st.distinct = p.acceptKeyword("DISTINCT")

	if p.acceptPunct("*") {
		st.items = []selectItem{{star: true}}
	} else {
		for {
			item, err := p.parseSelectItem()
			if err != nil {
				return nil, err
			}
			st.items = append(st.items, item)
			if p.acceptPunct(",") {
				continue
			}
			break
		}
	}

	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	from, err := p.parseTableRef()
	if err != nil {
		return nil, err
	}
	st.from = from

	for {
		if p.acceptKeyword("INNER") {
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
		} else if !p.acceptKeyword("JOIN") {
			break
		}
		jt, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		lt, lc, err := p.parseQualifiedCol()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("="); err != nil {
			return nil, err
		}
		rt, rc, err := p.parseQualifiedCol()
		if err != nil {
			return nil, err
		}
		st.joins = append(st.joins, joinClause{
			table:     jt,
			leftTable: lt, leftCol: lc,
			rightTable: rt, rightCol: rc,
		})
	}

	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.where = e
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			tbl, col, err := p.parseQualifiedCol()
			if err != nil {
				return nil, err
			}
			key := orderKey{table: tbl, col: col}
			if p.acceptKeyword("DESC") {
				key.desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			st.orderBy = append(st.orderBy, key)
			if p.acceptPunct(",") {
				continue
			}
			break
		}
	}
	if p.acceptKeyword("LIMIT") {
		t := p.next()
		if t.kind != tokNumber {
			return nil, fmt.Errorf("reldb: LIMIT expects a number, got %q", t.text)
		}
		nVal, err := strconv.Atoi(t.text)
		if err != nil || nVal < 0 {
			return nil, fmt.Errorf("reldb: bad LIMIT %q", t.text)
		}
		st.limit = nVal
	}
	return st, nil
}

func (p *parser) parseSelectItem() (selectItem, error) {
	tbl, col, err := p.parseQualifiedCol()
	if err != nil {
		return selectItem{}, err
	}
	item := selectItem{table: tbl, col: col}
	if p.acceptKeyword("AS") {
		if item.as, err = p.expectIdent(); err != nil {
			return selectItem{}, err
		}
	}
	return item, nil
}

func (p *parser) parseTableRef() (tableRef, error) {
	name, err := p.expectIdent()
	if err != nil {
		return tableRef{}, err
	}
	ref := tableRef{name: name, alias: name}
	if p.acceptKeyword("AS") {
		alias, err := p.expectIdent()
		if err != nil {
			return tableRef{}, err
		}
		ref.alias = alias
	} else if p.peek().kind == tokIdent {
		ref.alias = p.next().text
	}
	return ref, nil
}

// parseQualifiedCol parses col or table.col.
func (p *parser) parseQualifiedCol() (table, col string, err error) {
	first, err := p.expectIdent()
	if err != nil {
		return "", "", err
	}
	if p.acceptPunct(".") {
		second, err := p.expectIdent()
		if err != nil {
			return "", "", err
		}
		return first, second, nil
	}
	return "", first, nil
}

// Expression grammar: or_expr := and_expr (OR and_expr)* ;
// and_expr := unary (AND unary)* ; unary := NOT unary | primary ;
// primary := operand [cmp operand] | operand IS [NOT] NULL | ( or_expr )
func (p *parser) parseExpr() (exprNode, error) { return p.parseOr() }

func (p *parser) parseOr() (exprNode, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = binExpr{op: "OR", left: left, right: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (exprNode, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = binExpr{op: "AND", left: left, right: right}
	}
	return left, nil
}

func (p *parser) parseUnary() (exprNode, error) {
	if p.acceptKeyword("NOT") {
		inner, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return notExpr{inner: inner}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (exprNode, error) {
	if p.acceptPunct("(") {
		inner, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return inner, nil
	}
	left, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	if p.acceptKeyword("IS") {
		negate := p.acceptKeyword("NOT")
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, err
		}
		return isNullExpr{inner: left, negate: negate}, nil
	}
	if p.acceptKeyword("LIKE") {
		right, err := p.parseOperand()
		if err != nil {
			return nil, err
		}
		return binExpr{op: "LIKE", left: left, right: right}, nil
	}
	for _, op := range []string{"<=", ">=", "<>", "!=", "=", "<", ">"} {
		if p.acceptPunct(op) {
			right, err := p.parseOperand()
			if err != nil {
				return nil, err
			}
			if op == "!=" {
				op = "<>"
			}
			return binExpr{op: op, left: left, right: right}, nil
		}
	}
	// Bare operand (only meaningful for booleans); allow it.
	return left, nil
}

func (p *parser) parseOperand() (exprNode, error) {
	t := p.peek()
	switch t.kind {
	case tokString:
		p.pos++
		return litExpr{Text(t.text)}, nil
	case tokNumber:
		p.pos++
		if strings.ContainsAny(t.text, ".eE") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, fmt.Errorf("reldb: bad number %q", t.text)
			}
			return litExpr{Float(f)}, nil
		}
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("reldb: bad number %q", t.text)
		}
		return litExpr{Int(i)}, nil
	case tokKeyword:
		switch t.text {
		case "NULL":
			p.pos++
			return litExpr{Null}, nil
		case "TRUE":
			p.pos++
			return litExpr{Bool(true)}, nil
		case "FALSE":
			p.pos++
			return litExpr{Bool(false)}, nil
		}
		return nil, fmt.Errorf("reldb: unexpected keyword %q in expression", t.text)
	case tokIdent:
		tbl, col, err := p.parseQualifiedCol()
		if err != nil {
			return nil, err
		}
		return colExpr{table: tbl, col: col}, nil
	default:
		return nil, fmt.Errorf("reldb: unexpected token %q in expression", t.text)
	}
}
