package reldb

// AST node types for the SQL subset. The parser produces these; the
// executor in sql_exec.go interprets them.

type statement interface{ stmt() }

type createTableStmt struct {
	name string
	cols []Column
}

type insertStmt struct {
	table string
	cols  []string // empty = positional
	rows  [][]exprNode
}

type selectStmt struct {
	distinct bool
	items    []selectItem
	from     tableRef
	joins    []joinClause
	where    exprNode // may be nil
	orderBy  []orderKey
	limit    int // -1 = no limit
}

type selectItem struct {
	star  bool   // bare * (only allowed alone)
	table string // optional qualifier
	col   string
	as    string // optional alias
}

type tableRef struct {
	name  string
	alias string // defaults to name
}

type joinClause struct {
	table tableRef
	// ON leftTable.leftCol = rightTable.rightCol
	leftTable, leftCol   string
	rightTable, rightCol string
}

type orderKey struct {
	table string
	col   string
	desc  bool
}

func (createTableStmt) stmt() {}
func (insertStmt) stmt()      {}
func (selectStmt) stmt()      {}

// Expressions.

type exprNode interface{ expr() }

type litExpr struct{ val Value }

type colExpr struct {
	table string // optional
	col   string
}

type binExpr struct {
	op          string // =, <>, <, <=, >, >=, AND, OR, LIKE
	left, right exprNode
}

type notExpr struct{ inner exprNode }

type isNullExpr struct {
	inner  exprNode
	negate bool
}

func (litExpr) expr()    {}
func (colExpr) expr()    {}
func (binExpr) expr()    {}
func (notExpr) expr()    {}
func (isNullExpr) expr() {}
