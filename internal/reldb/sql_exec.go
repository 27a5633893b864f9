package reldb

import (
	"fmt"
	"sort"
	"strings"
)

// Result is the output of a query: column headers plus rows.
type Result struct {
	Columns []string
	Rows    [][]Value
}

// Exec parses and runs one SQL statement. DDL and DML return an empty
// result (INSERT reports the number of rows inserted via RowsAffected-like
// convention: a single row with a single INT).
func (db *DB) Exec(sql string) (*Result, error) {
	st, err := parseSQL(sql)
	if err != nil {
		return nil, err
	}
	switch s := st.(type) {
	case createTableStmt:
		if _, err := db.CreateTable(s.name, s.cols); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case insertStmt:
		return db.execInsert(s)
	case selectStmt:
		return db.execSelect(s)
	default:
		return nil, fmt.Errorf("reldb: unhandled statement %T", st)
	}
}

// MustExec runs a statement and panics on error; for tests and examples.
func (db *DB) MustExec(sql string) *Result {
	res, err := db.Exec(sql)
	if err != nil {
		panic(fmt.Sprintf("reldb: %v\n  in: %s", err, sql))
	}
	return res
}

// QueryText runs a SELECT and flattens the first column to strings,
// a convenience for the extraction and example code.
func (db *DB) QueryText(sql string) ([]string, error) {
	res, err := db.Exec(sql)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(res.Rows))
	for _, r := range res.Rows {
		if len(r) == 0 {
			continue
		}
		out = append(out, r[0].String())
	}
	return out, nil
}

func (db *DB) execInsert(s insertStmt) (*Result, error) {
	t, ok := db.Table(s.table)
	if !ok {
		return nil, fmt.Errorf("reldb: insert into unknown table %q", s.table)
	}
	count := 0
	for _, exprRow := range s.rows {
		values := make([]Value, len(exprRow))
		for i, e := range exprRow {
			lit, ok := e.(litExpr)
			if !ok {
				return nil, fmt.Errorf("reldb: INSERT values must be literals")
			}
			values[i] = lit.val
		}
		if len(s.cols) == 0 {
			if _, err := db.Insert(s.table, values); err != nil {
				return nil, err
			}
		} else {
			if len(values) != len(s.cols) {
				return nil, fmt.Errorf("reldb: INSERT %d values for %d columns", len(values), len(s.cols))
			}
			m := make(map[string]Value, len(s.cols))
			for i, c := range s.cols {
				if _, ok := t.ColumnIndex(c); !ok {
					return nil, fmt.Errorf("reldb: insert into %q: unknown column %q", t.Name, c)
				}
				m[c] = values[i]
			}
			if _, err := db.InsertMap(s.table, m); err != nil {
				return nil, err
			}
		}
		count++
	}
	return &Result{Columns: []string{"inserted"}, Rows: [][]Value{{Int(int64(count))}}}, nil
}

// boundCol locates a column in the joined row layout.
type boundCol struct {
	offset int // start of the table's slot in the joined row
	index  int // column index within the table
	name   string
}

// execEnv is the name-resolution environment for a FROM/JOIN chain.
type execEnv struct {
	tables  []*Table
	aliases []string
	offsets []int
	width   int
}

func (db *DB) buildEnv(from tableRef, joins []joinClause) (*execEnv, error) {
	env := &execEnv{}
	add := func(ref tableRef) (*Table, error) {
		t, ok := db.Table(ref.name)
		if !ok {
			return nil, fmt.Errorf("reldb: unknown table %q", ref.name)
		}
		for _, a := range env.aliases {
			if a == ref.alias {
				return nil, fmt.Errorf("reldb: duplicate table alias %q", ref.alias)
			}
		}
		env.tables = append(env.tables, t)
		env.aliases = append(env.aliases, ref.alias)
		env.offsets = append(env.offsets, env.width)
		env.width += len(t.Columns)
		return t, nil
	}
	if _, err := add(from); err != nil {
		return nil, err
	}
	for _, j := range joins {
		if _, err := add(j.table); err != nil {
			return nil, err
		}
	}
	return env, nil
}

// resolve finds a (possibly qualified) column in the environment.
func (env *execEnv) resolve(table, col string) (boundCol, error) {
	if table != "" {
		for i, a := range env.aliases {
			if a == table {
				idx, ok := env.tables[i].ColumnIndex(col)
				if !ok {
					return boundCol{}, fmt.Errorf("reldb: table %q has no column %q", table, col)
				}
				return boundCol{offset: env.offsets[i], index: idx, name: a + "." + col}, nil
			}
		}
		return boundCol{}, fmt.Errorf("reldb: unknown table alias %q", table)
	}
	found := -1
	var bc boundCol
	for i := range env.tables {
		if idx, ok := env.tables[i].ColumnIndex(col); ok {
			if found >= 0 {
				return boundCol{}, fmt.Errorf("reldb: ambiguous column %q (in %q and %q)", col, env.aliases[found], env.aliases[i])
			}
			found = i
			bc = boundCol{offset: env.offsets[i], index: idx, name: env.aliases[i] + "." + col}
		}
	}
	if found < 0 {
		return boundCol{}, fmt.Errorf("reldb: unknown column %q", col)
	}
	return bc, nil
}

func (db *DB) execSelect(s selectStmt) (*Result, error) {
	env, err := db.buildEnv(s.from, s.joins)
	if err != nil {
		return nil, err
	}

	// Materialise joined rows with hash joins, left to right.
	rows := make([][]Value, 0, env.tables[0].NumRows())
	env.tables[0].Scan(func(_ int, r []Value) bool {
		joined := make([]Value, env.width)
		copy(joined, r)
		rows = append(rows, joined)
		return true
	})
	for ji, j := range s.joins {
		// Both sides may name any table joined so far, including the new
		// one; the new/old classification happens below.
		leftBC, err := env.resolveWithin(ji+2, j.leftTable, j.leftCol)
		if err != nil {
			return nil, err
		}
		rightBC, err := env.resolveWithin(ji+2, j.rightTable, j.rightCol)
		if err != nil {
			return nil, err
		}
		// Exactly one side must belong to the newly joined table.
		newOffset := env.offsets[ji+1]
		var probe, build boundCol
		switch {
		case leftBC.offset == newOffset && rightBC.offset != newOffset:
			build, probe = leftBC, rightBC
		case rightBC.offset == newOffset && leftBC.offset != newOffset:
			build, probe = rightBC, leftBC
		default:
			return nil, fmt.Errorf("reldb: JOIN %q ON must relate the new table to a previous one", j.table.name)
		}
		newTable := env.tables[ji+1]
		// Build hash index over the new table's join column.
		index := make(map[Value][]int)
		newTable.Scan(func(id int, r []Value) bool {
			v := r[build.index]
			if !v.IsNull() {
				index[v] = append(index[v], id)
			}
			return true
		})
		var next [][]Value
		for _, joined := range rows {
			v := joined[probe.offset+probe.index]
			if v.IsNull() {
				continue
			}
			for _, id := range index[v] {
				out := make([]Value, env.width)
				copy(out, joined)
				copy(out[newOffset:newOffset+len(newTable.Columns)], newTable.Row(id))
				next = append(next, out)
			}
		}
		rows = next
	}

	// WHERE filter.
	if s.where != nil {
		ev, err := compileExpr(env, s.where)
		if err != nil {
			return nil, err
		}
		filtered := rows[:0]
		for _, r := range rows {
			keep, err := ev(r)
			if err != nil {
				return nil, err
			}
			if keep {
				filtered = append(filtered, r)
			}
		}
		rows = filtered
	}

	// Projection.
	var cols []boundCol
	var headers []string
	for _, item := range s.items {
		if item.star {
			for i, t := range env.tables {
				for ci, c := range t.Columns {
					cols = append(cols, boundCol{offset: env.offsets[i], index: ci})
					headers = append(headers, env.aliases[i]+"."+c.Name)
				}
			}
			continue
		}
		bc, err := env.resolve(item.table, item.col)
		if err != nil {
			return nil, err
		}
		cols = append(cols, bc)
		if item.as != "" {
			headers = append(headers, item.as)
		} else {
			headers = append(headers, bc.name)
		}
	}

	// ORDER BY before projection (keys may be unprojected).
	if len(s.orderBy) > 0 {
		keys := make([]boundCol, len(s.orderBy))
		for i, k := range s.orderBy {
			bc, err := env.resolve(k.table, k.col)
			if err != nil {
				return nil, err
			}
			keys[i] = bc
		}
		sort.SliceStable(rows, func(a, b int) bool {
			for i, k := range keys {
				cmp := Compare(rows[a][k.offset+k.index], rows[b][k.offset+k.index])
				if cmp == 0 {
					continue
				}
				if s.orderBy[i].desc {
					return cmp > 0
				}
				return cmp < 0
			}
			return false
		})
	}

	out := make([][]Value, 0, len(rows))
	var seen map[string]bool
	if s.distinct {
		seen = make(map[string]bool)
	}
	for _, r := range rows {
		if s.limit >= 0 && len(out) >= s.limit {
			break
		}
		proj := make([]Value, len(cols))
		for i, bc := range cols {
			proj[i] = r[bc.offset+bc.index]
		}
		if s.distinct {
			key := projKey(proj)
			if seen[key] {
				continue
			}
			seen[key] = true
		}
		out = append(out, proj)
	}
	return &Result{Columns: headers, Rows: out}, nil
}

// resolveWithin resolves a column considering only the first n tables of
// the environment (JOIN ON may only reference tables joined so far).
func (env *execEnv) resolveWithin(n int, table, col string) (boundCol, error) {
	sub := &execEnv{
		tables:  env.tables[:n],
		aliases: env.aliases[:n],
		offsets: env.offsets[:n],
		width:   env.width,
	}
	return sub.resolve(table, col)
}

func projKey(vals []Value) string {
	var b strings.Builder
	for _, v := range vals {
		b.WriteString(v.Kind.String())
		b.WriteByte(':')
		b.WriteString(v.String())
		b.WriteByte('\x00')
	}
	return b.String()
}

// compileExpr turns an AST expression into an evaluator over joined rows.
// Three-valued logic is collapsed: NULL comparisons are false.
func compileExpr(env *execEnv, e exprNode) (func(row []Value) (bool, error), error) {
	val, err := compileValue(env, e)
	if err != nil {
		return nil, err
	}
	return func(row []Value) (bool, error) {
		v, err := val(row)
		if err != nil {
			return false, err
		}
		if v.Kind == KindBool {
			return v.Num != 0, nil
		}
		return false, fmt.Errorf("reldb: WHERE expression is not boolean (got %s)", v.Kind)
	}, nil
}

func compileValue(env *execEnv, e exprNode) (func(row []Value) (Value, error), error) {
	switch n := e.(type) {
	case litExpr:
		v := n.val
		return func([]Value) (Value, error) { return v, nil }, nil
	case colExpr:
		bc, err := env.resolve(n.table, n.col)
		if err != nil {
			return nil, err
		}
		return func(row []Value) (Value, error) { return row[bc.offset+bc.index], nil }, nil
	case notExpr:
		inner, err := compileExpr(env, n.inner)
		if err != nil {
			return nil, err
		}
		return func(row []Value) (Value, error) {
			b, err := inner(row)
			if err != nil {
				return Null, err
			}
			return Bool(!b), nil
		}, nil
	case isNullExpr:
		inner, err := compileValue(env, n.inner)
		if err != nil {
			return nil, err
		}
		negate := n.negate
		return func(row []Value) (Value, error) {
			v, err := inner(row)
			if err != nil {
				return Null, err
			}
			return Bool(v.IsNull() != negate), nil
		}, nil
	case binExpr:
		left, err := compileValue(env, n.left)
		if err != nil {
			return nil, err
		}
		right, err := compileValue(env, n.right)
		if err != nil {
			return nil, err
		}
		op := n.op
		return func(row []Value) (Value, error) {
			lv, err := left(row)
			if err != nil {
				return Null, err
			}
			switch op {
			case "AND":
				if lv.Kind == KindBool && lv.Num == 0 {
					return Bool(false), nil
				}
			case "OR":
				if lv.Kind == KindBool && lv.Num != 0 {
					return Bool(true), nil
				}
			}
			rv, err := right(row)
			if err != nil {
				return Null, err
			}
			switch op {
			case "AND", "OR":
				if lv.Kind != KindBool || rv.Kind != KindBool {
					return Null, fmt.Errorf("reldb: %s needs boolean operands", op)
				}
				if op == "AND" {
					return Bool(lv.Num != 0 && rv.Num != 0), nil
				}
				return Bool(lv.Num != 0 || rv.Num != 0), nil
			case "LIKE":
				ls, lok := lv.AsText()
				rs, rok := rv.AsText()
				if !lok || !rok {
					return Bool(false), nil
				}
				return Bool(likeMatch(ls, rs)), nil
			}
			if lv.IsNull() || rv.IsNull() {
				return Bool(false), nil
			}
			cmp := Compare(lv, rv)
			switch op {
			case "=":
				return Bool(cmp == 0), nil
			case "<>":
				return Bool(cmp != 0), nil
			case "<":
				return Bool(cmp < 0), nil
			case "<=":
				return Bool(cmp <= 0), nil
			case ">":
				return Bool(cmp > 0), nil
			case ">=":
				return Bool(cmp >= 0), nil
			default:
				return Null, fmt.Errorf("reldb: unknown operator %q", op)
			}
		}, nil
	default:
		return nil, fmt.Errorf("reldb: unhandled expression %T", e)
	}
}

// likeMatch implements SQL LIKE with % (any run) and _ (any one char),
// case-sensitive, by dynamic programming over bytes.
func likeMatch(s, pattern string) bool {
	// match[i] reports whether pattern[:pi] matches s[:i].
	prev := make([]bool, len(s)+1)
	cur := make([]bool, len(s)+1)
	prev[0] = true
	for pi := 0; pi < len(pattern); pi++ {
		p := pattern[pi]
		cur[0] = prev[0] && p == '%'
		for i := 1; i <= len(s); i++ {
			switch p {
			case '%':
				cur[i] = cur[i-1] || prev[i]
			case '_':
				cur[i] = prev[i-1]
			default:
				cur[i] = prev[i-1] && s[i-1] == p
			}
		}
		prev, cur = cur, prev
	}
	return prev[len(s)]
}
