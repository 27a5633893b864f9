package reldb

import (
	"fmt"
	"math/rand"
	"testing"
)

// Differential testing: random WHERE predicates are executed by the SQL
// engine and replayed by a straight-line Go reference evaluator over the
// same rows; results must agree row for row.

type propRow struct {
	id     int64
	name   string
	score  float64
	weight int64
	flag   bool
	isNull bool // score is NULL
}

func propFixture(t *testing.T, rng *rand.Rand, n int) (*DB, []propRow) {
	t.Helper()
	db := New()
	db.MustExec(`CREATE TABLE t (id INT PRIMARY KEY, name TEXT, score FLOAT, weight INT, flag BOOL)`)
	names := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	rows := make([]propRow, n)
	for i := 0; i < n; i++ {
		r := propRow{
			id:     int64(i),
			name:   names[rng.Intn(len(names))],
			score:  float64(rng.Intn(100)) / 10,
			weight: int64(rng.Intn(20)),
			flag:   rng.Intn(2) == 0,
			isNull: rng.Intn(6) == 0,
		}
		rows[i] = r
		score := Float(r.score)
		if r.isNull {
			score = Null
		}
		if _, err := db.Insert("t", []Value{Int(r.id), Text(r.name), score, Int(r.weight), Bool(r.flag)}); err != nil {
			t.Fatal(err)
		}
	}
	return db, rows
}

// predicate is a randomly generated condition with both a SQL rendering
// and a reference Go evaluation.
type predicate struct {
	sql  string
	eval func(r propRow) bool
}

func randPredicate(rng *rand.Rand, depth int) predicate {
	if depth > 0 && rng.Intn(3) == 0 {
		left := randPredicate(rng, depth-1)
		right := randPredicate(rng, depth-1)
		if rng.Intn(2) == 0 {
			return predicate{
				sql:  "(" + left.sql + " AND " + right.sql + ")",
				eval: func(r propRow) bool { return left.eval(r) && right.eval(r) },
			}
		}
		return predicate{
			sql:  "(" + left.sql + " OR " + right.sql + ")",
			eval: func(r propRow) bool { return left.eval(r) || right.eval(r) },
		}
	}
	switch rng.Intn(6) {
	case 0: // numeric comparison on weight
		v := int64(rng.Intn(20))
		op := []string{"<", "<=", ">", ">=", "=", "<>"}[rng.Intn(6)]
		return predicate{
			sql: fmt.Sprintf("weight %s %d", op, v),
			eval: func(r propRow) bool {
				switch op {
				case "<":
					return r.weight < v
				case "<=":
					return r.weight <= v
				case ">":
					return r.weight > v
				case ">=":
					return r.weight >= v
				case "=":
					return r.weight == v
				default:
					return r.weight != v
				}
			},
		}
	case 1: // float comparison on score (NULL compares false)
		v := float64(rng.Intn(100)) / 10
		op := []string{"<", ">", "<=", ">="}[rng.Intn(4)]
		return predicate{
			sql: fmt.Sprintf("score %s %g", op, v),
			eval: func(r propRow) bool {
				if r.isNull {
					return false
				}
				switch op {
				case "<":
					return r.score < v
				case ">":
					return r.score > v
				case "<=":
					return r.score <= v
				default:
					return r.score >= v
				}
			},
		}
	case 2: // name equality
		names := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
		v := names[rng.Intn(len(names))]
		if rng.Intn(2) == 0 {
			return predicate{
				sql:  fmt.Sprintf("name = '%s'", v),
				eval: func(r propRow) bool { return r.name == v },
			}
		}
		return predicate{
			sql:  fmt.Sprintf("name <> '%s'", v),
			eval: func(r propRow) bool { return r.name != v },
		}
	case 3: // NULL tests
		if rng.Intn(2) == 0 {
			return predicate{sql: "score IS NULL", eval: func(r propRow) bool { return r.isNull }}
		}
		return predicate{sql: "score IS NOT NULL", eval: func(r propRow) bool { return !r.isNull }}
	case 4: // boolean column
		if rng.Intn(2) == 0 {
			return predicate{sql: "flag", eval: func(r propRow) bool { return r.flag }}
		}
		return predicate{sql: "NOT flag", eval: func(r propRow) bool { return !r.flag }}
	default: // LIKE on name
		pat := []string{"a%", "%a", "%et%", "_eta", "%"}[rng.Intn(5)]
		return predicate{
			sql:  fmt.Sprintf("name LIKE '%s'", pat),
			eval: func(r propRow) bool { return likeMatch(r.name, pat) },
		}
	}
}

func TestPropertySQLWhereMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	db, rows := propFixture(t, rng, 120)
	for trial := 0; trial < 200; trial++ {
		pred := randPredicate(rng, 2)
		sql := "SELECT id FROM t WHERE " + pred.sql + " ORDER BY id"
		res, err := db.Exec(sql)
		if err != nil {
			t.Fatalf("trial %d: %v\n  in: %s", trial, err, sql)
		}
		var want []int64
		for _, r := range rows {
			if pred.eval(r) {
				want = append(want, r.id)
			}
		}
		if len(res.Rows) != len(want) {
			t.Fatalf("trial %d: %d rows, reference %d\n  in: %s", trial, len(res.Rows), len(want), sql)
		}
		for i, w := range want {
			if res.Rows[i][0].I != w {
				t.Fatalf("trial %d row %d: id %d, reference %d\n  in: %s", trial, i, res.Rows[i][0].I, w, sql)
			}
		}
	}
}
