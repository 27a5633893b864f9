package reldb

import (
	"fmt"
	"strings"
	"unicode"
)

// tokenKind enumerates SQL token classes.
type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokString
	tokNumber
	tokPunct
)

type token struct {
	kind tokenKind
	text string // keywords upper-cased, idents lower-cased, punct literal
	pos  int    // byte offset, for error messages
}

var sqlKeywords = map[string]bool{
	"CREATE": true, "TABLE": true, "PRIMARY": true, "KEY": true,
	"NOT": true, "NULL": true, "REFERENCES": true,
	"INSERT": true, "INTO": true, "VALUES": true,
	"SELECT": true, "DISTINCT": true, "FROM": true, "JOIN": true,
	"INNER": true, "ON": true, "WHERE": true, "AND": true, "OR": true,
	"ORDER": true, "BY": true, "ASC": true, "DESC": true, "LIMIT": true,
	"IS": true, "AS": true, "LIKE": true,
	"TRUE": true, "FALSE": true,
}

// lexSQL splits a statement into tokens. Strings use single quotes with
// ” as the escape, following SQL convention.
func lexSQL(input string) ([]token, error) {
	var toks []token
	i := 0
	n := len(input)
	for i < n {
		c := rune(input[i])
		switch {
		case unicode.IsSpace(c):
			i++
		case c == '\'':
			start := i
			i++
			var b strings.Builder
			for {
				if i >= n {
					return nil, fmt.Errorf("reldb: unterminated string at offset %d", start)
				}
				if input[i] == '\'' {
					if i+1 < n && input[i+1] == '\'' {
						b.WriteByte('\'')
						i += 2
						continue
					}
					i++
					break
				}
				b.WriteByte(input[i])
				i++
			}
			toks = append(toks, token{tokString, b.String(), start})
		case unicode.IsDigit(c) || (c == '-' && i+1 < n && unicode.IsDigit(rune(input[i+1])) && expectsValue(toks)):
			start := i
			if c == '-' {
				i++
			}
			for i < n && (unicode.IsDigit(rune(input[i])) || input[i] == '.' || input[i] == 'e' || input[i] == 'E' ||
				((input[i] == '+' || input[i] == '-') && (input[i-1] == 'e' || input[i-1] == 'E'))) {
				i++
			}
			toks = append(toks, token{tokNumber, input[start:i], start})
		case unicode.IsLetter(c) || c == '_':
			start := i
			for i < n && (unicode.IsLetter(rune(input[i])) || unicode.IsDigit(rune(input[i])) || input[i] == '_') {
				i++
			}
			word := input[start:i]
			upper := strings.ToUpper(word)
			if sqlKeywords[upper] {
				toks = append(toks, token{tokKeyword, upper, start})
			} else {
				toks = append(toks, token{tokIdent, strings.ToLower(word), start})
			}
		case c == '"':
			// Quoted identifier.
			start := i
			i++
			j := strings.IndexByte(input[i:], '"')
			if j < 0 {
				return nil, fmt.Errorf("reldb: unterminated quoted identifier at offset %d", start)
			}
			toks = append(toks, token{tokIdent, strings.ToLower(input[i : i+j]), start})
			i += j + 1
		default:
			start := i
			switch c {
			case '<':
				if i+1 < n && (input[i+1] == '=' || input[i+1] == '>') {
					toks = append(toks, token{tokPunct, input[i : i+2], start})
					i += 2
					continue
				}
			case '>', '!':
				if i+1 < n && input[i+1] == '=' {
					toks = append(toks, token{tokPunct, input[i : i+2], start})
					i += 2
					continue
				}
				if c == '!' {
					return nil, fmt.Errorf("reldb: stray '!' at offset %d", start)
				}
			}
			switch c {
			case '(', ')', ',', '.', '*', '=', '<', '>', ';':
				toks = append(toks, token{tokPunct, string(c), start})
				i++
			default:
				return nil, fmt.Errorf("reldb: unexpected character %q at offset %d", c, start)
			}
		}
	}
	toks = append(toks, token{tokEOF, "", n})
	return toks, nil
}

// expectsValue reports whether a '-' at the current position should start
// a negative number literal (after an operator/keyword/comma/paren) rather
// than being arithmetic (which this subset does not support anyway).
func expectsValue(toks []token) bool {
	if len(toks) == 0 {
		return true
	}
	last := toks[len(toks)-1]
	switch last.kind {
	case tokPunct:
		return last.text != ")"
	case tokKeyword:
		return true
	default:
		return false
	}
}
