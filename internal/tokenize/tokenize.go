// Package tokenize implements the tokenization approach of §3.1: a lookup
// trie over the embedding vocabulary extracts the longest possible token
// sequences from each database text value, and the initial vector of the
// value is the centroid of the matched token vectors. Values with no match
// get a null (zero) vector, to be filled in by retrofitting.
package tokenize

import (
	"strings"
	"unicode"

	"github.com/retrodb/retro/internal/embed"
	"github.com/retrodb/retro/internal/trie"
	"github.com/retrodb/retro/internal/vec"
)

// Tokenizer resolves raw database text values against an embedding
// vocabulary. Build one per embedding set with New; it is safe for
// concurrent use after construction.
type Tokenizer struct {
	store *embed.Store
	trie  trie.Trie
}

// New builds the lookup trie for the store's vocabulary. Multi-word
// vocabulary entries are recognised by the underscore convention of
// pre-trained embedding releases ("bank_account") and additionally by
// spaces, so both phrase styles resolve.
func New(store *embed.Store) *Tokenizer {
	t := &Tokenizer{store: store}
	for id, word := range store.Words() {
		parts := SplitPhrase(word)
		if len(parts) == 0 {
			continue
		}
		t.trie.Insert(parts, id)
	}
	return t
}

// SplitPhrase splits a vocabulary entry into its constituent tokens,
// lower-cased. "Bank_Account" -> ["bank", "account"].
func SplitPhrase(word string) []string {
	return Normalize(word)
}

// Normalize lower-cases text and splits it into word tokens. Punctuation
// separates tokens; digits are kept (movie titles like "5th_element" need
// them). This mirrors the standard preprocessing applied before trie
// lookup.
func Normalize(text string) []string {
	var tokens []string
	var b strings.Builder
	flush := func() {
		if b.Len() > 0 {
			tokens = append(tokens, b.String())
			b.Reset()
		}
	}
	for _, r := range text {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(unicode.ToLower(r))
		default:
			flush()
		}
	}
	flush()
	return tokens
}

// Tokenize resolves a text value to a bag of vocabulary ids using
// longest-match trie lookup: at each position the longest stored token
// sequence is consumed; unmatched tokens are skipped one at a time.
func (t *Tokenizer) Tokenize(text string) []int {
	tokens := Normalize(text)
	var ids []int
	for i := 0; i < len(tokens); {
		n, id := t.trie.LongestPrefix(tokens[i:])
		if n == 0 {
			i++ // out-of-vocabulary token
			continue
		}
		ids = append(ids, id)
		i += n
	}
	return ids
}

// Coverage reports the fraction of normalised tokens of text that were
// consumed by vocabulary matches (multi-word matches consume several).
// 0 means fully out-of-vocabulary.
func (t *Tokenizer) Coverage(text string) float64 {
	tokens := Normalize(text)
	if len(tokens) == 0 {
		return 0
	}
	consumed := 0
	for i := 0; i < len(tokens); {
		n, _ := t.trie.LongestPrefix(tokens[i:])
		if n == 0 {
			i++
			continue
		}
		consumed += n
		i += n
	}
	return float64(consumed) / float64(len(tokens))
}

// InitialVector computes the §3.1 initialisation for a text value: the
// centroid of the vectors of its matched tokens, or a null vector when no
// token matches. The second return reports whether any token matched.
func (t *Tokenizer) InitialVector(text string) ([]float64, bool) {
	ids := t.Tokenize(text)
	out := make([]float64, t.store.Dim())
	if len(ids) == 0 {
		return out, false
	}
	for _, id := range ids {
		vec.Axpy(out, 1, t.store.Vector(id))
	}
	vec.Scale(out, 1/float64(len(ids)))
	return out, true
}

// Store returns the embedding store this tokenizer resolves against.
func (t *Tokenizer) Store() *embed.Store { return t.store }

// WhitespaceInitialVector is the naive §3.1 strawman the phrase lookup
// is tested against: every whitespace token is looked up individually
// (no multi-word phrases), and the centroid of the hits is returned.
func (t *Tokenizer) WhitespaceInitialVector(text string) ([]float64, bool) {
	out := make([]float64, t.store.Dim())
	hits := 0
	for _, tok := range Normalize(text) {
		if v, ok := t.store.VectorOf(tok); ok {
			vec.Axpy(out, 1, v)
			hits++
		}
	}
	if hits == 0 {
		return out, false
	}
	vec.Scale(out, 1/float64(hits))
	return out, true
}
