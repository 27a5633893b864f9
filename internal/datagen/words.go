// Package datagen fabricates the synthetic world the evaluation runs on:
// a "pre-trained" word embedding with topical structure, multi-word
// phrases and a controlled out-of-vocabulary rate, plus TMDB-like and
// Google-Play-like databases whose latent variables plant the signal
// pathways each paper experiment relies on; the tests in datagen_test.go
// check that each planted signal is there. Everything is deterministic
// under a seed.
package datagen

import (
	"fmt"
	"math/rand"
	"strings"

	"github.com/retrodb/retro/internal/embed"
	"github.com/retrodb/retro/internal/vec"
)

var syllables = []string{
	"ba", "be", "bi", "bo", "bu", "da", "de", "di", "do", "du",
	"fa", "fe", "fi", "fo", "fu", "ga", "ge", "gi", "go", "gu",
	"ka", "ke", "ki", "ko", "ku", "la", "le", "li", "lo", "lu",
	"ma", "me", "mi", "mo", "mu", "na", "ne", "ni", "no", "nu",
	"pa", "pe", "pi", "po", "pu", "ra", "re", "ri", "ro", "ru",
	"sa", "se", "si", "so", "su", "ta", "te", "ti", "to", "tu",
	"va", "ve", "vi", "vo", "vu", "za", "ze", "zi", "zo", "zu",
}

// wordMaker fabricates unique pronounceable words.
type wordMaker struct {
	rng  *rand.Rand
	seen map[string]bool
}

func newWordMaker(rng *rand.Rand) *wordMaker {
	return &wordMaker{rng: rng, seen: make(map[string]bool)}
}

// make returns a fresh unique word of 2-4 syllables.
func (m *wordMaker) make() string {
	for {
		n := 2 + m.rng.Intn(3)
		var b strings.Builder
		for i := 0; i < n; i++ {
			b.WriteString(syllables[m.rng.Intn(len(syllables))])
		}
		w := b.String()
		if !m.seen[w] {
			m.seen[w] = true
			return w
		}
	}
}

// Vocab is the synthetic language: topic centroids plus word pools whose
// vectors scatter around their topic. It backs the synthetic pre-trained
// embedding.
type Vocab struct {
	Dim   int
	Store *embed.Store

	rng    *rand.Rand
	maker  *wordMaker
	topics map[string][]float64
	pools  map[string][]string
	// oovWords are pool words deliberately left out of the embedding
	// (the §3.1 OOV case). They still appear in database text.
	oovWords map[string]bool
}

// NewVocab creates an empty vocabulary for the given dimensionality.
func NewVocab(dim int, rng *rand.Rand) *Vocab {
	return &Vocab{
		Dim:      dim,
		Store:    embed.NewStore(dim),
		rng:      rng,
		maker:    newWordMaker(rng),
		topics:   make(map[string][]float64),
		pools:    make(map[string][]string),
		oovWords: make(map[string]bool),
	}
}

// Topic creates (or returns) a unit-norm topic centroid.
func (v *Vocab) Topic(name string) []float64 {
	if c, ok := v.topics[name]; ok {
		return c
	}
	c := make([]float64, v.Dim)
	for i := range c {
		c[i] = v.rng.NormFloat64()
	}
	vec.Normalize(c)
	v.topics[name] = c
	return c
}

// Pool creates a pool of `size` fresh words around the topic with the
// given noise level; oovRate of them are withheld from the embedding.
func (v *Vocab) Pool(poolName, topicName string, size int, noise, oovRate float64) []string {
	if words, ok := v.pools[poolName]; ok {
		return words
	}
	centroid := v.Topic(topicName)
	words := make([]string, size)
	for i := range words {
		w := v.maker.make()
		words[i] = w
		if v.rng.Float64() < oovRate {
			v.oovWords[w] = true
			continue
		}
		v.Store.Add(w, v.sample(centroid, noise))
	}
	v.pools[poolName] = words
	return words
}

// sample draws centroid + N(0, noise²) per component.
func (v *Vocab) sample(centroid []float64, noise float64) []float64 {
	out := make([]float64, v.Dim)
	for i := range out {
		out[i] = centroid[i] + v.rng.NormFloat64()*noise
	}
	return out
}

// AddPhrase registers a multi-word phrase (underscore-joined) near the
// topic; exercises the §3.1 trie (longest-match must prefer it).
func (v *Vocab) AddPhrase(words []string, topicName string, noise float64) string {
	phrase := strings.Join(words, "_")
	v.Store.Add(phrase, v.sample(v.Topic(topicName), noise))
	return phrase
}

// AddWordAt inserts a specific word with a vector near the topic.
func (v *Vocab) AddWordAt(word, topicName string, noise float64) {
	v.Store.Add(word, v.sample(v.Topic(topicName), noise))
}

// PickFrom returns a uniformly drawn word of a pool.
func (v *Vocab) PickFrom(poolName string) string {
	pool := v.pools[poolName]
	if len(pool) == 0 {
		panic(fmt.Sprintf("datagen: empty pool %q", poolName))
	}
	return pool[v.rng.Intn(len(pool))]
}

// IsOOV reports whether a word was withheld from the embedding.
func (v *Vocab) IsOOV(word string) bool { return v.oovWords[word] }

// Sentence draws n words, each from pool A with probability pA, else
// from pool B.
func (v *Vocab) Sentence(n int, poolA string, pA float64, poolB string) string {
	words := make([]string, n)
	for i := range words {
		if v.rng.Float64() < pA {
			words[i] = v.PickFrom(poolA)
		} else {
			words[i] = v.PickFrom(poolB)
		}
	}
	return strings.Join(words, " ")
}

// MixedSentence draws n words from a weighted mixture of pools. Weights
// need not sum to one; they are normalised.
func (v *Vocab) MixedSentence(n int, pools []string, weights []float64) string {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	words := make([]string, n)
	for i := range words {
		u := v.rng.Float64() * total
		acc := 0.0
		chosen := pools[len(pools)-1]
		for pi, w := range weights {
			acc += w
			if u < acc {
				chosen = pools[pi]
				break
			}
		}
		words[i] = v.PickFrom(chosen)
	}
	return strings.Join(words, " ")
}
