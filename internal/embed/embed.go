// Package embed provides the sentence-embedding substrate used by CEDAR's
// textual-claim validation. The paper uses the MiniLM-L6 model to compare a
// claimed textual value against a query result; this package substitutes a
// deterministic hashed character-n-gram embedding. Like a learned sentence
// encoder (and unlike exact string matching) it is tolerant of case
// differences, abbreviations, extra tokens, and small spelling mistakes,
// which is exactly the property the 0.7/0.8 similarity thresholds in
// CorrectQuery/CorrectClaim rely on.
package embed

import (
	"math"
	"strings"
	"unicode"
)

// Dim is the dimensionality of embedding vectors. 256 buckets keep
// collisions rare for the short spans (names, titles, categories) that
// textual claims compare.
const Dim = 256

// Vector is a sparse embedding of a short text span: its non-zero buckets
// in ascending bucket order. The zero Vector embeds the empty text.
//
// The sparse form is exact, not an approximation of a dense [Dim]float64:
// every component is non-negative, so the buckets a dense loop would visit
// in between only add exact zeros, and summing the non-zero terms in bucket
// order yields bit-identical norms and dot products.
type Vector struct {
	idx []uint8
	val []float64
}

// Embed maps text to its embedding vector. The embedding hashes character
// trigrams of the normalized text (lowercased, punctuation stripped, padded
// per word) into Dim buckets and L2-normalizes the result. Identical texts
// embed identically; texts sharing most trigrams land close in cosine space.
func Embed(text string) Vector {
	var counts [Dim]uint32
	nonZero := 0
	forEachGram(text, func(h uint32) {
		b := h % Dim
		if counts[b] == 0 {
			nonZero++
		}
		counts[b]++
	})
	if nonZero == 0 {
		return Vector{}
	}
	v := Vector{idx: make([]uint8, 0, nonZero), val: make([]float64, 0, nonZero)}
	norm := 0.0
	for b, c := range counts {
		if c != 0 {
			x := float64(c)
			norm += x * x
			v.idx = append(v.idx, uint8(b))
			v.val = append(v.val, x)
		}
	}
	norm = math.Sqrt(norm)
	for k := range v.val {
		v.val[k] /= norm
	}
	return v
}

// Cosine returns the cosine similarity of two vectors in [-1, 1] (here
// always [0, 1] since components are non-negative). Zero vectors have
// similarity zero to everything. It merges the two bucket lists and
// multiplies only the shared buckets.
func Cosine(a, b Vector) float64 {
	dot := 0.0
	for i, j := 0, 0; i < len(a.idx) && j < len(b.idx); {
		switch {
		case a.idx[i] < b.idx[j]:
			i++
		case a.idx[i] > b.idx[j]:
			j++
		default:
			dot += a.val[i] * b.val[j]
			i++
			j++
		}
	}
	if dot > 1 {
		dot = 1 // guard float drift past the normalization bound
	}
	return dot
}

// Similarity is the convenience composition Cosine(Embed(a), Embed(b)).
func Similarity(a, b string) float64 {
	return Cosine(Embed(a), Embed(b))
}

// Normalize lowercases text, maps punctuation to spaces, and collapses
// whitespace — the token normal form shared by embedding and the simulated
// model's entity matching. It works in one pass: each rune is lowered as
// strings.ToLower would, kept if it is then a letter or digit, and any run
// of other runes between two kept ones becomes a single space.
func Normalize(text string) string {
	var b strings.Builder
	b.Grow(len(text))
	gap := false
	for _, r := range text {
		r = unicode.ToLower(r)
		if !unicode.IsLetter(r) && !unicode.IsDigit(r) {
			gap = true
			continue
		}
		if gap && b.Len() > 0 {
			b.WriteByte(' ')
		}
		gap = false
		b.WriteRune(r)
	}
	return b.String()
}

// FNV-32a parameters, inlined so hashing a gram needs no hasher or string.
const (
	fnvOffset = 2166136261
	fnvPrime  = 16777619
)

// forEachGram calls fn with the FNV-32a hash of every feature of the
// normalized text: per word, a whole-word unigram "#w:word" that boosts
// exact token overlap, then the byte trigrams of "^word$". The grams are
// hashed in place, never materialized.
func forEachGram(text string, fn func(h uint32)) {
	norm := Normalize(text)
	for len(norm) > 0 {
		word := norm
		if sp := strings.IndexByte(norm, ' '); sp >= 0 {
			word, norm = norm[:sp], norm[sp+1:]
		} else {
			norm = ""
		}
		h := uint32(fnvOffset)
		for _, c := range []byte("#w:") {
			h = (h ^ uint32(c)) * fnvPrime
		}
		for i := 0; i < len(word); i++ {
			h = (h ^ uint32(word[i])) * fnvPrime
		}
		fn(h)
		// Trigram i of "^word$" covers padded bytes i..i+2.
		for i := 0; i < len(word); i++ {
			h := uint32(fnvOffset)
			for p := i; p < i+3; p++ {
				c := byte('^')
				switch {
				case p == len(word)+1:
					c = '$'
				case p > 0:
					c = word[p-1]
				}
				h = (h ^ uint32(c)) * fnvPrime
			}
			fn(h)
		}
	}
}
