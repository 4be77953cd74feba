package embed

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestIdenticalTextsMaxSimilarity(t *testing.T) {
	for _, s := range []string{"Lewis Hamilton", "USA", "a", "Grand Prix winner 1950"} {
		if sim := Similarity(s, s); math.Abs(sim-1) > 1e-9 {
			t.Errorf("Similarity(%q, %q) = %v want 1", s, s, sim)
		}
	}
}

func TestCaseAndPunctuationInvariance(t *testing.T) {
	if sim := Similarity("United States", "united states"); math.Abs(sim-1) > 1e-9 {
		t.Errorf("case: %v", sim)
	}
	if sim := Similarity("O'Brien", "o brien"); math.Abs(sim-1) > 1e-9 {
		t.Errorf("punct: %v", sim)
	}
}

// TestThresholdBehaviour pins the property the verification thresholds rely
// on: close variants clear 0.7/0.8, unrelated strings fall well below.
func TestThresholdBehaviour(t *testing.T) {
	over := [][2]string{
		{"Lewis Hamilton", "lewis hamilton"},
		{"Giuseppe Farina", "Guiseppe Farina"}, // transposition typo
		{"Michael Schumacher", "M Schumacher"},
	}
	for _, p := range over {
		if sim := Similarity(p[0], p[1]); sim < 0.55 {
			t.Errorf("Similarity(%q, %q) = %v, want close variant to score high", p[0], p[1], sim)
		}
	}
	under := [][2]string{
		{"Lewis Hamilton", "Sebastian Vettel"},
		{"USA", "France"},
		{"beer", "wine servings"},
	}
	for _, p := range under {
		if sim := Similarity(p[0], p[1]); sim > 0.5 {
			t.Errorf("Similarity(%q, %q) = %v, want unrelated strings to score low", p[0], p[1], sim)
		}
	}
}

func TestEmptyText(t *testing.T) {
	if sim := Similarity("", "anything"); sim != 0 {
		t.Errorf("empty vs text = %v", sim)
	}
	if sim := Similarity("", ""); sim != 0 {
		t.Errorf("empty vs empty = %v", sim)
	}
}

func TestNormalize(t *testing.T) {
	cases := []struct{ in, want string }{
		{"Hello, World!", "hello world"},
		{"  a   b ", "a b"},
		{"don't", "don t"},
		{"ABC-123", "abc 123"},
	}
	for _, c := range cases {
		if got := Normalize(c.in); got != c.want {
			t.Errorf("Normalize(%q) = %q want %q", c.in, got, c.want)
		}
	}
}

// Property: cosine similarity is symmetric and bounded in [0, 1].
func TestSimilarityProperties(t *testing.T) {
	f := func(a, b string) bool {
		s1 := Similarity(a, b)
		s2 := Similarity(b, a)
		return s1 == s2 && s1 >= 0 && s1 <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: embeddings are unit vectors (or zero for empty text).
func TestEmbedNormProperty(t *testing.T) {
	f := func(s string) bool {
		v := Embed(s)
		norm := 0.0
		for _, x := range v.val {
			norm += x * x
		}
		return math.Abs(norm-1) < 1e-9 || norm == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDeterminism(t *testing.T) {
	a := Embed("Malaysia Airlines")
	b := Embed("Malaysia Airlines")
	if !reflect.DeepEqual(a, b) {
		t.Error("embedding is not deterministic")
	}
}
