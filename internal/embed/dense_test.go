package embed

import (
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unicode"
)

// denseVector and the functions below are the original dense embedding
// and the original three-pass Normalize, kept as the reference the sparse
// form and the one-pass normalization must reproduce bit for bit.
type denseVector [Dim]float64

func refNormalize(text string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(text) {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(r)
		default:
			b.WriteByte(' ')
		}
	}
	return strings.Join(strings.Fields(b.String()), " ")
}

func denseGrams(text string) []string {
	norm := refNormalize(text)
	if norm == "" {
		return nil
	}
	var grams []string
	for _, word := range strings.Fields(norm) {
		grams = append(grams, "#w:"+word)
		padded := "^" + word + "$"
		if len(padded) < 3 {
			grams = append(grams, padded)
			continue
		}
		for i := 0; i+3 <= len(padded); i++ {
			grams = append(grams, padded[i:i+3])
		}
	}
	return grams
}

func denseEmbed(text string) denseVector {
	var v denseVector
	for _, gram := range denseGrams(text) {
		h := fnv.New32a()
		_, _ = h.Write([]byte(gram))
		v[int(h.Sum32()%uint32(Dim))]++
	}
	norm := 0.0
	for _, x := range v {
		norm += x * x
	}
	if norm == 0 {
		return v
	}
	norm = math.Sqrt(norm)
	for i := range v {
		v[i] /= norm
	}
	return v
}

func denseCosine(a, b denseVector) float64 {
	dot := 0.0
	for i := range a {
		dot += a[i] * b[i]
	}
	if dot > 1 {
		dot = 1
	}
	return dot
}

// densify expands a sparse vector, checking its invariants on the way:
// strictly ascending indices, one value per index, no stored zeros.
func densify(t testing.TB, v Vector) denseVector {
	t.Helper()
	if len(v.idx) != len(v.val) {
		t.Fatalf("sparse vector has %d indices but %d values", len(v.idx), len(v.val))
	}
	var d denseVector
	for k, i := range v.idx {
		if k > 0 && v.idx[k-1] >= i {
			t.Fatalf("sparse indices not strictly ascending: %v", v.idx)
		}
		if v.val[k] == 0 {
			t.Fatalf("sparse vector stores a zero at bucket %d", i)
		}
		d[i] = v.val[k]
	}
	return d
}

// matchesDense reports whether the sparse embedding and cosine of a and b
// are bit-identical to the dense reference.
func matchesDense(t testing.TB, a, b string) bool {
	t.Helper()
	if Normalize(a) != refNormalize(a) || Normalize(b) != refNormalize(b) {
		t.Errorf("Normalize(%q) or Normalize(%q) differs from the reference", a, b)
		return false
	}
	va, vb := Embed(a), Embed(b)
	da, db := denseEmbed(a), denseEmbed(b)
	if densify(t, va) != da || densify(t, vb) != db {
		t.Errorf("Embed(%q) or Embed(%q) differs from the dense reference", a, b)
		return false
	}
	if got, want := Cosine(va, vb), denseCosine(da, db); got != want {
		t.Errorf("Cosine(%q, %q) = %v, dense reference %v", a, b, got, want)
		return false
	}
	return true
}

var schemaPhrases = []string{
	"", "a", "x1", "Malaysia Airlines", "malaysia airlines", "fatal accidents",
	"fatal accidents between 2000 and 2014", "fatal_accidents_00_14",
	"incidents 85 99", "number of fatalities", "average wine servings",
	"beer servings", "Lewis Hamilton", "Grand Prix winner 1950",
	"total revenue in thousands of dollars", "revenue (USD)", "O'Brien",
	"ünïcödé wörds", "İstanbul", "\xff\xfe broken", "ABC-123", "ΣΊΣΥΦΟΣ",
	"ǅungla Ⅻ ½", "  --leading, trailing--  ", "\u00a0nbsp\u0085nel\ufffd",
	"the airline with the most incidents", "percent of countries",
	"median household income", "units sold per region",
}

func TestSparseMatchesDenseCorpus(t *testing.T) {
	for _, a := range schemaPhrases {
		for _, b := range schemaPhrases {
			matchesDense(t, a, b)
		}
	}
}

// TestSparseMatchesDenseProperty checks 5,000 random pairs, half built from
// overlapping schema words (so shared buckets are common) and half arbitrary
// strings.
func TestSparseMatchesDenseProperty(t *testing.T) {
	var words []string
	for _, p := range schemaPhrases {
		words = append(words, strings.Fields(p)...)
	}
	phrase := func(r *rand.Rand) string {
		n := r.Intn(6)
		parts := make([]string, n)
		for i := range parts {
			parts[i] = words[r.Intn(len(words))]
			if r.Intn(4) == 0 {
				parts[i] = strings.ToUpper(parts[i])
			}
		}
		return strings.Join(parts, []string{" ", "_", ", ", "-"}[r.Intn(4)])
	}
	cfg := &quick.Config{
		MaxCount: 5000,
		Values: func(args []reflect.Value, r *rand.Rand) {
			for i := range args {
				if r.Intn(2) == 0 {
					args[i] = reflect.ValueOf(phrase(r))
				} else {
					v, _ := quick.Value(reflect.TypeOf(""), r)
					args[i] = v
				}
			}
		},
	}
	f := func(a, b string) bool { return matchesDense(t, a, b) }
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func FuzzEmbedMatchesDense(f *testing.F) {
	for i := 1; i < len(schemaPhrases); i++ {
		f.Add(schemaPhrases[i-1], schemaPhrases[i])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		if !matchesDense(t, a, b) {
			t.FailNow()
		}
	})
}
