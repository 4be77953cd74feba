package llm

import (
	"strings"
	"testing"
	"testing/quick"
)

var fieldsCorpus = []string{
	"",
	" ",
	"word",
	"  leading and trailing  ",
	"tabs\tand\nnewlines\r\nand\vvertical\ffeeds",
	"nbsp separated words",
	"next\u0085line",
	"ideographic　space and em space",
	"line separator paragraph",
	"invalid \xff\xfe utf8 \xc3",
	"\xe2\x80",
	" \u0085 \t",
	"ünïcödé wörds — with dashes",
	`CREATE TABLE "t" ("a" INTEGER, "b" TEXT)`,
}

// TestCountFieldsMatchesStringsFields pins the in-place field count against
// len(strings.Fields), including invalid UTF-8 and the Latin-1 spaces U+0085
// and U+00A0.
func TestCountFieldsMatchesStringsFields(t *testing.T) {
	for _, s := range fieldsCorpus {
		if got, want := countFields(s), len(strings.Fields(s)); got != want {
			t.Errorf("countFields(%q) = %d, want %d", s, got, want)
		}
	}
	f := func(s string) bool { return countFields(s) == len(strings.Fields(s)) }
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestCountTokensAllocFree(t *testing.T) {
	text := strings.Repeat("Malaysia Airlines recorded 2 fatal accidents.\n", 20)
	if allocs := testing.AllocsPerRun(100, func() { CountTokens(text) }); allocs != 0 {
		t.Errorf("CountTokens allocates %v times per call, want 0", allocs)
	}
}

func FuzzCountTokens(f *testing.F) {
	for _, s := range fieldsCorpus {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := countFields(s), len(strings.Fields(s)); got != want {
			t.Fatalf("countFields(%q) = %d, want %d", s, got, want)
		}
	})
}
