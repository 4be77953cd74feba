package nl

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// schemaLines mixes CREATE TABLE lines (any case, indented, CRLF, without a
// column list) with the prose a prompt wraps them in.
var schemaLines = []string{
	`CREATE TABLE "airlines" ("airline" TEXT, "incidents_85_99" INTEGER)`,
	`  create table "routes" ("airline" TEXT, "hubs" REAL)` + "\r",
	`CREATE TABLE "grand prix" ("Driver Name" TEXT, "Wins" INTEGER);`,
	`CREATE TABLE missing_parens`,
	`CREATE TABLE "" ("a" INTEGER)`,
	"",
	"   ",
	"Claim: x fatal accidents were recorded.",
	"Schema:",
	"CREATE TABL",
}

// TestSchemaBlockParsesLikeWholeText: the CREATE TABLE block carries every
// line ParseSchemaText reads, and the line walk matches a strings.Split
// over the same text.
func TestSchemaBlockParsesLikeWholeText(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		lines := make([]string, int(n)%12)
		for i := range lines {
			lines[i] = schemaLines[rng.Intn(len(schemaLines))]
		}
		text := strings.Join(lines, "\n")
		if rng.Intn(2) == 0 {
			text += "\n"
		}
		whole := ParseSchemaText(text)
		var split Schema
		for _, line := range strings.Split(text, "\n") {
			split.Tables = append(split.Tables, ParseSchemaText(line).Tables...)
		}
		return reflect.DeepEqual(ParseSchemaText(SchemaBlock(text)), whole) &&
			reflect.DeepEqual(split.Tables, whole.Tables)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	if b := SchemaBlock("no schema here\n"); b != "" {
		t.Errorf("SchemaBlock without CREATE TABLE lines = %q, want empty", b)
	}
}
