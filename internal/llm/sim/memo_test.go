package sim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/llm"
	"repro/internal/nl"
	"repro/internal/prompts"
	"repro/internal/sqldb"
)

// refRNGSeeds are rngFor's and conversationRNG's seeds computed through
// hash/fnv with the prompt copied to a []byte and the temperature printed
// by fmt.
func refRNGSeeds(m *Model, prompt string, req llm.Request) (oneShot, agent int64) {
	seeds := func(h interface{ Write([]byte) (int, error) }) {
		_, _ = h.Write([]byte(samplingSalt))
		var buf [16]byte
		binary.LittleEndian.PutUint64(buf[:8], uint64(m.seed))
		binary.LittleEndian.PutUint64(buf[8:], uint64(req.Seed))
		_, _ = h.Write(buf[:])
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(m.profile.Name))
	_, _ = h.Write([]byte(prompt))
	if req.Temperature > 0 {
		seeds(h)
		fmt.Fprintf(h, "%.4f", req.Temperature)
	}
	oneShot = int64(h.Sum64())

	h = fnv.New64a()
	_, _ = h.Write([]byte(m.profile.Name))
	_, _ = h.Write([]byte(prompt))
	fmt.Fprintf(h, "%.4f", req.Temperature)
	if req.Temperature > 0 {
		seeds(h)
	}
	return oneShot, int64(h.Sum64())
}

// TestRNGSeedsMatchHashFNV: the in-place hashes seed the same streams as
// the hash/fnv forms they replaced, at any prompt, seed and temperature.
func TestRNGSeedsMatchHashFNV(t *testing.T) {
	m, err := New(llm.ModelGPT4o, 5)
	if err != nil {
		t.Fatal(err)
	}
	same := func(got *rand.Rand, seed int64) bool {
		want := rand.New(llm.NewSource(seed))
		return got.Int63() == want.Int63() && got.Int63() == want.Int63()
	}
	f := func(prompt string, seed int64, temp float64) bool {
		req := llm.Request{Seed: seed, Temperature: temp}
		oneShot, agent := refRNGSeeds(m, prompt, req)
		return same(m.rngFor(prompt, req), oneShot) && same(m.conversationRNG(prompt, req), agent)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	for _, temp := range []float64{0, 0.25, 0.5, 0.9, 1e-5, 0.00005, 123456.789, math.Inf(1), math.NaN(), -0.5} {
		if !f("CREATE TABLE \"t\" (\"a\" INTEGER)", 7, temp) {
			t.Errorf("temperature %v: seeds differ from the hash/fnv form", temp)
		}
	}
}

// TestSchemaMemoMatchesFreshParse shares one model between goroutines that
// interleave prompts over three catalog states — before and after a table
// is added, and after it is replaced with different columns — and checks
// every memoized schema against a fresh parse of the full prompt, and every
// completion against a model that never saw another catalog.
func TestSchemaMemoMatchesFreshParse(t *testing.T) {
	db := simDB(t)
	const claim = "Malaysia Airlines recorded x fatal accidents between 2000 and 2014."
	var ps []string
	add := func() {
		ps = append(ps,
			oneShotPrompt(db, claim),
			"Run: 0\n"+prompts.Agent(claim, "numeric", db.Schema(), "", "ctx"))
	}
	add()
	routes := sqldb.NewTable("routes", "airline", "routes")
	routes.MustAppendRow(sqldb.Text("Aer Lingus"), sqldb.Int(12))
	db.AddTable(routes)
	add()
	routes = sqldb.NewTable("routes", "airline", "destinations", "hubs")
	routes.MustAppendRow(sqldb.Text("Aer Lingus"), sqldb.Int(40), sqldb.Int(2))
	db.AddTable(routes)
	add()

	fresh := make([]*nl.Schema, len(ps))
	want := make([]string, len(ps))
	for i, p := range ps {
		fresh[i] = nl.ParseSchemaText(p)
		if !reflect.DeepEqual(nl.ParseSchemaText(nl.SchemaBlock(p)), fresh[i]) {
			t.Fatalf("prompt %d: parsing its CREATE TABLE block differs from parsing the prompt", i)
		}
		m, err := New(llm.ModelGPT4o, 3)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = complete(t, m, p, 0)
	}
	if reflect.DeepEqual(fresh[0], fresh[2]) || reflect.DeepEqual(fresh[2], fresh[4]) {
		t.Fatal("catalog changes did not change the prompt schema")
	}

	shared, err := New(llm.ModelGPT4o, 3)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				k := (w + i*7) % len(ps)
				if got := shared.schemaOf(ps[k]); !reflect.DeepEqual(got, fresh[k]) {
					errs <- fmt.Errorf("prompt %d: memoized schema %+v, fresh parse %+v", k, got, fresh[k])
					return
				}
				resp, err := shared.Complete(llm.Request{
					Model:    shared.Profile().Name,
					Messages: []llm.Message{{Role: llm.RoleUser, Content: ps[k]}},
				})
				if err != nil || resp.Content != want[k] {
					errs <- fmt.Errorf("prompt %d: completion %q (err %v) with a shared memo, %q fresh", k, resp.Content, err, want[k])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
