package sim

import (
	"sync"
	"testing"

	"repro/internal/llm"
)

// TestModelConcurrentCompletions drives one shared simulated model from 32
// goroutines mixing temperature-0 and seeded temperature-0.9 requests. The
// model holds no state that affects its output (its schema memo is a pure
// cache), so every goroutine must observe exactly the response the same
// request produces in isolation (run under -race via make check).
func TestModelConcurrentCompletions(t *testing.T) {
	const goroutines = 32
	const perGoroutine = 20
	db := simDB(t)
	m, err := New(llm.ModelGPT4o, 11)
	if err != nil {
		t.Fatal(err)
	}
	prompts := []string{
		oneShotPrompt(db, "Malaysia Airlines recorded x fatal accidents between 2000 and 2014."),
		oneShotPrompt(db, "A total of x fatalities between 2000 and 2014 were recorded across all airlines."),
		oneShotPrompt(db, "Aer Lingus recorded x incidents between 1985 and 1999."),
	}
	type key struct {
		prompt int
		temp   float64
		seed   int64
	}
	// Reference responses computed serially before any concurrency.
	want := map[key]string{}
	for pi := range prompts {
		for _, temp := range []float64{0, 0.9} {
			for seed := int64(0); seed < 4; seed++ {
				k := key{pi, temp, seed}
				want[k] = completeSeeded(t, m, prompts[pi], temp, seed)
			}
		}
	}

	var wg sync.WaitGroup
	var mu sync.Mutex
	mismatches := 0
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perGoroutine; i++ {
				k := key{(g + i) % len(prompts), []float64{0, 0.9}[(g+i)%2], int64(i % 4)}
				resp, err := m.Complete(llm.Request{
					Model:       llm.ModelGPT4o,
					Messages:    []llm.Message{{Role: llm.RoleUser, Content: prompts[k.prompt]}},
					Temperature: k.temp,
					Seed:        k.seed,
				})
				if err != nil {
					t.Error(err)
					return
				}
				if resp.Content != want[k] {
					mu.Lock()
					mismatches++
					mu.Unlock()
				}
			}
		}(g)
	}
	wg.Wait()
	if mismatches > 0 {
		t.Errorf("%d concurrent completions differed from their serial reference", mismatches)
	}
}
