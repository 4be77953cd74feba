package llm

import (
	"math"
	"math/rand"
	"testing"
)

// exactnessSeeds covers the seed normalization edge cases of math/rand
// (zero, the LCG modulus and its negation, the int64 extremes, and the
// substitute seed 89482311 that zero maps to) plus a spread of ordinary
// and hash-shaped seeds.
func exactnessSeeds() []int64 {
	seeds := []int64{
		0, 1, -1, 2, 89482311, -89482311,
		math.MaxInt32, -math.MaxInt32, math.MaxInt32 - 1, math.MaxInt32 + 1,
		2 * math.MaxInt32, -2 * math.MaxInt32,
		math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1,
	}
	g := rand.New(rand.NewSource(20250611))
	for len(seeds) < 320 {
		seeds = append(seeds, int64(g.Uint64()))
	}
	return seeds
}

// TestNewSourceMatchesMathRand pins llm.NewSource draw for draw against
// rand.NewSource, well past the 273-draw hand-off to the full register.
func TestNewSourceMatchesMathRand(t *testing.T) {
	for _, seed := range exactnessSeeds() {
		want := rand.NewSource(seed).(rand.Source64)
		got := NewSource(seed).(rand.Source64)
		for k := 0; k < 700; k++ {
			var w, g uint64
			if k%2 == 0 {
				w, g = want.Uint64(), got.Uint64()
			} else {
				w, g = uint64(want.Int63()), uint64(got.Int63())
			}
			if w != g {
				t.Fatalf("seed %d draw %d: got %d want %d", seed, k+1, g, w)
			}
		}
	}
}

// TestNewSourceRandMethods compares the rand.Rand conveniences the
// simulator and baselines use on top of the source.
func TestNewSourceRandMethods(t *testing.T) {
	for _, seed := range exactnessSeeds() {
		want := rand.New(rand.NewSource(seed))
		got := rand.New(NewSource(seed))
		for k := 0; k < 60; k++ {
			if w, g := want.Float64(), got.Float64(); w != g {
				t.Fatalf("seed %d Float64 #%d: got %v want %v", seed, k, g, w)
			}
			if w, g := want.Intn(k+1), got.Intn(k+1); w != g {
				t.Fatalf("seed %d Intn(%d): got %d want %d", seed, k+1, g, w)
			}
			if w, g := want.Uint64(), got.Uint64(); w != g {
				t.Fatalf("seed %d Uint64 #%d: got %d want %d", seed, k, g, w)
			}
		}
		w, g := want.Perm(40), got.Perm(40)
		for i := range w {
			if w[i] != g[i] {
				t.Fatalf("seed %d Perm(40): got %v want %v", seed, g, w)
			}
		}
	}
}

// TestNewSourceReseed checks that Seed restarts the stream, including after
// the hand-off to the full register.
func TestNewSourceReseed(t *testing.T) {
	src := NewSource(7)
	for i := 0; i < 300; i++ {
		src.Int63()
	}
	src.Seed(-42)
	want := rand.NewSource(-42)
	for k := 0; k < 400; k++ {
		if w, g := want.Int63(), src.Int63(); w != g {
			t.Fatalf("after reseed, draw %d: got %d want %d", k+1, g, w)
		}
	}
}

var drawSink float64

// BenchmarkNewSourceThreeDraws is the per-completion RNG cost: seed a source
// and take the few draws a one-shot completion does.
func BenchmarkNewSourceThreeDraws(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := rand.New(NewSource(int64(i)))
		drawSink += r.Float64() + r.Float64() + float64(r.Intn(2))
	}
}
