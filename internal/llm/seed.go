package llm

import (
	"math/rand"
	"reflect"
)

// SplitSeed derives an independent sub-seed from a base seed and a list of
// identity parts — the splittable seeding scheme behind CEDAR's deterministic
// parallelism. The verification pipeline keys each model invocation on
// (document ID, claim index, method name, try number); because every attempt
// owns its seed, outcomes depend only on the attempt's identity, never on how
// concurrent attempts interleave, so any worker count reproduces the same
// results bit for bit.
//
// The derivation is FNV-64a over the base seed and the NUL-separated parts.
// It is stable across runs and platforms; it is not cryptographic.
func SplitSeed(base int64, parts ...string) int64 {
	h := NewFNV64a().AddUint64(uint64(base))
	for _, p := range parts {
		h = h.AddByte(0).AddString(p)
	}
	return int64(h.Sum64())
}

// NewSource returns a rand.Source that yields exactly the stream of
// rand.NewSource(seed) — every Int63 and Uint64 draw, hence every
// rand.Rand method built on them — without paying for math/rand's seeding.
// rand.NewSource fills a 607-word register through 1,841 LCG steps up
// front, though a simulated completion draws only a handful of values.
//
// The lazy source relies on two facts about math/rand's generator. First,
// the seeding LCG x' = 48271·x mod (2³¹−1) has the closed form
// x_j = 48271^j·x₀, so register word i is computable on its own from a
// power table: A^(21+3i), A^(22+3i) and A^(23+3i) times the seed, shifted,
// XOR-ed, and XOR-ed with math/rand's constant rngCooked[i]. Second, draw k
// of the additive lagged-Fibonacci generator sums words 334−k and 607−k,
// neither of which an earlier draw has overwritten while k ≤ 273. From draw
// 274 on, the source hands off to a real rand.NewSource(seed) advanced by
// 273 draws.
func NewSource(seed int64) rand.Source {
	s := &lazySource{}
	s.Seed(seed)
	return s
}

const (
	rngLen   = 607 // math/rand's register length
	rngTap   = 273 // math/rand's tap distance: draws served before the hand-off
	lcgMod   = 1<<31 - 1
	lcgMul   = 48271
	lcgSkip  = 20 // LCG steps math/rand discards before filling the register
	rngMask  = 1<<63 - 1
	zeroSeed = 89482311 // math/rand's substitute for a seed ≡ 0
)

var (
	// lcgPow[j] = 48271^j mod (2³¹−1), for every step seeding takes.
	lcgPow [lcgSkip + 3*rngLen + 1]int64
	// rngCooked is math/rand's unexported seeding constant, recovered from
	// the register of rand.NewSource(1) by XOR-ing off seed 1's LCG part.
	rngCooked [rngLen]int64
)

func init() {
	p := int64(1)
	for j := range lcgPow {
		lcgPow[j] = p
		p = p * lcgMul % lcgMod
	}
	// Value.Int reads the unexported register without writing to it.
	vec := reflect.ValueOf(rand.NewSource(1)).Elem().FieldByName("vec")
	for i := range rngCooked {
		rngCooked[i] = vec.Index(i).Int() ^ lcgWord(1, i)
	}
}

// lcgWord is the LCG part of register word i for a normalized seed x.
func lcgWord(x int64, i int) int64 {
	j := lcgSkip + 1 + 3*i
	return (lcgPow[j]*x%lcgMod)<<40 ^ (lcgPow[j+1]*x%lcgMod)<<20 ^ lcgPow[j+2]*x%lcgMod
}

// lazySource implements rand.Source64; see NewSource.
type lazySource struct {
	seed  int64         // normalized into [1, 2³¹−2], as math/rand does
	draws int           // draws served from the closed form so far
	full  rand.Source64 // the real generator once draws reaches rngTap
}

func (s *lazySource) Seed(seed int64) {
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = zeroSeed
	}
	*s = lazySource{seed: seed}
}

func (s *lazySource) Uint64() uint64 {
	if s.full == nil && s.draws == rngTap {
		s.full = rand.NewSource(s.seed).(rand.Source64)
		for i := 0; i < rngTap; i++ {
			s.full.Uint64()
		}
	}
	if s.full != nil {
		return s.full.Uint64()
	}
	s.draws++
	feed, tap := rngLen-rngTap-s.draws, rngLen-s.draws
	return uint64((lcgWord(s.seed, feed) ^ rngCooked[feed]) + (lcgWord(s.seed, tap) ^ rngCooked[tap]))
}

func (s *lazySource) Int63() int64 { return int64(s.Uint64() & rngMask) }
