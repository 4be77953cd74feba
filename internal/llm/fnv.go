package llm

// FNV64a is a running FNV-1a 64-bit hash fed in place: it yields exactly
// the values of hash/fnv's New64a over the same bytes, without converting
// a string to a []byte for a hash.Hash64 — a copy of the whole prompt on
// every simulated completion. Start from NewFNV64a; each Add returns the
// extended hash, so calls chain.
type FNV64a uint64

const (
	fnv64Offset FNV64a = 14695981039346656037
	fnv64Prime  FNV64a = 1099511628211
)

// NewFNV64a returns the hash of no input.
func NewFNV64a() FNV64a { return fnv64Offset }

// AddString extends the hash by the bytes of s.
func (h FNV64a) AddString(s string) FNV64a {
	for i := 0; i < len(s); i++ {
		h = (h ^ FNV64a(s[i])) * fnv64Prime
	}
	return h
}

// AddBytes extends the hash by b.
func (h FNV64a) AddBytes(b []byte) FNV64a {
	for _, c := range b {
		h = (h ^ FNV64a(c)) * fnv64Prime
	}
	return h
}

// AddByte extends the hash by one byte.
func (h FNV64a) AddByte(c byte) FNV64a { return (h ^ FNV64a(c)) * fnv64Prime }

// AddUint64 extends the hash by the 8 little-endian bytes of v, as
// binary.LittleEndian.PutUint64 would lay them out.
func (h FNV64a) AddUint64(v uint64) FNV64a {
	for i := 0; i < 8; i++ {
		h = (h ^ FNV64a(byte(v>>(8*i)))) * fnv64Prime
	}
	return h
}

// Sum64 returns the hash value.
func (h FNV64a) Sum64() uint64 { return uint64(h) }
