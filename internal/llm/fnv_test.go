package llm

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
	"testing/quick"
)

// refFNV feeds the same input through hash/fnv: each string, then the
// byte, then the uint64 as 8 little-endian bytes.
func refFNV(parts []string, sep byte, v uint64) uint64 {
	h := fnv.New64a()
	for _, p := range parts {
		_, _ = h.Write([]byte(p))
		_, _ = h.Write([]byte{sep})
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	_, _ = h.Write(buf[:])
	return h.Sum64()
}

func inlineFNV(parts []string, sep byte, v uint64) uint64 {
	h := NewFNV64a()
	for i, p := range parts {
		if i%2 == 0 {
			h = h.AddString(p)
		} else {
			h = h.AddBytes([]byte(p))
		}
		h = h.AddByte(sep)
	}
	return h.AddUint64(v).Sum64()
}

// TestFNV64aMatchesHashFNV pins the inline hash to hash/fnv's New64a over
// a quick.Check corpus of strings, byte slices, separators and words.
func TestFNV64aMatchesHashFNV(t *testing.T) {
	if got, want := NewFNV64a().Sum64(), fnv.New64a().Sum64(); got != want {
		t.Fatalf("empty hash %#x, hash/fnv %#x", got, want)
	}
	f := func(parts []string, sep byte, v uint64) bool {
		return inlineFNV(parts, sep, v) == refFNV(parts, sep, v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// refSplitSeed is SplitSeed's hash/fnv form.
func refSplitSeed(base int64, parts ...string) int64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(base))
	_, _ = h.Write(buf[:])
	for _, p := range parts {
		_, _ = h.Write([]byte{0})
		_, _ = h.Write([]byte(p))
	}
	return int64(h.Sum64())
}

func TestSplitSeedMatchesHashFNV(t *testing.T) {
	f := func(base int64, parts []string) bool {
		return SplitSeed(base, parts...) == refSplitSeed(base, parts...)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func FuzzFNV64a(f *testing.F) {
	f.Add("", "", byte(0), uint64(0))
	f.Add("gpt-4o", "Claim: the value of x\nCREATE TABLE \"t\" (\"a\" INTEGER)", byte('\n'), uint64(1<<63))
	f.Add("\xff\xfe", "ünïcödé", byte(0xff), uint64(42))
	f.Fuzz(func(t *testing.T, a, b string, sep byte, v uint64) {
		parts := []string{a, b}
		if got, want := inlineFNV(parts, sep, v), refFNV(parts, sep, v); got != want {
			t.Fatalf("inline %#x, hash/fnv %#x", got, want)
		}
		if got, want := SplitSeed(int64(v), a, b), refSplitSeed(int64(v), a, b); got != want {
			t.Fatalf("SplitSeed %d, hash/fnv form %d", got, want)
		}
	})
}
