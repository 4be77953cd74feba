package resilience

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/llm"
)

// refRequestKey is requestKey's hash/fnv form over the joined prompt.
func refRequestKey(req llm.Request) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(req.Model))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(llm.PromptText(req.Messages)))
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(req.Seed))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write(buf[:])
	return h.Sum64()
}

func requestOf(model string, contents []string, seed int64) llm.Request {
	req := llm.Request{Model: model, Seed: seed}
	for _, c := range contents {
		req.Messages = append(req.Messages, llm.Message{Role: "user", Content: c})
	}
	return req
}

// TestRequestKeyMatchesJoinedPrompt: hashing the messages in place with
// their '\n' separators gives the key of the joined prompt text, so fault
// schedules are unchanged.
func TestRequestKeyMatchesJoinedPrompt(t *testing.T) {
	f := func(model string, contents []string, seed int64) bool {
		req := requestOf(model, contents, seed)
		return requestKey(req) == refRequestKey(req)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// TestRetrierLazyKeyKeepsBackoff: the key computed at the first retry
// yields the same waits as one computed up front from the joined prompt.
func TestRetrierLazyKeyKeepsBackoff(t *testing.T) {
	f := func(contents []string, seed, rseed int64) bool {
		req := requestOf(llm.ModelGPT4o, contents, seed)
		var waits []time.Duration
		r := &Retrier{
			Client:      &scriptClient{fn: func(int, llm.Request) (llm.Response, error) { return llm.Response{}, ErrRateLimited }},
			MaxAttempts: 4,
			Seed:        rseed,
			Sleep:       func(d time.Duration) { waits = append(waits, d) },
		}
		_, _ = r.Complete(req)
		if len(waits) != 3 {
			return false
		}
		for i, d := range waits {
			if d != r.backoff(refRequestKey(req), i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// refMix is mix's hash/fnv form.
func refMix(seed int64, key uint64, occ int, tag byte) uint64 {
	h := fnv.New64a()
	var buf [24]byte
	binary.LittleEndian.PutUint64(buf[0:], uint64(seed))
	binary.LittleEndian.PutUint64(buf[8:], key)
	binary.LittleEndian.PutUint64(buf[16:], uint64(occ))
	_, _ = h.Write(buf[:])
	_, _ = h.Write([]byte{tag})
	return h.Sum64()
}

func TestMixMatchesHashFNV(t *testing.T) {
	f := func(seed int64, key uint64, occ int, tag byte) bool {
		return mix(seed, key, occ, tag) == refMix(seed, key, occ, tag)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}
