package resilience

import (
	"errors"
	"sync"

	"repro/internal/llm"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Plan is a deterministic fault schedule. Whether the n-th call of a given
// request identity fails — and with which error class — is a pure function
// of (Plan.Seed, request key, n), the same splittable-seeding idea behind
// llm.SplitSeed: identical runs inject identical fault sequences no matter
// how concurrent attempts interleave, so chaos runs are reproducible test
// fixtures rather than flakes.
type Plan struct {
	// Seed drives all fault randomness of this plan.
	Seed int64
	// Rate is the per-attempt fault probability in [0, 1]; 0 disables the
	// plan entirely.
	Rate float64
	// Class mix weights (relative, need not sum to 1). All-zero weights
	// default to {RateLimited: 1, Timeout: 1, Transient: 2, Permanent: 0} —
	// a provider that mostly throws retryable failures.
	RateLimited, Timeout, Transient, Permanent float64
}

func (p Plan) weights() (rl, to, tr, pm float64) {
	rl, to, tr, pm = p.RateLimited, p.Timeout, p.Transient, p.Permanent
	if rl == 0 && to == 0 && tr == 0 && pm == 0 {
		return 1, 1, 2, 0
	}
	return rl, to, tr, pm
}

// fault returns the injected error for the occ-th call of a request
// identity, or nil for a clean call.
func (p Plan) fault(key uint64, occ int) error {
	if p.Rate <= 0 {
		return nil
	}
	if unit(mix(p.Seed, key, occ, 'f')) >= p.Rate {
		return nil
	}
	rl, to, tr, pm := p.weights()
	total := rl + to + tr + pm
	if total <= 0 {
		return ErrTransient
	}
	v := unit(mix(p.Seed, key, occ, 'c')) * total
	switch {
	case v < rl:
		return ErrRateLimited
	case v < rl+to:
		return ErrTimeout
	case v < rl+to+tr:
		return ErrTransient
	default:
		return ErrPermanent
	}
}

// unit maps a hash to a uniform float in [0, 1).
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// mix hashes a plan seed, request key, attempt ordinal, and a purpose tag
// into an independent draw.
func mix(seed int64, key uint64, occ int, tag byte) uint64 {
	return llm.NewFNV64a().AddUint64(uint64(seed)).AddUint64(key).AddUint64(uint64(occ)).AddByte(tag).Sum64()
}

// requestKey identifies a request by (model, prompt, seed). Two requests
// with the same key are the same logical attempt identity; the pipeline's
// per-(doc, claim, method, try) seeding guarantees distinct attempts get
// distinct keys, which is what makes per-key occurrence counting
// order-independent. The prompt is hashed message by message with the
// '\n' separators llm.PromptText would join them with, so the key equals
// the hash of the joined text without building it.
func requestKey(req llm.Request) uint64 {
	h := llm.NewFNV64a().AddString(req.Model).AddByte(0)
	for i, m := range req.Messages {
		if i > 0 {
			h = h.AddByte('\n')
		}
		h = h.AddString(m.Content)
	}
	return h.AddByte(0).AddUint64(uint64(req.Seed)).Sum64()
}

// Faulty wraps a Client and injects Plan-scheduled transport failures. Each
// request identity owns its fault sequence: the k-th retry of one logical
// call draws fault k of that identity, independent of every other claim in
// flight, so worker counts and interleavings never change which calls fail.
//
// Failure cost model: rate-limited calls are rejected before processing (no
// tokens, only the per-call overhead of the round trip); timeouts and
// transient/permanent failures happen after the provider has done the work,
// so the underlying completion's tokens and latency are paid — the content
// is simply lost. Timed-out calls additionally pay double latency (the full
// generation plus the wait before the client gives up).
type Faulty struct {
	// Client is the underlying completion provider.
	Client llm.Client
	// Plan schedules the faults.
	Plan Plan
	// Metrics, when non-nil, receives fault counters.
	Metrics *metrics.Resilience
	// Tracer, when enabled, records a fault span per injection; the span's
	// Outcome carries the error class. Fault spans are deterministic because
	// the schedule is identity-keyed, so they participate in the golden
	// trace.
	Tracer *trace.Tracer

	mu          sync.Mutex
	occurrences map[uint64]int
}

// Complete implements llm.Client.
func (f *Faulty) Complete(req llm.Request) (llm.Response, error) {
	if f.Plan.Rate <= 0 {
		return f.Client.Complete(req)
	}
	key := requestKey(req)
	f.mu.Lock()
	if f.occurrences == nil {
		f.occurrences = make(map[uint64]int)
	}
	occ := f.occurrences[key]
	f.occurrences[key] = occ + 1
	f.mu.Unlock()

	fault := f.Plan.fault(key, occ)
	if fault == nil {
		return f.Client.Complete(req)
	}
	f.count(fault)
	if f.Tracer.Enabled() {
		class, _ := Classify(fault)
		f.Tracer.Record(trace.Span{Key: req.Attempt, Kind: trace.KindFault, Model: req.Model, Seed: req.Seed, Outcome: class})
	}
	if errors.Is(fault, ErrRateLimited) {
		return llm.Response{Latency: llm.PriceFor(req.Model).PerCallOverhead}, fault
	}
	resp, err := f.Client.Complete(req)
	if err != nil {
		return resp, err
	}
	resp.Content = ""
	if errors.Is(fault, ErrTimeout) {
		resp.Latency *= 2
	}
	return resp, fault
}

func (f *Faulty) count(fault error) {
	if f.Metrics == nil {
		return
	}
	f.Metrics.Faults.Add(1)
	switch {
	case errors.Is(fault, ErrRateLimited):
		f.Metrics.RateLimited.Add(1)
	case errors.Is(fault, ErrTimeout):
		f.Metrics.Timeouts.Add(1)
	case errors.Is(fault, ErrTransient):
		f.Metrics.Transient.Add(1)
	case errors.Is(fault, ErrPermanent):
		f.Metrics.Permanent.Add(1)
	}
}
