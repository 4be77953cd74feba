package verify

import (
	"time"

	"repro/internal/llm"
	"repro/internal/llm/resilience"
	"repro/internal/llm/sim"
	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/trace"
)

// Labels of the four standard methods of Section 7.1.
const (
	MethodOneShot35 = "oneshot-gpt3.5"
	MethodOneShot4o = "oneshot-gpt4o"
	MethodAgent4o   = "agent-gpt4o"
	MethodAgent41   = "agent-gpt4.1"
)

// StackConfig configures NewStack's per-model middleware chain. The zero
// value builds bare metered models; each positive knob installs one layer.
type StackConfig struct {
	// Seed drives the simulated models, the fault plans, and the retry
	// jitter; equal seeds reproduce runs exactly.
	Seed int64
	// ThrottleScale, when positive, makes every attempt pay this fraction of
	// its simulated latency as a real sleep (llm.Throttled). Wait-bound
	// benchmarks use it to model provider-latency-bound serving.
	ThrottleScale float64
	// FaultRate injects deterministic transport failures at this
	// per-attempt probability.
	FaultRate float64
	// Cache installs a temperature-0 completion cache; Store, when non-nil,
	// persists it across processes.
	Cache bool
	Store *store.Store
	// HedgeAfter races a backup completion once the primary exceeds this
	// simulated latency.
	HedgeAfter time.Duration
	// Retries is the number of additional attempts per failed retryable
	// call; Timeout bounds one logical call's simulated wall time across
	// retries.
	Retries int
	Timeout time.Duration
	// BreakerThreshold trips a per-model circuit breaker after this many
	// consecutive failures (order-dependent; see resilience.Breaker).
	BreakerThreshold int
	// Tracer, when non-nil, records attempt-level spans from every layer.
	Tracer *trace.Tracer
}

// Stack is the standard method stack of Section 7.1 — one-shot with GPT-3.5
// and GPT-4o, agents with GPT-4o and GPT-4.1 — over simulated models, with
// the ledger metering all of them.
type Stack struct {
	Methods []Method
	Ledger  *llm.Ledger
	// Resilience accumulates the middleware's operational counters.
	Resilience *metrics.Resilience

	caches []*llm.Cached
}

// NewStack builds the standard method stack. Middleware order, inner to
// outer: sim → [Throttled] → Faulty → Metered → [Cached] → Hedged → Retrier
// → Breaker. The throttle sits directly over the model so every attempt —
// including ones a fault injector or retrier discards — pays its wire time;
// faults sit inside the meter so failed attempts are billed; the cache sits
// outside the meter so hits are free; the retrier sits outside the cache and
// hedger so each retry is a full fresh call; the breaker is outermost so it
// counts logical (post-retry) failures and its sheds never reach the
// retrier.
func NewStack(cfg StackConfig) (*Stack, error) {
	s := &Stack{Ledger: llm.NewLedger(), Resilience: &metrics.Resilience{}}
	clients := make(map[string]llm.Client, 3)
	for _, model := range []string{llm.ModelGPT35, llm.ModelGPT4o, llm.ModelGPT41} {
		c, err := s.client(cfg, model)
		if err != nil {
			return nil, err
		}
		clients[model] = c
	}
	s.Methods = []Method{
		NewOneShot(clients[llm.ModelGPT35], llm.ModelGPT35, MethodOneShot35),
		NewOneShot(clients[llm.ModelGPT4o], llm.ModelGPT4o, MethodOneShot4o),
		NewAgent(clients[llm.ModelGPT4o], llm.ModelGPT4o, MethodAgent4o, cfg.Seed),
		NewAgent(clients[llm.ModelGPT41], llm.ModelGPT41, MethodAgent41, cfg.Seed+1),
	}
	return s, nil
}

// client wraps one simulated model in the configured middleware chain.
func (s *Stack) client(cfg StackConfig, model string) (llm.Client, error) {
	m, err := sim.New(model, cfg.Seed)
	if err != nil {
		return nil, err
	}
	var c llm.Client = m
	if cfg.ThrottleScale > 0 {
		c = &llm.Throttled{Client: c, Scale: cfg.ThrottleScale, Tracer: cfg.Tracer}
	}
	if cfg.FaultRate > 0 {
		c = &resilience.Faulty{
			Client:  c,
			Plan:    resilience.Plan{Seed: llm.SplitSeed(cfg.Seed, "faults", model), Rate: cfg.FaultRate},
			Metrics: s.Resilience,
			Tracer:  cfg.Tracer,
		}
	}
	c = &llm.Metered{Client: c, Ledger: s.Ledger, Tracer: cfg.Tracer}
	if cfg.Cache {
		cached := llm.NewCached(c, 0)
		cached.Tracer = cfg.Tracer
		cached.Persist = cfg.Store
		s.caches = append(s.caches, cached)
		c = cached
	}
	if cfg.HedgeAfter > 0 {
		c = &resilience.Hedged{Client: c, After: cfg.HedgeAfter, Metrics: s.Resilience, Tracer: cfg.Tracer}
	}
	if cfg.Retries > 0 || cfg.Timeout > 0 {
		c = &resilience.Retrier{
			Client:      c,
			MaxAttempts: cfg.Retries + 1,
			Deadline:    cfg.Timeout,
			Seed:        llm.SplitSeed(cfg.Seed, "retry", model),
			Metrics:     s.Resilience,
			Tracer:      cfg.Tracer,
		}
	}
	if cfg.BreakerThreshold > 0 {
		c = &resilience.Breaker{Client: c, FailureThreshold: cfg.BreakerThreshold, Metrics: s.Resilience, Tracer: cfg.Tracer}
	}
	return c, nil
}

// PersistedHits sums persisted-store hits across the per-model completion
// caches — a lifetime counter, zero without a cache.
func (s *Stack) PersistedHits() int {
	total := 0
	for _, c := range s.caches {
		_, hits := c.PersistStats()
		total += hits
	}
	return total
}
