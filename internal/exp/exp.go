// Package exp contains one driver per table and figure of the paper's
// evaluation (Section 7). Each driver generates its workload, runs CEDAR
// and/or the baselines, and returns a result whose Render method prints the
// same rows/series the paper reports. The drivers are used by the
// cedar-bench command and by the repository's benchmark suite.
package exp

import (
	"fmt"
	"time"

	"repro/internal/claim"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/metrics"
	"repro/internal/profile"
	"repro/internal/schedule"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/verify"
)

// Stack is the standard method stack of Section 7.1 (verify.NewStack) with
// the run settings of experiment pipelines.
type Stack struct {
	*verify.Stack
	// Workers bounds concurrent claim verification in pipeline runs; values
	// < 2 run sequentially. Results are identical for any worker count (the
	// splittable seeding of internal/core), so experiments may parallelize
	// freely without perturbing reported numbers.
	Workers int
	// Tracer is the attempt-level span recorder wired through the middleware
	// when the stack was built with ResilienceOptions.Tracer; pipeline runs
	// thread it into core.Config so spans carry attempt identities.
	Tracer *trace.Tracer

	seed int64
}

// ResilienceOptions configure the optional resilience middleware of an
// experiment stack, mirroring the knobs of cedar.Options.
type ResilienceOptions struct {
	// FaultRate injects deterministic transport failures at this per-attempt
	// probability; 0 disables injection.
	FaultRate float64
	// Retries is the number of additional attempts per failed retryable call.
	Retries int
	// Timeout bounds one logical call's simulated wall time across retries.
	Timeout time.Duration
	// HedgeAfter races a backup completion once the primary exceeds this
	// simulated latency.
	HedgeAfter time.Duration
	// BreakerThreshold trips a per-model circuit breaker after this many
	// consecutive failures (order-dependent; see resilience.Breaker).
	BreakerThreshold int
	// Tracer, when non-nil, records attempt-level spans from every middleware
	// layer (see internal/trace); nil disables tracing.
	Tracer *trace.Tracer
	// Store, when non-nil, installs a temperature-0 completion cache backed
	// by this persistent result store (DESIGN.md §11). Cached hits,
	// in-memory or persisted, are never billed.
	Store *store.Store
}

// DefaultResilience is applied by NewStack; the cedar-bench and
// cedar-profile commands set it from their flags so every experiment driver
// picks the knobs up without each driver threading them through.
var DefaultResilience ResilienceOptions

// NewStack builds the method stack over fresh simulated models, applying
// DefaultResilience.
func NewStack(seed int64) (*Stack, error) {
	return NewStackResilient(seed, DefaultResilience)
}

// NewStackResilient builds the method stack with explicit resilience knobs.
func NewStackResilient(seed int64, ro ResilienceOptions) (*Stack, error) {
	return newStack(verify.StackConfig{
		Seed:             seed,
		FaultRate:        ro.FaultRate,
		Cache:            ro.Store != nil,
		Store:            ro.Store,
		HedgeAfter:       ro.HedgeAfter,
		Retries:          ro.Retries,
		Timeout:          ro.Timeout,
		BreakerThreshold: ro.BreakerThreshold,
		Tracer:           ro.Tracer,
	})
}

// newStack wraps verify.NewStack for experiment pipelines.
func newStack(cfg verify.StackConfig) (*Stack, error) {
	vs, err := verify.NewStack(cfg)
	if err != nil {
		return nil, err
	}
	return &Stack{Stack: vs, Tracer: cfg.Tracer, seed: cfg.Seed}, nil
}

// Profile estimates method statistics on a held-out corpus.
func (s *Stack) Profile(profDocs []*claim.Document) ([]schedule.MethodStats, error) {
	return profile.Run(s.Methods, profDocs, s.Ledger, profile.Options{})
}

// RunCEDAR plans a schedule at the accuracy target, verifies the documents,
// and returns the quality metrics plus the run's resource consumption.
func (s *Stack) RunCEDAR(stats []schedule.MethodStats, target float64, docs []*claim.Document) (metrics.Quality, metrics.RunCost, *core.Pipeline, error) {
	p, err := core.New(core.Config{Methods: s.Methods, Stats: stats, AccuracyTarget: target, Seed: s.seed, Workers: s.Workers, Tracer: s.Tracer})
	if err != nil {
		return metrics.Quality{}, metrics.RunCost{}, nil, err
	}
	q, rc := s.runPipeline(p, docs)
	return q, rc, p, nil
}

// RunSchedule verifies the documents under a fixed schedule.
func (s *Stack) RunSchedule(plan *schedule.Schedule, docs []*claim.Document) (metrics.Quality, metrics.RunCost, error) {
	p, err := core.NewWithSchedule(core.Config{Methods: s.Methods, Seed: s.seed, Workers: s.Workers, Tracer: s.Tracer}, plan)
	if err != nil {
		return metrics.Quality{}, metrics.RunCost{}, err
	}
	q, rc := s.runPipeline(p, docs)
	return q, rc, nil
}

func (s *Stack) runPipeline(p *core.Pipeline, docs []*claim.Document) (metrics.Quality, metrics.RunCost) {
	s.Ledger.Reset()
	// Like the ledger, a trace covers exactly one pipeline run.
	s.Tracer.Reset()
	p.VerifyDocumentsParallel(docs, s.Workers)
	rc := metrics.RunCost{
		Dollars: s.Ledger.TotalDollars(),
		Calls:   s.Ledger.TotalCalls(),
		Wall:    s.Ledger.TotalWall(),
		Claims:  claim.TotalClaims(docs),
	}
	s.Ledger.Reset()
	return metrics.Evaluate(docs), rc
}

// profileSeed offsets a corpus seed to derive the held-out profiling corpus
// for the same benchmark shape.
func profileSeed(seed int64) int64 { return seed + 1000003 }

// datasetSpec names a benchmark and its generator.
type datasetSpec struct {
	name string
	gen  func(seed int64) ([]*claim.Document, error)
}

func standardDatasets() []datasetSpec {
	return []datasetSpec{
		{name: "AggChecker", gen: data.AggChecker},
		{name: "TabFact", gen: data.TabFact},
		{name: "WikiText", gen: data.WikiText},
	}
}

func pct(x float64) string { return fmt.Sprintf("%.1f", x*100) }
