// Package trace is CEDAR's attempt-level observability layer: a structured
// event stream recording where every token, dollar, and (simulated)
// millisecond of a verification run went. The paper's demo centers on
// inspectable verification — Figure 4 shows per-claim method traces and
// Section 7 reports cost/quality/throughput — and after claim-level
// parallelism (DESIGN.md §8) and resilient middleware (§9) the aggregate
// counters alone no longer explain a run. The trace does.
//
// The design follows the same identity discipline as the splittable seeding
// and the deterministic fault injector: every span is keyed by the attempt
// identity (document, claim index, method, try) it belongs to, and ordered
// within that identity by a per-key sequence number. Because one logical
// attempt executes on a single goroutine — retries, hedges, cache waits and
// all — the per-key order is a pure function of the attempt, never of how
// concurrent attempts interleave. Sorting the stream by (key, seq) therefore
// yields a byte-identical trace at any worker count, which makes the trace a
// correctness oracle for the determinism contract, not just a debugging aid.
// The two documented exceptions are the circuit breaker (shared state, §9)
// and per-attempt cache-hit attribution under single-flight (which attempt
// leads a concurrent miss is scheduling-dependent); both are off in the
// golden-trace gate.
//
// Tracing is zero-cost when disabled: a nil *Tracer is a valid no-op
// recorder, every producer guards with Enabled() before building a span, and
// Record on nil returns immediately without allocating.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Key identifies one pipeline attempt: which document, which claim (by its
// stable position in the document), which verification method, and which try
// of the schedule step. It is the same identity the pipeline feeds to
// llm.SplitSeed, so spans line up one-to-one with seeded model invocations.
// The zero Key labels anonymous traffic (e.g. profiling runs).
type Key struct {
	Doc    string `json:"doc"`
	Claim  int    `json:"claim"`
	Method string `json:"method"`
	Try    int    `json:"try"`
}

// Span kinds. KindAttempt is the canonical per-model-attempt record (one per
// completion reaching the metering layer); the remaining kinds annotate the
// attempt with middleware events.
const (
	// KindAttempt is one model completion: tokens, fee, simulated latency,
	// and an ok/error outcome. Recorded by llm.Metered.
	KindAttempt = "attempt"
	// KindCacheHit is a temperature-0 completion answered from cache without
	// invoking the model. Recorded by llm.Cached.
	KindCacheHit = "cache_hit"
	// KindCacheWait is a single-flight wait on a concurrent leader's model
	// call; counted as a hit (the model was not re-invoked). Recorded by
	// llm.Cached; Outcome reports whether the awaited leader succeeded.
	KindCacheWait = "cache_wait"
	// KindFault is an injected transport failure; Outcome carries the error
	// class. Recorded by resilience.Faulty.
	KindFault = "fault"
	// KindRetry is a backoff-then-retry decision; Latency carries the
	// deterministic jittered wait. Recorded by resilience.Retrier.
	KindRetry = "retry"
	// KindHedge is a backup completion fired against a slow primary;
	// KindHedgeWin marks the subset where the backup won the simulated race.
	// Recorded by resilience.Hedged.
	KindHedge    = "hedge"
	KindHedgeWin = "hedge_win"
	// Breaker events: a call shed by an open circuit, a trip into the open
	// state, and a half-open probe admission. Recorded by resilience.Breaker.
	// Breaker spans are order-dependent (DESIGN.md §9) and excluded from the
	// golden-trace determinism gate.
	KindBreakerShed  = "breaker_shed"
	KindBreakerTrip  = "breaker_trip"
	KindBreakerProbe = "breaker_probe"
	// KindThrottle is a real wall-clock sleep imposed by llm.Throttled;
	// Latency carries the scaled sleep. Recorded by llm.Throttled.
	KindThrottle = "throttle"
	// KindPersistHit is a temperature-0 completion answered from the
	// persistent result store (DESIGN.md §11) without invoking the model. The
	// span carries a full replica of the attempt it replays — tokens, the fee
	// the original attempt was billed, simulated latency — so a warm trace
	// normalized by ReplayNormalize is byte-identical to its cold
	// counterpart. The ledger books nothing for these. Recorded by
	// llm.Cached.
	KindPersistHit = "persist_hit"
	// KindMemoMismatch marks a verdict memo in the persistent store that
	// disagreed with the freshly computed verdict — the memo layer is a
	// validating oracle, not a bypass, so a mismatch is surfaced and the memo
	// overwritten rather than trusted. Recorded by cedar.System.
	KindMemoMismatch = "memo_mismatch"
	// KindOutcome is the terminal verdict of one verification attempt:
	// "verified", "implausible", or a transport-error class. Recorded by
	// verify.AttemptWith.
	KindOutcome = "outcome"
	// Shard-routing events recorded by the serve coordinator (DESIGN.md §13):
	// KindShardRoute says which replica answered a routed request (Detail
	// carries the replica, Outcome ok/error mirrors the relay), KindShardFailover
	// marks one hop off a dead or draining replica (Detail carries the replica
	// that was skipped). Both depend on topology and replica health — the same
	// workload routed over a different shard count produces different spans —
	// so ReplayNormalize drops them: verification spans, not routing spans,
	// are the cross-topology identity surface.
	KindShardRoute    = "shard_route"
	KindShardFailover = "shard_failover"
	// Streaming events recorded by the incremental pipeline (DESIGN.md §14):
	// KindStreamAdmit marks one document's admission into the bounded
	// in-flight window (Detail carries the arrival ordinal), KindStreamResult
	// marks its verdicts being emitted. Both depend on arrival order — the
	// same corpus streamed in a different order produces different stream
	// spans — so ReplayNormalize drops them: verification spans, not arrival
	// spans, are the stream-vs-batch identity surface.
	KindStreamAdmit  = "stream_admit"
	KindStreamResult = "stream_result"
	// KindIngestSample records a dataset-ingestion sampling decision (DESIGN.md
	// §15): Detail carries the dataset name, rows seen vs kept, the byte
	// budget outcome, and the reservoir seed. It describes how a catalog was
	// built, not how claims were verified — the same claims verify identically
	// against the sampled catalog regardless of where it was ingested — so
	// ReplayNormalize drops it from the cross-topology identity surface.
	KindIngestSample = "ingest_sample"
	// KindRouteScore and KindRoutePick record the cross-database routing of
	// one compound-claim sub-claim (DESIGN.md §16): the catalog's top
	// candidate scores, then the binding the seeded routing stage picked
	// (Outcome "picked" or "tie-break"). Both live under the parent claim's
	// identity with Method "route" and Try = sub-claim ordinal. They describe
	// how the claim was planned, not how its sub-claims were verified — a
	// coordinator plans routing once while its replicas never see the
	// compound claim — so ReplayNormalize drops them from the cross-topology
	// identity surface.
	KindRouteScore = "route_score"
	KindRoutePick  = "route_pick"
)

// Outcome values for KindAttempt and KindOutcome spans. Transport-error
// classes ("rate_limited", "timeout", ...) appear verbatim as outcomes of
// failed verification attempts.
const (
	OutcomeOK          = "ok"
	OutcomeError       = "error"
	OutcomeVerified    = "verified"
	OutcomeImplausible = "implausible"
)

// Span is one structured trace event. Fields irrelevant to a kind are left
// zero and omitted from the JSON encoding.
type Span struct {
	Key
	// Seq orders spans within one attempt identity; assigned by the Tracer.
	Seq int `json:"seq"`
	// Kind is one of the Kind* constants.
	Kind string `json:"kind"`
	// Model is the model name the event concerns.
	Model string `json:"model,omitempty"`
	// Temperature and Seed echo the request's sampling parameters; the seed
	// distinguishes a hedged backup (split seed) from its primary.
	Temperature float64 `json:"temp,omitempty"`
	Seed        int64   `json:"seed,omitempty"`
	// Token and fee accounting of one completion (KindAttempt only).
	PromptTokens     int     `json:"ptok,omitempty"`
	CompletionTokens int     `json:"ctok,omitempty"`
	Fee              float64 `json:"fee,omitempty"`
	// Latency is simulated wall time: the completion's latency for attempts,
	// the backoff wait for retries, the scaled sleep for throttle events.
	Latency time.Duration `json:"lat_ns,omitempty"`
	// Outcome is "ok"/"error" for attempts; "verified"/"implausible"/a
	// transport class for outcome spans; the fault class for fault spans.
	Outcome string `json:"outcome,omitempty"`
	// Detail carries kind-specific context (e.g. the retry ordinal).
	Detail string `json:"detail,omitempty"`
}

// Less orders spans by attempt identity, then per-key sequence — the
// canonical deterministic trace order. Exported so consumers of parsed JSONL
// streams can restore the order after filtering or merging.
func (s Span) Less(o Span) bool {
	if s.Doc != o.Doc {
		return s.Doc < o.Doc
	}
	if s.Claim != o.Claim {
		return s.Claim < o.Claim
	}
	if s.Method != o.Method {
		return s.Method < o.Method
	}
	if s.Try != o.Try {
		return s.Try < o.Try
	}
	return s.Seq < o.Seq
}

// Tracer collects spans from the middleware stack and the verification
// pipeline. It is safe for concurrent use, and a nil *Tracer is a valid
// disabled recorder: Enabled reports false and Record is a no-op, so the
// attempt hot path pays a single pointer comparison when tracing is off.
type Tracer struct {
	mu    sync.Mutex
	spans []Span
	seq   map[Key]int
}

// New constructs an enabled Tracer.
func New() *Tracer {
	return &Tracer{seq: make(map[Key]int)}
}

// Enabled reports whether spans are being recorded. Producers must guard
// span construction with it so disabled tracing allocates nothing.
func (t *Tracer) Enabled() bool { return t != nil }

// Record appends a span, assigning its per-key sequence number. Safe on a
// nil receiver (no-op).
func (t *Tracer) Record(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.seq == nil {
		t.seq = make(map[Key]int)
	}
	s.Seq = t.seq[s.Key]
	t.seq[s.Key] = s.Seq + 1
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Len returns the number of recorded spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Reset discards all recorded spans and sequence state.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = nil
	t.seq = make(map[Key]int)
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans in canonical order: sorted by
// attempt identity (doc, claim, method, try), then per-key sequence. For a
// deterministic workload this order — and therefore the serialized trace —
// is identical at any worker count.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// SortSpans restores canonical order — attempt identity, then per-key
// sequence — over a span slice, e.g. after merging per-run or per-replica
// streams.
func SortSpans(spans []Span) {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Less(spans[j]) })
}

// WriteJSONL serializes the canonical sorted span stream, one JSON object
// per line — the -trace export format.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("trace: encoding span: %w", err)
		}
	}
	return bw.Flush()
}

// Summary aggregates the recorded spans (see Aggregate).
func (t *Tracer) Summary() Summary {
	return Aggregate(t.Spans())
}

// ReplayNormalize rewrites a canonical span stream into the form the
// cross-process determinism contract compares (DESIGN.md §11). A warm run
// answers persisted work with persist_hit spans instead of attempt spans, and
// cache_hit/cache_wait attribution is scheduling-dependent in both runs, so
// raw cold and warm traces differ even when the verification work is
// identical. Normalization removes exactly that replay noise:
//
//   - persist_hit spans become attempt spans with outcome "ok" (they carry a
//     full replica of the attempt they replay);
//   - cache_hit, cache_wait, and memo_mismatch spans are dropped;
//   - shard_route and shard_failover spans are dropped — routing is a
//     property of the serving topology, not of the verification work, and the
//     sharded-identity harness compares traces across shard counts;
//   - stream_admit and stream_result spans are dropped — arrival order is a
//     property of how documents were submitted, not of the verification work,
//     and the stream-determinism gate compares streamed traces against batch
//     runs;
//   - ingest_sample spans are dropped — they describe how a catalog was
//     built, not how claims were verified, and the ingestion gate compares
//     traces across the topologies a dataset was onboarded through;
//   - route_score and route_pick spans are dropped — compound-claim routing
//     is planned wherever the compound claim arrived (library, replica, or
//     coordinator), while the routed sub-claims verify elsewhere, and the
//     route gate compares traces across those topologies;
//   - per-key Seq is renumbered over what remains, since dropped and
//     rewritten spans consumed sequence slots.
//
// The input must be in canonical order (as returned by Tracer.Spans); the
// output is too. For a deterministic workload, ReplayNormalize(cold) and
// ReplayNormalize(warm) are equal span for span — byte-identical once
// serialized — which is the trace half of the cross-process contract.
func ReplayNormalize(spans []Span) []Span {
	out := make([]Span, 0, len(spans))
	seq := make(map[Key]int, 64)
	for _, s := range spans {
		switch s.Kind {
		case KindCacheHit, KindCacheWait, KindMemoMismatch, KindShardRoute, KindShardFailover,
			KindStreamAdmit, KindStreamResult, KindIngestSample,
			KindRouteScore, KindRoutePick:
			continue
		case KindPersistHit:
			s.Kind = KindAttempt
			s.Outcome = OutcomeOK
		}
		s.Seq = seq[s.Key]
		seq[s.Key] = s.Seq + 1
		out = append(out, s)
	}
	return out
}
