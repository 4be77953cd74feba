// Package route implements cross-database claim routing (ROADMAP item 4,
// DESIGN.md §16): compound claims — conjunctions joining several atomic
// factual statements, possibly about different databases — are decomposed
// into sub-claims, each sub-claim is scored against every table of a
// registered catalog via embedding similarity over lexical surfaces, an
// agent-style routing stage picks one binding per sub-claim with seeded
// tie-breaking, the sub-claims are verified as ordinary single-claim
// documents against their routed databases, and the sub-verdicts are
// recombined under AND-semantics with failure propagation.
//
// Everything in this package is deterministic: decomposition is a pure
// function of the claim text, catalog scores are pure functions of the
// catalog contents and the sentence, and the routing pick depends only on
// (seed, claim identity, candidate set). The same compound claim therefore
// routes identically whether it is planned inside the cedar library, on a
// serving replica, or at a sharding coordinator — which is what lets the
// routed serving path fan sub-claims out across a shard ring and still merge
// bit-identical verdicts (the `make route` gate).
package route

import "repro/internal/trace"

// DefaultTopK is the number of top-scoring catalog candidates the routing
// stage considers per sub-claim.
const DefaultTopK = 3

// DefaultFee is the priced cost of one routing decision (one sub-claim
// scored and bound), in the same simulated dollars as model fees. Routing
// uses embeddings and the catalog only — far cheaper than a verification
// call — but it is not free, and every routed run books it.
const DefaultFee = 0.0001

// DefaultAccuracy is the modeled probability that the routing stage binds a
// sub-claim to the right table. The routebench corpus measures the realized
// value (≥ 0.9 by the acceptance gate). No planner reads it; it stays as
// routing identity in cedar's config fingerprint, so persisted verdict memos
// keep their keys.
const DefaultAccuracy = 0.96

// Options configure planning. The zero value is usable: TopK defaults to
// DefaultTopK and Fee to DefaultFee.
type Options struct {
	// Seed drives the routing stage's tie-breaking; it must match across
	// topologies (library, replica, coordinator) for identical bindings.
	Seed int64
	// TopK bounds the candidate set handed to the routing pick.
	TopK int
	// Fee is booked per sub-claim routing decision; <= 0 means DefaultFee.
	Fee float64
	// Tracer, when non-nil, records route_score/route_pick spans under the
	// parent claim's identity. Both kinds are dropped by
	// trace.ReplayNormalize: the routing transcript is a property of how the
	// claim was planned, not of the verification work.
	Tracer *trace.Tracer
}

func (o Options) topK() int {
	if o.TopK <= 0 {
		return DefaultTopK
	}
	return o.TopK
}

func (o Options) fee() float64 {
	if o.Fee <= 0 {
		return DefaultFee
	}
	return o.Fee
}
