package serve

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"repro/internal/claim"
	"repro/internal/route"
)

// RouteConfig enables cross-database claim routing at the coordinator
// (DESIGN.md §16): compound claims decompose before sharding, each sub-claim
// fans out to the replica owning its *routed* fingerprint, and the
// sub-verdicts recombine at the coordinator in caller order. The
// configuration must mirror the replicas' (same catalog database contents,
// same seed) so a sub-claim planned here binds exactly as it would have on a
// route-enabled replica or in the library.
type RouteConfig struct {
	// Catalog indexes the routable (database, table) entries.
	Catalog *route.Catalog
	// Seed is the routing tie-break seed — the replicas' verification seed.
	Seed int64
	// TopK bounds the candidate tables per sub-claim (0 = route.DefaultTopK).
	TopK int
}

// planRouted converts wire documents into the domain model (applying the
// doc-ID and claim-ID defaults the replicas would apply) and plans routing
// over them. It returns nil when routing changes nothing — malformed claims,
// no compound claims, or nothing routable — in which case the caller falls
// back to the raw relay path, byte-for-byte what a route-less coordinator
// does.
func (c *Coordinator) planRouted(inputs []DocumentInput) (*route.Plan, []*claim.Document) {
	rc := c.cfg.Route
	if rc == nil || rc.Catalog == nil || rc.Catalog.Len() == 0 {
		return nil, nil
	}
	docs := make([]*claim.Document, 0, len(inputs))
	for _, in := range inputs {
		docID := in.DocID
		if docID == "" {
			docID = c.cfg.DocID
		}
		doc := &claim.Document{ID: docID, Domain: "serve"}
		for i, ci := range in.Claims {
			id := ci.ID
			if id == "" {
				id = fmt.Sprintf("c%d", i+1)
			}
			cl, err := claim.New(id, ci.Sentence, ci.Value, ci.Context)
			if err != nil {
				// Let the replica produce the canonical validation error.
				return nil, nil
			}
			doc.Claims = append(doc.Claims, cl)
		}
		docs = append(docs, doc)
	}
	plan := route.PlanDocuments(docs, rc.Catalog, route.Options{
		Seed:   rc.Seed,
		TopK:   rc.TopK,
		Tracer: c.cfg.Tracer,
	})
	if len(plan.Routed) == 0 {
		return nil, nil
	}
	return plan, docs
}

// wireDocument renders one expanded document back onto the wire with its
// identities pinned — the IDs are routing and seeding identities now, so the
// replicas must not re-default them.
func wireDocument(d *claim.Document) DocumentInput {
	in := DocumentInput{DocID: d.ID, Claims: make([]ClaimInput, 0, len(d.Claims))}
	for _, cl := range d.Claims {
		in.Claims = append(in.Claims, ClaimInput{
			ID: cl.ID, Sentence: cl.Sentence, Value: cl.Value, Context: cl.Context,
		})
	}
	return in
}

// wireResult converts a replica's claim verdict back into the domain result
// recombination runs on. The wire does not carry Executable; Combine ANDs it
// but no wire output reads it, so false is safe.
func wireResult(cr ClaimResult) claim.Result {
	return claim.Result{
		Correct:  cr.Correct,
		Verified: cr.Verified,
		Method:   cr.Method,
		Query:    cr.Query,
		Attempts: cr.Attempts,
		Failure:  cr.Failure,
	}
}

// verifyRouted verifies the plan's expanded documents through the ring
// scatter — each routed by its own (routed) fingerprint — writes the replica
// verdicts back into them, recombines, and returns the batch stats. It
// reports false when the scatter already wrote a failure response.
func (c *Coordinator) verifyRouted(ctx context.Context, w http.ResponseWriter, plan *route.Plan) (BatchStats, bool) {
	wire := make([]DocumentInput, len(plan.Expanded))
	for i, d := range plan.Expanded {
		wire[i] = wireDocument(d)
	}
	merged, ok := c.scatter(ctx, w, wire)
	if !ok {
		return BatchStats{}, false
	}
	for i, d := range plan.Expanded {
		for k, cl := range d.Claims {
			cl.Result = wireResult(merged.Documents[i].Claims[k])
		}
	}
	plan.Recombine()
	// The coordinator made the routing decisions, so it books their fees —
	// exactly what the library path adds to Report.Dollars. Fees and calls
	// sum across the unit verifications, but doc/claim counts describe the
	// caller's request — a direct route-enabled replica reports the original
	// counts, not the expanded units, and so do we.
	stats := merged.Batch
	stats.Dollars += plan.Fee
	stats.Docs = len(plan.Original)
	stats.Claims = claim.TotalClaims(plan.Original)
	return stats, true
}

// tryRoutedVerify handles POST /v1/verify when routing applies to the
// request's claims. It reports whether it wrote a response; false means the
// request has no routable compound claims and the ordinary relay path should
// run.
func (c *Coordinator) tryRoutedVerify(ctx context.Context, w http.ResponseWriter, started time.Time, req VerifyRequest) bool {
	plan, docs := c.planRouted([]DocumentInput{{DocID: req.DocID, Claims: req.Claims}})
	if plan == nil {
		return false
	}
	if stats, ok := c.verifyRouted(ctx, w, plan); ok {
		dr := documentResult(docs[0])
		c.met.recordRequest(time.Since(started))
		writeJSON(w, http.StatusOK, VerifyResponse{DocID: dr.DocID, Claims: dr.Claims, Batch: stats})
	}
	return true
}

// tryRoutedVerifyBatch is tryRoutedVerify for POST /v1/verify/batch: the
// merged response carries the caller's documents in caller order, with
// compound-claim verdicts recombined from their routed sub-claims.
func (c *Coordinator) tryRoutedVerifyBatch(ctx context.Context, w http.ResponseWriter, started time.Time, req BatchRequest) bool {
	plan, docs := c.planRouted(req.Documents)
	if plan == nil {
		return false
	}
	if stats, ok := c.verifyRouted(ctx, w, plan); ok {
		merged := BatchResponse{Documents: make([]DocumentResult, len(docs)), Batch: stats}
		for i, d := range docs {
			merged.Documents[i] = documentResult(d)
		}
		c.met.recordRequest(time.Since(started))
		writeJSON(w, http.StatusOK, merged)
	}
	return true
}
