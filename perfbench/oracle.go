package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"

	"repro/cedar"
	"repro/internal/claim"
	"repro/internal/cliutil"
	"repro/internal/exp"
	"repro/internal/metrics"
	"repro/internal/route"
	"repro/internal/serve"
	"repro/internal/sqldb"
)

// The cedar-serve flag defaults the benchmark starts every process with;
// the oracle and the traced tier build their Systems with the same values.
const (
	serveSeed     = 1
	serveTarget   = 0.99
	serveWorkers  = 8
	serveMaxBatch = 8
)

// feeTolerance is how far the served fee total may drift from the
// oracle's: per-batch float sums differ in the last digits with batch
// composition, never by a billed call.
const feeTolerance = 1e-9

// newSystem builds a System exactly as cmd/cedar-serve does with its
// default flags: resilience defaults, built-in profiling corpus, and the
// served database as the routing catalog when routing is on.
func newSystem(db *sqldb.Database, routeOn bool, tracer *cedar.Tracer) (*cedar.System, error) {
	sr := exp.ServingResilience()
	sys, err := cedar.New(cedar.Options{
		Seed:           serveSeed,
		AccuracyTarget: serveTarget,
		Workers:        serveWorkers,
		Retries:        sr.Retries,
		Timeout:        sr.Timeout,
		HedgeAfter:     sr.HedgeAfter,
		Route:          routeOn,
		Tracer:         tracer,
	})
	if err != nil {
		return nil, err
	}
	profDocs, err := cedar.Benchmark(cedar.BenchAggChecker, serveSeed+100)
	if err == nil {
		err = sys.ProfileOn(profDocs[:6])
	}
	if err == nil && routeOn {
		err = sys.SetCatalog(db)
	}
	if err != nil {
		sys.Close()
		return nil, err
	}
	return sys, nil
}

// loadDatabase loads the workload's tables the way cedar-serve does.
func loadDatabase(w *workload) (*sqldb.Database, error) {
	db, _, err := cliutil.LoadDatabase(w.csvs, "")
	return db, err
}

// documents converts wire documents into the domain model as the server's
// request decoding does.
func documents(ins []serve.DocumentInput, db *sqldb.Database) ([]*claim.Document, error) {
	var docs []*claim.Document
	for _, in := range ins {
		d := &claim.Document{ID: in.DocID, Domain: "serve", Data: db}
		for _, ci := range in.Claims {
			c, err := claim.New(ci.ID, ci.Sentence, ci.Value, ci.Context)
			if err != nil {
				return nil, err
			}
			d.Claims = append(d.Claims, c)
		}
		docs = append(docs, d)
	}
	return docs, nil
}

// oracle holds the in-process verdicts and fees every served response is
// checked against.
type oracle struct {
	expect map[string]serve.ClaimResult
	// fee is the library fee of each pass request (routing fee included);
	// routeFee the share a coordinator books itself, which no metrics
	// surface reports.
	fee      []float64
	routeFee []float64
}

// runOracle verifies every request of one pass in-process, one
// System.Verify per request, as a fresh cedar-serve with default flags
// would.
func runOracle(w *workload) (*oracle, error) {
	db, err := loadDatabase(w)
	if err != nil {
		return nil, err
	}
	sys, err := newSystem(db, w.route, nil)
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	var cat *route.Catalog
	if w.route {
		cat = route.NewCatalog(db)
	}
	o := &oracle{expect: make(map[string]serve.ClaimResult)}
	for _, r := range w.pass {
		docs, err := documents(r.docs, db)
		if err != nil {
			return nil, err
		}
		rep, err := sys.Verify(docs)
		if err != nil {
			return nil, err
		}
		for _, d := range docs {
			for _, cr := range claimResults(d) {
				o.expect[claimKey(d.ID, cr.ID)] = cr
			}
		}
		o.fee = append(o.fee, rep.Dollars)
		rf := 0.0
		if cat != nil {
			// The coordinator plans over documents without data, with the
			// served seed, as cmd/cedar-serve configures it.
			plain, err := documents(r.docs, nil)
			if err != nil {
				return nil, err
			}
			rf = route.PlanDocuments(plain, cat, route.Options{Seed: serveSeed}).Fee
		}
		o.routeFee = append(o.routeFee, rf)
	}
	return o, nil
}

// claimResults renders a verified document's claims as the wire does.
func claimResults(d *claim.Document) []serve.ClaimResult {
	out := make([]serve.ClaimResult, 0, len(d.Claims))
	for _, c := range d.Claims {
		out = append(out, serve.ClaimResult{
			ID: c.ID, Correct: c.Result.Correct, Verified: c.Result.Verified, Method: c.Result.Method,
			Query: c.Result.Query, Attempts: c.Result.Attempts, Failure: c.Result.Failure,
		})
	}
	return out
}

// tally is the checked outcome of a phase.
type tally struct {
	attempted, failed int
	// mismatches counts requests whose verdicts differ from the oracle's.
	mismatches int
	firstErr   string
	// claims counts claims answered 200 with a verdict; fee and routeFee
	// total the oracle's fees of the requests answered.
	claims        int
	fee, routeFee float64
	// served holds the last verdict seen per claim, for F1.
	served map[string]serve.ClaimResult
	// failedIDs marks outcomes that failed, for latency accounting.
	failedIDs map[int]bool
}

// check verifies every response of a phase against the oracle. A request
// fails on a transport error, a non-200, a missing or extra verdict, or a
// claim whose method is "failed"; a verdict that differs from the oracle's
// is also a mismatch, which makes the run incorrect.
func (o *oracle) check(w *workload, outs []outcome) *tally {
	t := &tally{served: make(map[string]serve.ClaimResult), failedIDs: make(map[int]bool)}
	for i := range outs {
		out := &outs[i]
		t.attempted++
		bad, mismatch := o.checkOne(w, out, t)
		if mismatch {
			t.mismatches++
		}
		if bad != "" {
			t.failed++
			t.failedIDs[out.id] = true
			if t.firstErr == "" {
				t.firstErr = bad
			}
			continue
		}
		r := w.pass[out.req]
		t.claims += r.claims
		t.fee += o.fee[out.req]
		t.routeFee += o.routeFee[out.req]
	}
	return t
}

// checkOne returns why an outcome failed ("" when it did not) and whether
// it carried a verdict that differs from the oracle's.
func (o *oracle) checkOne(w *workload, out *outcome, t *tally) (string, bool) {
	if out.err != nil {
		return out.err.Error(), false
	}
	if out.status != http.StatusOK {
		return fmt.Sprintf("status %d: %s", out.status, truncate(string(out.body), 200)), false
	}
	r := w.pass[out.req]
	var got []serve.DocumentResult
	if r.path == "/v1/verify" {
		var vr serve.VerifyResponse
		if err := json.Unmarshal(out.body, &vr); err != nil {
			return "decoding response: " + err.Error(), false
		}
		got = []serve.DocumentResult{{DocID: vr.DocID, Claims: vr.Claims}}
	} else {
		var br serve.BatchResponse
		if err := json.Unmarshal(out.body, &br); err != nil {
			return "decoding response: " + err.Error(), false
		}
		got = br.Documents
	}
	if len(got) != len(r.docs) {
		return fmt.Sprintf("%d documents answered for %d sent", len(got), len(r.docs)), false
	}
	why, mismatch := "", false
	for i, in := range r.docs {
		if got[i].DocID != in.DocID || len(got[i].Claims) != len(in.Claims) {
			return fmt.Sprintf("document %d answered as %q with %d claims, sent %q with %d",
				i, got[i].DocID, len(got[i].Claims), in.DocID, len(in.Claims)), false
		}
		for j, cr := range got[i].Claims {
			key := claimKey(in.DocID, in.Claims[j].ID)
			t.served[key] = cr
			if cr.Method == claim.MethodFailed && why == "" {
				why = "claim " + key + " failed: " + cr.Failure
			}
			if cr != o.expect[key] {
				mismatch = true
				if why == "" {
					why = fmt.Sprintf("claim %s: served %+v, oracle %+v", key, cr, o.expect[key])
				}
			}
		}
	}
	return why, mismatch
}

// quality scores the served verdicts against the gold labels, incorrect
// claims being the positive class as in metrics.Evaluate.
func (t *tally) quality(w *workload) metrics.Quality {
	doc := &claim.Document{}
	for key, cr := range t.served {
		doc.Claims = append(doc.Claims, &claim.Claim{
			Gold:   claim.Gold{Correct: w.gold[key]},
			Result: claim.Result{Correct: cr.Correct, Verified: cr.Verified, Method: cr.Method},
		})
	}
	return metrics.Evaluate([]*claim.Document{doc})
}

// feeMatches compares a served fee total with the oracle's.
func feeMatches(served, want float64) bool { return math.Abs(served-want) <= feeTolerance }

func truncate(s string, n int) string {
	if len(s) > n {
		return s[:n] + "..."
	}
	return s
}
