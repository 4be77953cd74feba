package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/route"
	"repro/internal/sqldb"
)

// shortReplica is a fake replica whose /v1/verify/batch answers 200 but
// drops part of the work it was sent: with dropDoc it returns one document
// fewer than it received, otherwise it returns every document with the first
// one missing its last claim.
func shortReplica(t *testing.T, dropDoc bool) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("POST /v1/verify/batch", func(w http.ResponseWriter, r *http.Request) {
		var req BatchRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error(), 0)
			return
		}
		out := BatchResponse{Documents: []DocumentResult{}}
		for _, d := range req.Documents {
			dr := DocumentResult{DocID: d.DocID, Claims: []ClaimResult{}}
			for _, c := range d.Claims {
				dr.Claims = append(dr.Claims, ClaimResult{ID: c.ID, Verified: true, Correct: true, Method: "fake"})
			}
			out.Documents = append(out.Documents, dr)
		}
		if dropDoc {
			out.Documents = out.Documents[:len(out.Documents)-1]
		} else {
			first := &out.Documents[0]
			first.Claims = first.Claims[:len(first.Claims)-1]
		}
		writeJSON(w, http.StatusOK, out)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// routeCatalog indexes two vocabulary-disjoint tables, so the compound claim
// of shortReplyRoutedBody decomposes and each conjunct routes.
func routeCatalog(t *testing.T) *route.Catalog {
	t.Helper()
	db := sqldb.NewDatabase("testdb")
	for _, tc := range [][2]string{
		{"airlines", "airline,fatal_accidents_00_14\nMalaysia Airlines,2\nAeroflot,1\n"},
		{"drinks", "country,wine_servings\nFrance,370\nGermany,175\n"},
	} {
		tbl, err := sqldb.LoadCSV(tc[0], strings.NewReader(tc[1]))
		if err != nil {
			t.Fatal(err)
		}
		db.AddTable(tbl)
	}
	return route.NewCatalog(db)
}

const shortReplyRoutedBody = `{"documents":[{"doc_id":"d1","claims":[` +
	`{"id":"mixed","sentence":"Malaysia Airlines recorded 2 fatal accidents between 2000 and 2014, and France recorded 370 wine servings.","value":"2"},` +
	`{"id":"simple","sentence":"Aeroflot recorded 1 fatal accidents between 2000 and 2014.","value":"1"}]}]}`

// A replica that answers 200 with fewer documents or claims than it was sent
// must fail the request with an explicit 500 naming the replica and the
// counts — never merge into zero-valued verdicts — on both the plain batch
// path and a route-enabled coordinator, which share one scatter.
func TestCoordinatorShortReplicaReplyErrors(t *testing.T) {
	for _, tc := range []struct {
		name    string
		dropDoc bool
		route   bool
		want    string
	}{
		{"batch/fewer-documents", true, false, "returned 1 documents for 2"},
		{"batch/fewer-claims", false, false, "returned 1 claims for 2"},
		{"routed/fewer-documents", true, true, "documents for"},
		{"routed/fewer-claims", false, true, "claims for"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep := shortReplica(t, tc.dropDoc)
			cfg := CoordinatorConfig{RouteKey: testRouteKey, DocID: "testdb", Replicas: []string{rep.URL}, ProbeInterval: time.Hour}
			body := `{"documents":[` +
				`{"doc_id":"d1","claims":[{"sentence":"n is 1.","value":"1"},{"sentence":"m is 2.","value":"2"}]},` +
				`{"doc_id":"d2","claims":[{"sentence":"n is 1.","value":"1"}]}]}`
			if tc.route {
				cfg.Route = &RouteConfig{Catalog: routeCatalog(t), Seed: 1}
				body = shortReplyRoutedBody
			}
			c, err := NewCoordinator(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(c)
			t.Cleanup(ts.Close)
			t.Cleanup(func() {
				ctx, cancel := contextWithTimeout(5 * time.Second)
				defer cancel()
				_ = c.Shutdown(ctx)
			})
			if tc.route {
				var req BatchRequest
				if err := json.Unmarshal([]byte(body), &req); err != nil {
					t.Fatal(err)
				}
				if plan, _ := c.planRouted(req.Documents); plan == nil {
					t.Fatal("compound claim did not route; the routed path is not exercised")
				}
			}

			resp, err := http.Post(ts.URL+"/v1/verify/batch", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusInternalServerError {
				resp.Body.Close()
				t.Fatalf("status = %d, want 500 for a short replica reply", resp.StatusCode)
			}
			var eb ErrorBody
			decodeInto(t, resp, &eb)
			if eb.Error.Code != CodeInternal {
				t.Errorf("error code = %q, want %q", eb.Error.Code, CodeInternal)
			}
			if !strings.Contains(eb.Error.Message, rep.URL) || !strings.Contains(eb.Error.Message, tc.want) {
				t.Errorf("error message = %q, want the replica %s and %q", eb.Error.Message, rep.URL, tc.want)
			}
			// The replica answered, so both paths count the exchange as routed.
			if met := fetchCoordMetrics(t, ts.URL); met.Shard.Routed != 1 {
				t.Errorf("routed = %d, want 1 answered sub-batch", met.Shard.Routed)
			}
		})
	}
}
