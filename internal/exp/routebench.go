package exp

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/cedar"
	"repro/internal/claim"
	"repro/internal/data"
	"repro/internal/route"
)

// RouteBenchRow reports one verification mode over the cross-database corpus
// — Table-2-style quality and cost, side by side.
type RouteBenchRow struct {
	// Mode is "routed" (decompose + route + recombine) or "home-db" (every
	// claim, compound included, verified whole against its document's home
	// database — what a router-less CEDAR deployment would do).
	Mode         string
	Quality      cedar.Quality
	Dollars      float64
	RouteDollars float64
	Calls        int
	SubClaims    int
}

// RouteBenchResult reproduces the cross-database routing table of
// EXPERIMENTS.md (DESIGN.md §16).
type RouteBenchResult struct {
	Docs     int
	Claims   int
	Compound int
	// SubClaims is the corpus's total conjunct count.
	SubClaims int
	// RoutingAccuracy is the fraction of conjuncts the planner bound to
	// their gold (database, table) entry.
	RoutingAccuracy float64
	// Ties counts bindings decided by the seeded tie-break.
	Ties int
	Rows []RouteBenchRow
	// BaseSchedule is the planned verification schedule every routed
	// sub-claim runs.
	BaseSchedule string
}

// RouteBench measures cross-database claim routing end to end: routing
// accuracy of the catalog search + seeded pick against gold labels, then
// verdict quality and cost of routed verification versus the home-database
// baseline over the same claims.
func RouteBench(seed int64, workers int) (*RouteBenchResult, error) {
	corpus, err := data.RouteBench(seed)
	if err != nil {
		return nil, err
	}
	res := &RouteBenchResult{
		Docs:      len(corpus.Docs),
		Claims:    claim.TotalClaims(corpus.Docs),
		Compound:  len(corpus.Gold),
		SubClaims: corpus.SubClaims,
	}

	// Routing accuracy, measured on the library planner the verification
	// path itself uses.
	cat := route.NewCatalog(corpus.Databases...)
	plan := route.PlanDocuments(corpus.Docs, cat, route.Options{Seed: seed})
	total, correct := 0, 0
	for _, r := range plan.Routed {
		gold := corpus.Gold[r.Claim.ID]
		if len(gold) != len(r.Units) {
			return nil, fmt.Errorf("routebench: claim %s planned %d units, gold has %d", r.Claim.ID, len(r.Units), len(gold))
		}
		for i, u := range r.Units {
			total++
			if u.Entry.Name() == gold[i] {
				correct++
			}
			if u.Tied {
				res.Ties++
			}
		}
	}
	if total != corpus.SubClaims {
		return nil, fmt.Errorf("routebench: planned %d sub-claims, corpus has %d", total, corpus.SubClaims)
	}
	res.RoutingAccuracy = float64(correct) / float64(total)

	profDocs, err := data.AggChecker(profileSeed(seed))
	if err != nil {
		return nil, err
	}
	if len(profDocs) > 8 {
		profDocs = profDocs[:8]
	}
	run := func(routed bool) (*RouteBenchRow, *cedar.System, error) {
		sys, err := cedar.New(cedar.Options{
			Seed: seed, AccuracyTarget: 0.99, Workers: workers, Route: routed,
		})
		if err != nil {
			return nil, nil, err
		}
		if err := sys.ProfileOn(profDocs); err != nil {
			return nil, nil, err
		}
		if routed {
			if err := sys.SetCatalog(corpus.Databases...); err != nil {
				return nil, nil, err
			}
		}
		docs := claim.CloneDocuments(corpus.Docs)
		rep, err := sys.Verify(docs)
		if err != nil {
			return nil, nil, err
		}
		mode := "home-db"
		if routed {
			mode = "routed"
		}
		return &RouteBenchRow{
			Mode: mode, Quality: rep.Quality, Dollars: rep.Dollars,
			RouteDollars: rep.RouteDollars, Calls: rep.Calls,
			SubClaims: rep.RoutedSubClaims,
		}, sys, nil
	}
	routedRow, routedSys, err := run(true)
	if err != nil {
		return nil, err
	}
	baseRow, _, err := run(false)
	if err != nil {
		return nil, err
	}
	res.Rows = []RouteBenchRow{*routedRow, *baseRow}
	res.BaseSchedule = routedSys.Schedule()
	return res, nil
}

// Render prints the routing table.
func (r *RouteBenchResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Cross-database claim routing over %d docs, %d claims (%d compound, %d conjuncts).\n",
		r.Docs, r.Claims, r.Compound, r.SubClaims)
	fmt.Fprintf(&b, "routing accuracy %s (%d tie-breaks)\n", pct(r.RoutingAccuracy), r.Ties)
	fmt.Fprintf(&b, "%-8s %7s %7s %7s %7s %9s %10s %6s %5s\n",
		"Mode", "P", "R", "F1", "Failed", "Cost", "RouteFee", "Calls", "Subs")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-8s %7s %7s %7s %7d %9.4f %10.4f %6d %5d\n",
			row.Mode, pct(row.Quality.Precision), pct(row.Quality.Recall), pct(row.Quality.F1),
			row.Quality.Failed, row.Dollars, row.RouteDollars, row.Calls, row.SubClaims)
	}
	fmt.Fprintf(&b, "verification schedule: %s\n", r.BaseSchedule)
	return b.String()
}

// CSV renders one row per mode.
func (r *RouteBenchResult) CSV() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Mode, f(row.Quality.Precision), f(row.Quality.Recall), f(row.Quality.F1),
			fmt.Sprintf("%d", row.Quality.Failed), f(row.Dollars), f(row.RouteDollars),
			fmt.Sprintf("%d", row.Calls), fmt.Sprintf("%d", row.SubClaims),
		})
	}
	return csvString([]string{"mode", "precision", "recall", "f1", "failed",
		"dollars", "route_dollars", "calls", "sub_claims"}, rows)
}

// JSON renders the result for BENCH_route.json (cedar-bench -route-json).
func (r *RouteBenchResult) JSON() ([]byte, error) {
	type row struct {
		Mode         string  `json:"mode"`
		Precision    float64 `json:"precision"`
		Recall       float64 `json:"recall"`
		F1           float64 `json:"f1"`
		Failed       int     `json:"failed"`
		Dollars      float64 `json:"dollars"`
		RouteDollars float64 `json:"route_dollars"`
		Calls        int     `json:"calls"`
		SubClaims    int     `json:"sub_claims"`
	}
	out := struct {
		Experiment      string  `json:"experiment"`
		Docs            int     `json:"docs"`
		Claims          int     `json:"claims"`
		Compound        int     `json:"compound"`
		SubClaims       int     `json:"sub_claims"`
		RoutingAccuracy float64 `json:"routing_accuracy"`
		Ties            int     `json:"ties"`
		Rows            []row   `json:"rows"`
		BaseSchedule    string  `json:"base_schedule"`
	}{
		Experiment: "routebench", Docs: r.Docs, Claims: r.Claims,
		Compound: r.Compound, SubClaims: r.SubClaims,
		RoutingAccuracy: r.RoutingAccuracy, Ties: r.Ties,
		BaseSchedule: r.BaseSchedule,
	}
	for _, rw := range r.Rows {
		out.Rows = append(out.Rows, row{
			Mode: rw.Mode, Precision: rw.Quality.Precision, Recall: rw.Quality.Recall,
			F1: rw.Quality.F1, Failed: rw.Quality.Failed, Dollars: rw.Dollars,
			RouteDollars: rw.RouteDollars, Calls: rw.Calls, SubClaims: rw.SubClaims,
		})
	}
	return json.MarshalIndent(out, "", "  ")
}
