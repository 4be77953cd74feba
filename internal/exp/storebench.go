package exp

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/claim"
	"repro/internal/data"
	"repro/internal/store"
)

// StoreBenchRow reports one phase of the persistent-store benchmark: the
// cold run pays for every model invocation and populates the store, the
// warm run rebuilds the whole stack over the same directory and answers
// persisted work from disk.
type StoreBenchRow struct {
	Phase         string
	Dollars       float64
	Calls         int
	PersistedHits int64
	// HitRate is the fraction of the phase's temperature-0 invocations
	// answered from the persistent store instead of a (billed) model call.
	HitRate  float64
	SimWall  time.Duration
	RealWall time.Duration
	F1       float64
}

// StoreBenchResult reproduces the cold-vs-warm table of DESIGN.md §11 /
// EXPERIMENTS.md.
type StoreBenchResult struct {
	Dataset string
	Rows    []StoreBenchRow
	// VerdictsMatch confirms the store is a pure accelerator: the warm run's
	// per-claim results are identical to the cold run's.
	VerdictsMatch bool
}

// StoreBench measures what -cache-dir buys across process restarts: it runs
// the AggChecker evaluation cold (empty store) and warm (fresh stack, same
// directory) and reports fees, calls, persisted-hit rate, and wall time for
// each phase. The warm phase re-profiles at full price — profiling traffic
// is anonymous and never reads the store (DESIGN.md §11) — so the schedule
// is derived identically in both phases; only the evaluation run is metered
// here, mirroring the other experiments.
func StoreBench(seed int64, workers int) (*StoreBenchResult, error) {
	dir, err := os.MkdirTemp("", "cedar-storebench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	res := &StoreBenchResult{Dataset: "AggChecker", VerdictsMatch: true}
	var coldResults []claim.Result
	for _, phase := range []string{"cold", "warm"} {
		st, err := store.Open(dir)
		if err != nil {
			return nil, err
		}
		ro := DefaultResilience
		ro.Store = st
		stack, err := NewStackResilient(seed, ro)
		if err != nil {
			st.Close()
			return nil, err
		}
		stack.Workers = workers
		evalDocs, err := data.AggChecker(seed)
		if err != nil {
			st.Close()
			return nil, err
		}
		profDocs, err := data.AggChecker(profileSeed(seed))
		if err != nil {
			st.Close()
			return nil, err
		}
		if len(profDocs) > 8 {
			profDocs = profDocs[:8]
		}
		stats, err := stack.Profile(profDocs)
		if err != nil {
			st.Close()
			return nil, err
		}
		docs := claim.CloneDocuments(evalDocs)
		preHits := int64(stack.PersistedHits())
		start := time.Now()
		q, rc, _, err := stack.RunCEDAR(stats, 0.99, docs)
		realWall := time.Since(start)
		if err != nil {
			st.Close()
			return nil, err
		}
		hits := int64(stack.PersistedHits()) - preHits
		if err := st.Close(); err != nil {
			return nil, err
		}

		var results []claim.Result
		for _, d := range docs {
			for _, c := range d.Claims {
				results = append(results, c.Result)
			}
		}
		switch phase {
		case "cold":
			coldResults = results
		case "warm":
			if len(results) != len(coldResults) {
				res.VerdictsMatch = false
			} else {
				for i := range results {
					if results[i] != coldResults[i] {
						res.VerdictsMatch = false
						break
					}
				}
			}
		}

		rate := 0.0
		if total := hits + int64(rc.Calls); total > 0 {
			rate = float64(hits) / float64(total)
		}
		res.Rows = append(res.Rows, StoreBenchRow{
			Phase:         phase,
			Dollars:       rc.Dollars,
			Calls:         rc.Calls,
			PersistedHits: hits,
			HitRate:       rate,
			SimWall:       rc.Wall,
			RealWall:      realWall,
			F1:            q.F1,
		})
	}
	return res, nil
}

// Render prints the cold-vs-warm comparison.
func (r *StoreBenchResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Persistent result store (-cache-dir), cold vs warm on %s (DESIGN.md §11).\n", r.Dataset)
	fmt.Fprintf(&b, "%-6s %10s %8s %10s %9s %12s %12s %8s\n",
		"Phase", "Cost ($)", "Calls", "PersHits", "HitRate", "SimWall", "RealWall", "F1")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-6s %10.4f %8d %10d %9s %12v %12v %8s\n",
			row.Phase, row.Dollars, row.Calls, row.PersistedHits, pct(row.HitRate),
			row.SimWall.Round(time.Millisecond), row.RealWall.Round(time.Millisecond), pct(row.F1))
	}
	if r.VerdictsMatch {
		b.WriteString("verdicts: warm run bit-identical to cold\n")
	} else {
		b.WriteString("verdicts: WARM RUN DIVERGED FROM COLD\n")
	}
	return b.String()
}

// CSV renders one row per phase.
func (r *StoreBenchResult) CSV() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Phase, f(row.Dollars), fmt.Sprintf("%d", row.Calls),
			fmt.Sprintf("%d", row.PersistedHits), f(row.HitRate),
			fmt.Sprintf("%d", row.SimWall.Milliseconds()),
			fmt.Sprintf("%d", row.RealWall.Milliseconds()),
			f(row.F1), fmt.Sprintf("%v", r.VerdictsMatch),
		})
	}
	return csvString([]string{"phase", "dollars", "calls", "persisted_hits", "hit_rate",
		"sim_wall_ms", "real_wall_ms", "f1", "verdicts_match"}, rows)
}

// JSON renders the result for BENCH_store.json (cedar-bench -store-json).
func (r *StoreBenchResult) JSON() ([]byte, error) {
	type row struct {
		Phase         string  `json:"phase"`
		Dollars       float64 `json:"dollars"`
		Calls         int     `json:"calls"`
		PersistedHits int64   `json:"persisted_hits"`
		HitRate       float64 `json:"hit_rate"`
		SimWallMS     int64   `json:"sim_wall_ms"`
		RealWallMS    int64   `json:"real_wall_ms"`
		F1            float64 `json:"f1"`
	}
	out := struct {
		Experiment    string `json:"experiment"`
		Dataset       string `json:"dataset"`
		VerdictsMatch bool   `json:"verdicts_match"`
		Rows          []row  `json:"rows"`
	}{Experiment: "storebench", Dataset: r.Dataset, VerdictsMatch: r.VerdictsMatch}
	for _, rw := range r.Rows {
		out.Rows = append(out.Rows, row{
			Phase: rw.Phase, Dollars: rw.Dollars, Calls: rw.Calls,
			PersistedHits: rw.PersistedHits, HitRate: rw.HitRate,
			SimWallMS: rw.SimWall.Milliseconds(), RealWallMS: rw.RealWall.Milliseconds(),
			F1: rw.F1,
		})
	}
	return json.MarshalIndent(out, "", "  ")
}
