package main

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"repro/internal/claim"
	"repro/internal/data"
	"repro/internal/nl"
	"repro/internal/serve"
	"repro/internal/sqldb"
)

// corpusSeed fixes the claim corpora. The run seed (--seed) only orders and
// times the requests, so quality and fee are the same for every seed and a
// change in either means a change in behaviour, not in the inputs.
const corpusSeed = 17

// Workload names, as BENCHMARK.json lists them.
const (
	wlAggBatch       = "agg-batch"
	wlTierSingles    = "tier-singles"
	wlRoutedCompound = "routed-compound"
)

// singlesRate is tier-singles' fixed open-loop arrival rate (requests/s),
// below the saturation point of a coordinator plus two replicas on two
// cores, so latency reflects the serving layers rather than a backlog.
const singlesRate = 150

// request is one HTTP call of a pass.
type request struct {
	path   string
	body   []byte
	docs   []serve.DocumentInput
	claims int
}

// workload is a topology plus one pass of requests. A run repeats whole
// passes, so fees and quality per claim are exactly those of one pass.
type workload struct {
	// csvs are the table files every process loads, in -csv order.
	csvs []string
	// replicas counts the verifying processes; coordinator fronts them.
	replicas    int
	coordinator bool
	route       bool
	// pass holds the requests of one pass in a fixed order; nextPass
	// reorders them for every measured pass.
	pass []request
	// gold maps docID/claimID to the claim's gold verdict.
	gold map[string]bool
	// openRate > 0 selects an open loop at that many requests per second;
	// zero is a closed loop with one client per CPU.
	openRate float64
	rng      *rand.Rand
}

// claimKey names one claim of the served corpus.
func claimKey(docID, claimID string) string { return docID + "/" + claimID }

// passClaims counts the claims of one pass.
func (w *workload) passClaims() int {
	n := 0
	for _, r := range w.pass {
		n += r.claims
	}
	return n
}

// nextPass returns a seeded permutation of the pass's request indices.
func (w *workload) nextPass() []int { return w.rng.Perm(len(w.pass)) }

// buildWorkload generates the named workload's tables into dir and its
// requests from the fixed corpus, ordered by seed.
func buildWorkload(name string, seed int64, dir string) (*workload, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	w := &workload{gold: make(map[string]bool), rng: rand.New(rand.NewSource(seed))}
	switch name {
	case wlAggBatch:
		return w, w.buildAggBatch(dir)
	case wlTierSingles:
		return w, w.buildTierSingles(dir)
	case wlRoutedCompound:
		return w, w.buildRoutedCompound(dir)
	}
	return nil, fmt.Errorf("unknown workload %q (want %s, %s or %s)", name, wlAggBatch, wlTierSingles, wlRoutedCompound)
}

// buildAggBatch: 448 AggChecker-shaped claims over one table, as 64
// seven-claim documents; each request carries 8 documents, which fills the
// server's default -max-batch so no request lingers. The seed decides
// which documents share a request.
func (w *workload) buildAggBatch(dir string) error {
	docs, err := data.Generate(data.GenConfig{
		Seed:            corpusSeed,
		Docs:            1,
		ClaimsPerDoc:    448,
		IncorrectRate:   0.15,
		AliasRate:       0.55,
		ShortPhraseRate: 0.45,
	})
	if err != nil {
		return err
	}
	tab := docs[0].Data.Tables()[0]
	if err := w.writeTables(dir, tab); err != nil {
		return err
	}
	w.replicas = 1
	inputs := splitDocuments(w, "agg", docs[0].Claims, 7)
	w.rng.Shuffle(len(inputs), func(i, j int) { inputs[i], inputs[j] = inputs[j], inputs[i] })
	for i := 0; i < len(inputs); i += 8 {
		w.pass = append(w.pass, batchRequest(inputs[i:i+8]))
	}
	return nil
}

// buildTierSingles: 100 TabFact-shaped claims over one small table, each
// its own single-claim POST /v1/verify through a coordinator and two
// replicas, arriving open loop at singlesRate.
func (w *workload) buildTierSingles(dir string) error {
	docs, err := data.Generate(data.GenConfig{
		Seed:          corpusSeed,
		Docs:          1,
		ClaimsPerDoc:  100,
		IncorrectRate: 0.3,
		AliasRate:     0.15,
		// The weights of data.TabFact: mostly lookups and counts.
		KindWeights: map[nl.Kind]int{
			nl.KindLookup: 45, nl.KindCountAll: 8, nl.KindCount: 20, nl.KindSum: 8,
			nl.KindMax: 10, nl.KindMin: 5, nl.KindPercent: 4,
		},
		Domains:      []string{"TabFact"},
		RowsPerTable: 10,
	})
	if err != nil {
		return err
	}
	tab := docs[0].Data.Tables()[0]
	if err := w.writeTables(dir, tab); err != nil {
		return err
	}
	w.replicas = 2
	w.coordinator = true
	w.openRate = singlesRate
	for _, in := range splitDocuments(w, "tf", docs[0].Claims, 1) {
		body, err := json.Marshal(serve.VerifyRequest{DocID: in.DocID, Claims: in.Claims})
		if err != nil {
			return err
		}
		w.pass = append(w.pass, request{path: "/v1/verify", body: body, docs: []serve.DocumentInput{in}, claims: 1})
	}
	return nil
}

// buildRoutedCompound: the RouteBench corpus (12 documents of 2 simple and
// 3 compound claims) over one six-table database, served by a route-enabled
// coordinator and two replicas, 4 documents per request. Requests keep a
// fixed composition: routing deduplicates sub-claims within a request, so
// regrouping documents would change the work.
func (w *workload) buildRoutedCompound(dir string) error {
	corpus, err := data.RouteBench(corpusSeed)
	if err != nil {
		return err
	}
	var tabs []*sqldb.Table
	for _, db := range corpus.Databases {
		tabs = append(tabs, db.Tables()...)
	}
	if err := w.writeTables(dir, tabs...); err != nil {
		return err
	}
	w.replicas = 2
	w.coordinator = true
	w.route = true
	var inputs []serve.DocumentInput
	for _, d := range corpus.Docs {
		inputs = append(inputs, documentInput(w, d.ID, d.Claims))
	}
	for i := 0; i < len(inputs); i += 4 {
		w.pass = append(w.pass, batchRequest(inputs[i:i+4]))
	}
	return nil
}

// splitDocuments cuts claims into documents of size claims each, recording
// gold labels.
func splitDocuments(w *workload, prefix string, claims []*claim.Claim, size int) []serve.DocumentInput {
	var out []serve.DocumentInput
	for i := 0; i < len(claims); i += size {
		out = append(out, documentInput(w, fmt.Sprintf("%s-%03d", prefix, i/size+1), claims[i:i+size]))
	}
	return out
}

// documentInput renders claims as one wire document, recording gold labels.
func documentInput(w *workload, docID string, claims []*claim.Claim) serve.DocumentInput {
	in := serve.DocumentInput{DocID: docID}
	for _, c := range claims {
		in.Claims = append(in.Claims, serve.ClaimInput{ID: c.ID, Sentence: c.Sentence, Value: c.Value, Context: c.Context})
		w.gold[claimKey(docID, c.ID)] = c.Gold.Correct
	}
	return in
}

// batchRequest builds one POST /v1/verify/batch call.
func batchRequest(docs []serve.DocumentInput) request {
	docs = append([]serve.DocumentInput(nil), docs...)
	body, err := json.Marshal(serve.BatchRequest{Documents: docs})
	if err != nil {
		panic(err) // plain structs of strings always marshal
	}
	n := 0
	for _, d := range docs {
		n += len(d.Claims)
	}
	return request{path: "/v1/verify/batch", body: body, docs: docs, claims: n}
}

// writeTables writes each table as <name>.csv into dir and records the
// paths in -csv order. NULLs become empty fields, which sqldb.LoadCSV reads
// back as NULL.
func (w *workload) writeTables(dir string, tabs ...*sqldb.Table) error {
	for _, t := range tabs {
		path := filepath.Join(dir, t.Name+".csv")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		cw := csv.NewWriter(f)
		header := make([]string, len(t.Columns))
		for i, c := range t.Columns {
			header[i] = c.Name
		}
		_ = cw.Write(header) // errors surface through cw.Error below
		for _, row := range t.Rows {
			rec := make([]string, len(row))
			for i, v := range row {
				if !v.IsNull() {
					rec[i] = v.Text()
				}
			}
			_ = cw.Write(rec)
		}
		cw.Flush()
		if err := cw.Error(); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", path, err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		w.csvs = append(w.csvs, path)
	}
	return nil
}
