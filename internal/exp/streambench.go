package exp

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"repro/internal/claim"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/serve"
	"repro/internal/verify"
)

// Streambench defaults. The stack is throttled exactly like shardbench —
// every model attempt sleeps a fraction of its simulated latency — so
// verification takes real wall time and the thing streaming is supposed to
// buy, early verdicts, is measurable rather than noise.
const (
	streamBenchDocs     = 24
	streamBenchThrottle = 0.003
)

// StreamBenchConfig tunes the comparison; zero values take the defaults.
// Tests shrink Docs to keep the suite fast.
type StreamBenchConfig struct {
	Docs          int
	ThrottleScale float64
}

// StreamBenchRow is one delivery mode's measurement over the same corpus.
type StreamBenchRow struct {
	// Mode is "batch" (one POST /v1/verify/batch, verdicts arrive with the
	// final response) or "stream" (POST /v1/verify/stream, verdicts arrive
	// per document as micro-batches land).
	Mode   string `json:"mode"`
	Docs   int    `json:"docs"`
	Claims int    `json:"claims"`
	// TTFVMS is time-to-first-verdict: how long the caller waited before
	// the first claim verdict was readable. For batch mode that is the
	// whole response; for stream mode, the first NDJSON verdict line.
	TTFVMS float64 `json:"ttfv_ms"`
	// WallMS is end-to-end wall time until the last verdict (and summary)
	// arrived.
	WallMS float64 `json:"wall_ms"`
	// ClaimsPerSec is sustained verified-claim throughput over WallMS.
	ClaimsPerSec float64 `json:"claims_per_sec"`
	Dollars      float64 `json:"dollars"`
}

// StreamBenchResult compares streamed against batched delivery of the same
// corpus on the same server. Its JSON rendering is the BENCH_stream.json
// artifact (cedar-bench -stream-json). Verdicts are bit-identical across the
// two modes — the `make stream` gate proves that — so the rows differ only
// in delivery shape: streaming should cut time-to-first-verdict by roughly
// the document count while sustaining comparable claims/sec.
type StreamBenchResult struct {
	ThrottleScale float64          `json:"throttle_scale"`
	Rows          []StreamBenchRow `json:"rows"`
}

// StreamBench runs the default comparison. The workers flag is ignored: the
// server verifies with one worker on purpose (like a shardbench replica), so
// wall time is dominated by awaiting throttled model calls — the regime
// where delivery order is visible.
func StreamBench(seed int64, workers int) (*StreamBenchResult, error) {
	_ = workers
	return StreamBenchWith(seed, StreamBenchConfig{})
}

// StreamBenchWith runs the comparison with explicit knobs.
func StreamBenchWith(seed int64, cfg StreamBenchConfig) (*StreamBenchResult, error) {
	if cfg.Docs == 0 {
		cfg.Docs = streamBenchDocs
	}
	if cfg.ThrottleScale == 0 {
		cfg.ThrottleScale = streamBenchThrottle
	}
	res := &StreamBenchResult{ThrottleScale: cfg.ThrottleScale}
	// Each mode gets a fresh server so cross-mode state (metrics, review
	// queue) cannot bleed; determinism makes the verdicts identical anyway.
	for _, mode := range []string{"batch", "stream"} {
		row, err := streamBenchCell(seed, cfg, mode)
		if err != nil {
			return nil, fmt.Errorf("streambench %s: %w", mode, err)
		}
		res.Rows = append(res.Rows, *row)
	}
	return res, nil
}

// streamBenchCell boots one throttled single-worker server, delivers the
// corpus in the given mode, and measures time-to-first-verdict and wall time
// from the caller's side of the socket.
func streamBenchCell(seed int64, cfg StreamBenchConfig, mode string) (*StreamBenchRow, error) {
	stack, err := newStack(verify.StackConfig{Seed: seed, ThrottleScale: cfg.ThrottleScale})
	if err != nil {
		return nil, err
	}
	stack.Workers = 1
	profDocs, err := data.AggChecker(profileSeed(seed))
	if err != nil {
		return nil, err
	}
	stats, err := stack.Profile(profDocs[:6])
	if err != nil {
		return nil, err
	}
	pipe, err := core.New(core.Config{
		Methods:        stack.Methods,
		Stats:          stats,
		AccuracyTarget: 0.99,
		Seed:           seed,
		Workers:        1,
	})
	if err != nil {
		return nil, err
	}
	docs, err := data.AggChecker(seed)
	if err != nil {
		return nil, err
	}
	source := docs[0]

	var dollars float64
	backend := serve.BackendFunc(func(batch []*claim.Document) (serve.RunStats, error) {
		stack.Ledger.Reset()
		pipe.VerifyDocumentsParallel(batch, 1)
		st := serve.RunStats{
			Claims:  claim.TotalClaims(batch),
			Dollars: stack.Ledger.TotalDollars(),
			Calls:   stack.Ledger.TotalCalls(),
		}
		dollars += st.Dollars
		return st, nil
	})
	srv, err := serve.New(serve.Config{
		Backend:        backend,
		DB:             source.Data,
		DocID:          source.ID,
		BatchWait:      -1,
		QueueDepth:     2 * cfg.Docs,
		RequestTimeout: 10 * time.Minute,
	})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_ = srv.Shutdown(ctx)
		cancel()
	}()

	inputs, totalClaims, err := streamBenchInputs(source, cfg.Docs)
	if err != nil {
		return nil, err
	}
	var ttfv, wall time.Duration
	switch mode {
	case "batch":
		ttfv, wall, err = streamBenchBatch(ts.URL, inputs, totalClaims)
	case "stream":
		ttfv, wall, err = streamBenchStream(ts.URL, inputs, totalClaims)
	default:
		err = fmt.Errorf("unknown mode %q", mode)
	}
	if err != nil {
		return nil, err
	}
	return &StreamBenchRow{
		Mode:         mode,
		Docs:         len(inputs),
		Claims:       totalClaims,
		TTFVMS:       float64(ttfv) / float64(time.Millisecond),
		WallMS:       float64(wall) / float64(time.Millisecond),
		ClaimsPerSec: float64(totalClaims) / wall.Seconds(),
		Dollars:      dollars,
	}, nil
}

// streamBenchInputs renders the corpus: n documents, each the source
// document's first claim under a distinct doc_id — the same one-dataset,
// many-readers workload shardbench routes.
func streamBenchInputs(source *claim.Document, n int) ([]serve.DocumentInput, int, error) {
	if len(source.Claims) == 0 {
		return nil, 0, fmt.Errorf("source document %s has no claims", source.ID)
	}
	c := source.Claims[0]
	inputs := make([]serve.DocumentInput, 0, n)
	for i := 0; i < n; i++ {
		inputs = append(inputs, serve.DocumentInput{
			DocID: fmt.Sprintf("reader-%d", i),
			Claims: []serve.ClaimInput{{
				ID:       c.ID,
				Sentence: c.Sentence,
				Value:    c.Value,
				Context:  c.Context,
			}},
		})
	}
	return inputs, n * 1, nil
}

// streamBenchBatch delivers the corpus as one POST /v1/verify/batch. The
// first verdict is readable only when the whole response is: TTFV ≈ wall.
func streamBenchBatch(baseURL string, inputs []serve.DocumentInput, wantClaims int) (ttfv, wall time.Duration, err error) {
	body, err := json.Marshal(serve.BatchRequest{Documents: inputs})
	if err != nil {
		return 0, 0, err
	}
	started := time.Now()
	resp, err := http.Post(baseURL+"/v1/verify/batch", "application/json", strings.NewReader(string(body)))
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, 0, fmt.Errorf("batch status %d", resp.StatusCode)
	}
	var out serve.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return 0, 0, err
	}
	wall = time.Since(started)
	got := 0
	for _, d := range out.Documents {
		got += len(d.Claims)
	}
	if got != wantClaims {
		return 0, 0, fmt.Errorf("batch answered %d claims, want %d", got, wantClaims)
	}
	return wall, wall, nil
}

// streamBenchStream delivers the same corpus as POST /v1/verify/stream and
// clocks the first verdict line as it is read off the socket.
func streamBenchStream(baseURL string, inputs []serve.DocumentInput, wantClaims int) (ttfv, wall time.Duration, err error) {
	var b strings.Builder
	enc := json.NewEncoder(&b)
	for _, in := range inputs {
		if err := enc.Encode(in); err != nil {
			return 0, 0, err
		}
	}
	started := time.Now()
	resp, err := http.Post(baseURL+"/v1/verify/stream", "application/x-ndjson", strings.NewReader(b.String()))
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, 0, fmt.Errorf("stream status %d", resp.StatusCode)
	}
	dec := json.NewDecoder(resp.Body)
	verdicts := 0
	for {
		var ev serve.StreamEvent
		if err := dec.Decode(&ev); err != nil {
			if err == io.EOF {
				break
			}
			return 0, 0, err
		}
		switch ev.Event {
		case "verdict":
			if verdicts == 0 {
				ttfv = time.Since(started)
			}
			verdicts++
		case "error":
			return 0, 0, fmt.Errorf("stream error event: %+v", ev.Error)
		}
	}
	wall = time.Since(started)
	if verdicts != wantClaims {
		return 0, 0, fmt.Errorf("stream answered %d verdicts, want %d", verdicts, wantClaims)
	}
	return ttfv, wall, nil
}

// JSON renders the BENCH_stream.json artifact.
func (r *StreamBenchResult) JSON() ([]byte, error) { return json.MarshalIndent(r, "", "  ") }

// row returns the named mode's row, if present.
func (r *StreamBenchResult) row(mode string) *StreamBenchRow {
	for i := range r.Rows {
		if r.Rows[i].Mode == mode {
			return &r.Rows[i]
		}
	}
	return nil
}

// Render prints the comparison with the stream's time-to-first-verdict
// speedup over batch delivery.
func (r *StreamBenchResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "throttle scale %g\n", r.ThrottleScale)
	fmt.Fprintf(&b, "%-7s %6s %7s %12s %12s %12s %10s\n",
		"mode", "docs", "claims", "ttfv", "wall", "claims/s", "fee($)")
	batch := r.row("batch")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-7s %6d %7d %10.1fms %10.1fms %12.1f %10.4f\n",
			row.Mode, row.Docs, row.Claims, row.TTFVMS, row.WallMS, row.ClaimsPerSec, row.Dollars)
	}
	if st := r.row("stream"); st != nil && batch != nil && st.TTFVMS > 0 {
		fmt.Fprintf(&b, "first verdict %.1fx sooner streamed than batched\n", batch.TTFVMS/st.TTFVMS)
	}
	return b.String()
}

// CSV renders one row per delivery mode.
func (r *StreamBenchResult) CSV() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Mode, fmt.Sprintf("%d", row.Docs), fmt.Sprintf("%d", row.Claims),
			f(row.TTFVMS), f(row.WallMS), f(row.ClaimsPerSec), f(row.Dollars),
		})
	}
	return csvString([]string{"mode", "docs", "claims", "ttfv_ms", "wall_ms",
		"claims_per_sec", "dollars"}, rows)
}
