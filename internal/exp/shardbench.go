package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"repro/internal/claim"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/schedule"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/verify"
)

// Shardbench defaults: the sweep fires one request per client goroutine at
// each topology of the shard ladder. All clients share one bounded
// http.Client, so ten thousand concurrent callers multiplex over a few
// hundred sockets — the coordinator, not the bench, absorbs the fan-out
// (and the process stays far from typical fd limits).
const (
	shardBenchClients  = 10000
	shardBenchMaxConns = 256
	// shardBenchThrottle makes serving wait-bound: every model attempt
	// sleeps this fraction of its simulated latency (llm.Throttled), so a
	// replica's throughput is capped by awaiting provider responses — the
	// regime where adding replicas buys real wall-clock throughput even on
	// one core, because N batch loops await concurrently.
	shardBenchThrottle = 0.003
)

// shardBenchShards is the topology ladder, matching the determinism
// harness's shard counts.
var shardBenchShards = []int{1, 2, 4, 8}

// ShardBenchConfig tunes the sweep; zero values take the package defaults.
// Tests shrink Clients and Shards to keep the suite fast.
type ShardBenchConfig struct {
	Clients       int
	Shards        []int
	ThrottleScale float64
}

// ShardBenchResult is the sharded-serving throughput sweep: per-replica and
// aggregate ServeBenchRows per topology, one schema throughout. Its JSON
// rendering is the BENCH_shard.json artifact (cedar-bench -shard-json).
type ShardBenchResult struct {
	Clients       int             `json:"clients"`
	ThrottleScale float64         `json:"throttle_scale"`
	Rows          []ServeBenchRow `json:"rows"`
}

// ShardBench runs the default sweep. The workers flag is ignored: each
// replica verifies with one worker on purpose, so per-replica throughput is
// bound by one scheduler loop awaiting throttled model calls — the
// single-process ceiling the coordinator exists to break.
func ShardBench(seed int64, workers int) (*ShardBenchResult, error) {
	_ = workers
	return ShardBenchWith(seed, ShardBenchConfig{})
}

// ShardBenchWith runs the sweep with explicit knobs.
func ShardBenchWith(seed int64, cfg ShardBenchConfig) (*ShardBenchResult, error) {
	if cfg.Clients == 0 {
		cfg.Clients = shardBenchClients
	}
	if len(cfg.Shards) == 0 {
		cfg.Shards = shardBenchShards
	}
	if cfg.ThrottleScale == 0 {
		cfg.ThrottleScale = shardBenchThrottle
	}
	// Profile once, unthrottled, and share the stats: every replica then
	// runs the same schedule (how a fleet would ship one cedar-profile
	// artifact to all replicas), and the profiling pass does not pay the
	// throttle sleep.
	profStack, err := NewStackResilient(seed, ResilienceOptions{})
	if err != nil {
		return nil, err
	}
	profDocs, err := data.AggChecker(profileSeed(seed))
	if err != nil {
		return nil, err
	}
	stats, err := profStack.Profile(profDocs[:6])
	if err != nil {
		return nil, err
	}
	docs, err := data.AggChecker(seed)
	if err != nil {
		return nil, err
	}
	source := docs[0]

	res := &ShardBenchResult{Clients: cfg.Clients, ThrottleScale: cfg.ThrottleScale}
	for _, shards := range cfg.Shards {
		rows, err := shardBenchCell(seed, cfg, shards, stats, source)
		if err != nil {
			return nil, fmt.Errorf("shardbench shards=%d: %w", shards, err)
		}
		res.Rows = append(res.Rows, rows...)
	}
	return res, nil
}

// shardBenchReplica is one booted replica of a topology.
type shardBenchReplica struct {
	srv *serve.Server
	ts  *httptest.Server
}

// shardBenchCell boots one topology — N replicas behind a coordinator —
// fires the client load, and reads per-replica and aggregate rows back from
// the tier's own /v1/metrics surfaces.
func shardBenchCell(seed int64, cfg ShardBenchConfig, shards int, stats []schedule.MethodStats, source *claim.Document) (rows []ServeBenchRow, err error) {
	replicas := make([]*shardBenchReplica, 0, shards)
	defer func() {
		for _, rep := range replicas {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			_ = rep.srv.Shutdown(ctx)
			cancel()
			rep.ts.Close()
		}
	}()
	urls := make([]string, 0, shards)
	for i := 0; i < shards; i++ {
		rep, err := newShardBenchReplica(seed, cfg, stats, source)
		if err != nil {
			return nil, err
		}
		replicas = append(replicas, rep)
		urls = append(urls, rep.ts.URL)
	}

	coord, err := serve.NewCoordinator(serve.CoordinatorConfig{
		RouteKey: func(docID string, claims []serve.ClaimInput) []byte {
			return shard.Fingerprint("shardbench", docID)
		},
		DocID:          source.ID,
		Replicas:       urls,
		RequestTimeout: 10 * time.Minute,
	})
	if err != nil {
		return nil, err
	}
	coordTS := httptest.NewServer(coord)
	defer func() {
		coordTS.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = coord.Shutdown(ctx)
		cancel()
	}()

	body, err := shardBenchBody(source)
	if err != nil {
		return nil, err
	}
	// One bounded client for every goroutine: concurrency at the HTTP layer
	// is capped by the transport, and callers past the cap queue for a
	// socket instead of opening one — so replica queues stay shallow and
	// nothing sheds regardless of the client count.
	client := &http.Client{
		Timeout: 10 * time.Minute,
		Transport: &http.Transport{
			MaxIdleConns:        shardBenchMaxConns,
			MaxIdleConnsPerHost: shardBenchMaxConns,
			MaxConnsPerHost:     shardBenchMaxConns,
		},
	}
	defer client.CloseIdleConnections()
	errs := make(chan error, cfg.Clients)
	started := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < cfg.Clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			payload := strings.Replace(body, `"doc_id":"DOC"`, fmt.Sprintf(`"doc_id":"req-%d"`, i), 1)
			resp, err := client.Post(coordTS.URL+"/v1/verify", "application/json", bytes.NewReader([]byte(payload)))
			if err != nil {
				errs <- err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("client %d: status %d", i, resp.StatusCode)
			}
			resp.Body.Close()
		}(i)
	}
	wg.Wait()
	wall := time.Since(started)
	select {
	case err := <-errs:
		return nil, err
	default:
	}

	// The aggregate row reads the coordinator's own metrics (end-to-end
	// latency as the caller saw it); per-replica rows read each replica's.
	coordMet, err := fetchMetrics(coordTS.URL)
	if err != nil {
		return nil, err
	}
	agg := ServeBenchRow{
		Shards:    shards,
		Scope:     "aggregate",
		Workers:   1,
		Requests:  cfg.Clients,
		ReqPerSec: float64(cfg.Clients) / wall.Seconds(),
		E2E:       coordMet.LatencyMS,
	}
	for i, rep := range replicas {
		met, err := fetchMetrics(rep.ts.URL)
		if err != nil {
			return nil, err
		}
		row := ServeBenchRow{
			Shards:    shards,
			Scope:     fmt.Sprintf("replica-%d", i+1),
			Workers:   1,
			Requests:  int(met.Requests.Received),
			Claims:    int(met.Verify.Claims),
			ReqPerSec: float64(met.Requests.Received) / wall.Seconds(),
			E2E:       met.LatencyMS,
			Dollars:   met.Verify.Dollars,
		}
		agg.Claims += row.Claims
		agg.Dollars += row.Dollars
		rows = append(rows, row)
	}
	// Aggregate first, then the replicas it sums.
	return append([]ServeBenchRow{agg}, rows...), nil
}

// newShardBenchReplica boots one replica: a throttled single-worker stack
// (provider-latency-bound, like a real replica awaiting an LLM API) behind
// the serving batch loop.
func newShardBenchReplica(seed int64, cfg ShardBenchConfig, stats []schedule.MethodStats, source *claim.Document) (*shardBenchReplica, error) {
	stack, err := newStack(verify.StackConfig{Seed: seed, ThrottleScale: cfg.ThrottleScale})
	if err != nil {
		return nil, err
	}
	stack.Workers = 1
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
	backend := serve.BackendFunc(func(batch []*claim.Document) (serve.RunStats, error) {
		stack.Ledger.Reset()
		pipe.VerifyDocumentsParallel(batch, 1)
		return serve.RunStats{
			Claims:  claim.TotalClaims(batch),
			Dollars: stack.Ledger.TotalDollars(),
			Calls:   stack.Ledger.TotalCalls(),
		}, nil
	})
	srv, err := serve.New(serve.Config{
		Backend:        backend,
		DB:             source.Data,
		DocID:          source.ID,
		MaxBatch:       16,
		BatchWait:      -1,
		QueueDepth:     2 * shardBenchMaxConns,
		RequestTimeout: 10 * time.Minute,
	})
	if err != nil {
		return nil, err
	}
	return &shardBenchReplica{srv: srv, ts: httptest.NewServer(srv)}, nil
}

// shardBenchBody renders the per-request payload: the source document's
// first claim only, so the sweep measures serving-tier throughput rather
// than per-document verification depth.
func shardBenchBody(source *claim.Document) (string, error) {
	if len(source.Claims) == 0 {
		return "", fmt.Errorf("source document %s has no claims", source.ID)
	}
	c := source.Claims[0]
	req := serve.VerifyRequest{DocID: "DOC", Claims: []serve.ClaimInput{{
		ID:       c.ID,
		Sentence: c.Sentence,
		Value:    c.Value,
		Context:  c.Context,
	}}}
	raw, err := json.Marshal(req)
	if err != nil {
		return "", err
	}
	return string(raw), nil
}

// JSON renders the BENCH_shard.json artifact.
func (r *ShardBenchResult) JSON() ([]byte, error) { return json.MarshalIndent(r, "", "  ") }

// aggregate returns the aggregate row of one topology, if present.
func (r *ShardBenchResult) aggregate(shards int) *ServeBenchRow {
	for i := range r.Rows {
		row := &r.Rows[i]
		if row.Shards == shards && row.Scope == "aggregate" {
			return row
		}
	}
	return nil
}

// Render prints the sweep with per-topology speedup over the single-replica
// aggregate.
func (r *ShardBenchResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d concurrent clients, throttle scale %g\n", r.Clients, r.ThrottleScale)
	fmt.Fprintf(&b, "%-7s %-11s %9s %8s %10s %8s %10s %10s %10s\n",
		"shards", "scope", "requests", "claims", "req/s", "speedup", "e2e p50", "e2e p99", "fee($)")
	base := r.aggregate(r.Rows[0].Shards)
	for _, row := range r.Rows {
		speedup := "-"
		if row.Scope == "aggregate" && base != nil && base.ReqPerSec > 0 {
			speedup = fmt.Sprintf("%.2fx", row.ReqPerSec/base.ReqPerSec)
		}
		fmt.Fprintf(&b, "%-7d %-11s %9d %8d %10.1f %8s %9.1fms %9.1fms %10.4f\n",
			row.Shards, row.Scope, row.Requests, row.Claims, row.ReqPerSec, speedup,
			row.E2E.P50, row.E2E.P99, row.Dollars)
	}
	return b.String()
}

// CSV renders one row per (topology, scope).
func (r *ShardBenchResult) CSV() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%d", row.Shards), row.Scope,
			fmt.Sprintf("%d", row.Requests), fmt.Sprintf("%d", row.Claims),
			f(row.ReqPerSec), f(row.E2E.P50), f(row.E2E.P95), f(row.E2E.P99), f(row.Dollars),
		})
	}
	return csvString([]string{"shards", "scope", "requests", "claims",
		"req_per_sec", "e2e_p50_ms", "e2e_p95_ms", "e2e_p99_ms", "dollars"}, rows)
}
