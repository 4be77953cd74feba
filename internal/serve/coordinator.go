package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/shard"
	"repro/internal/trace"
)

// CoordinatorConfig assembles a Coordinator.
type CoordinatorConfig struct {
	// RouteKey derives the shard key of one document: the claim/config
	// fingerprint routed on the hash ring. Required. cmd/cedar-serve builds
	// it from the serving config tag, the document ID, and the claim texts
	// via shard.Fingerprint.
	RouteKey func(docID string, claims []ClaimInput) []byte
	// DocID is the default document ID for requests that omit doc_id. It
	// must match the replicas' default (their database name) so the
	// coordinator routes a defaulted request by the same identity the
	// replica will verify under.
	DocID string
	// Replicas are the initial replica base URLs; more can join at runtime
	// via POST /v1/replicas.
	Replicas []string
	// Client issues proxied requests and health probes. The default pools
	// connections per replica so tens of thousands of concurrent clients
	// multiplex over a bounded set of coordinator->replica sockets.
	Client *http.Client
	// ProbeInterval paces health sweeps (default 500ms); FailAfter and
	// RecoverAfter are the replica breaker's trip and readmission streaks
	// (default 2 each — see shard.Prober).
	ProbeInterval time.Duration
	FailAfter     int
	RecoverAfter  int
	// Attempts bounds the replicas one request may try, owner first
	// (default 3).
	Attempts int
	// StreamWindow bounds the documents one POST /v1/verify/stream request
	// may have in flight across replicas (default 4). Each document is
	// proxied to the replica owning its shard key; the window is the
	// coordinator's own backpressure bound, independent of the replicas'.
	StreamWindow int
	// RequestTimeout bounds one proxied request end to end (default 60s;
	// negative disables).
	RequestTimeout time.Duration
	// Schedule optionally names the replicas' verification schedule for
	// GET /v1/status.
	Schedule string
	// Tracer, when non-nil, records shard_route/shard_failover spans for
	// every proxied request. These are topology-dependent and dropped by
	// trace.ReplayNormalize.
	Tracer *trace.Tracer
	// Route, when non-nil, enables cross-database claim routing at the
	// coordinator (DESIGN.md §16): compound claims decompose here and each
	// sub-claim fans out to the replica owning its routed fingerprint, with
	// verdicts recombined in caller order. Requests without compound claims
	// take the ordinary relay path untouched.
	Route *RouteConfig
}

// Coordinator is the sharding front end of the serving tier: an
// http.Handler exposing the same /v1 verification surface as Server, but
// answering by routing each request to the replica owning its claim/config
// fingerprint on a consistent-hash ring. Replicas register and deregister
// at runtime; a health prober ejects dead or draining replicas (rehashing
// their keyspace onto ring successors) and readmits them when they recover.
// Because verdicts are deterministic per (doc_id, claims) regardless of
// which replica verifies them, routing affects throughput and fee
// attribution only — never responses.
type Coordinator struct {
	cfg    CoordinatorConfig
	client *http.Client
	ring   *shard.Ring
	prober *shard.Prober
	proxy  *shard.Proxy
	mux    *http.ServeMux
	res    *metrics.Resilience
	met    *serveMetrics
	start  time.Time
	// probeClient dials a fresh connection per health probe (see
	// probeClientFor), so a probe always tests the replica's listener.
	probeClient *http.Client

	routed       atomic.Int64
	failovers    atomic.Int64
	ejections    atomic.Int64
	readmissions atomic.Int64

	mu       sync.RWMutex
	draining bool
	// stopProber cancels the sweep loop; proberDone closes when it exits.
	stopProber context.CancelFunc
	proberDone chan struct{}
}

// NewCoordinator validates the configuration, registers the initial
// replicas, starts the health-probe loop, and returns the coordinator.
// Callers own its lifecycle: serve it as an http.Handler and call Shutdown
// to stop probing and drain.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.RouteKey == nil {
		return nil, fmt.Errorf("serve: CoordinatorConfig.RouteKey is required")
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 60 * time.Second
	}
	if cfg.StreamWindow <= 0 {
		cfg.StreamWindow = 4
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 64,
			MaxConnsPerHost:     512,
		}}
	}
	c := &Coordinator{
		cfg:         cfg,
		client:      client,
		probeClient: probeClientFor(client),
		ring:        shard.NewRing(0),
		res:         &metrics.Resilience{},
		met:         newServeMetrics(),
		start:       time.Now(),
		proberDone:  make(chan struct{}),
	}
	c.prober = &shard.Prober{
		Probe:        c.probe,
		Interval:     cfg.ProbeInterval,
		FailAfter:    cfg.FailAfter,
		RecoverAfter: cfg.RecoverAfter,
		OnEject: func(node string) {
			c.ring.Remove(node)
			c.ejections.Add(1)
		},
		OnAdmit: func(node string) {
			c.ring.Add(node)
			c.readmissions.Add(1)
		},
		Metrics: c.res,
	}
	c.proxy = &shard.Proxy{
		Ring:     c.ring,
		BaseURL:  func(node string) string { return node },
		Client:   client,
		Attempts: cfg.Attempts,
		OnFailure: func(node string) {
			c.failovers.Add(1)
			c.prober.ReportFailure(node)
		},
		OnSuccess: c.prober.ReportSuccess,
	}
	for _, url := range cfg.Replicas {
		c.register(url)
	}
	c.mux = c.routes()
	ctx, cancel := context.WithCancel(context.Background())
	c.stopProber = cancel
	go func() {
		defer close(c.proberDone)
		c.prober.Run(ctx)
	}()
	return c, nil
}

// ServeHTTP implements http.Handler.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) { c.mux.ServeHTTP(w, r) }

// routes builds the coordinator's HTTP surface: the Server verification
// routes (proxied) plus the replica-registration endpoint.
func (c *Coordinator) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/verify", c.handleVerify)
	mux.HandleFunc("POST /v1/verify/batch", c.handleVerifyBatch)
	mux.HandleFunc("POST /v1/verify/stream", c.handleVerifyStream)
	mux.HandleFunc("GET /v1/review", c.handleReviewList)
	mux.HandleFunc("POST /v1/review/{id}", c.handleReviewResolve)
	c.coordRoutesDatasets(mux)
	mux.HandleFunc("GET /v1/status", c.handleStatus)
	mux.HandleFunc("GET /v1/metrics", c.handleMetrics)
	mux.HandleFunc("GET /healthz", c.handleHealthz)
	mux.HandleFunc("POST /v1/replicas", c.handleReplicaJoin)
	mux.HandleFunc("DELETE /v1/replicas", c.handleReplicaLeave)
	return mux
}

// probe checks one replica's /healthz. A draining replica answers 503, so a
// replica beginning graceful shutdown is ejected within FailAfter sweeps and
// its keyspace rehashes while its in-flight work completes where it is.
func (c *Coordinator) probe(ctx context.Context, node string) error {
	ctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, node+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := c.probeClient.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	return nil
}

// probeClientFor derives the health-probe client from the proxy client: the
// same transport settings with keep-alives off. A pooled idle connection can
// outlive a replica's listener — a replica that accepts no new connections
// would then keep answering probes over it, each success resetting the
// failure streak, and never be ejected. A probe that must dial sees the dead
// listener at once. A client whose transport is not an *http.Transport is
// used as is.
func probeClientFor(client *http.Client) *http.Client {
	rt := client.Transport
	if rt == nil {
		rt = http.DefaultTransport
	}
	tr, ok := rt.(*http.Transport)
	if !ok {
		return client
	}
	tr = tr.Clone()
	tr.DisableKeepAlives = true
	return &http.Client{Transport: tr, Timeout: client.Timeout}
}

// register admits one replica (idempotent).
func (c *Coordinator) register(url string) {
	c.prober.Track(url)
	c.ring.Add(url)
}

// deregister withdraws one replica entirely — explicit leave, not ejection,
// so it stops being probed for readmission.
func (c *Coordinator) deregister(url string) {
	c.prober.Forget(url)
	c.ring.Remove(url)
}

// Owner reports which replica a shard key routes to. Test hook.
func (c *Coordinator) Owner(key []byte) (string, bool) { return c.ring.Assign(key) }

// Replicas snapshots the registered replicas and their health, sorted.
func (c *Coordinator) Replicas() []ReplicaStatus {
	tracked := c.prober.Tracked()
	out := make([]ReplicaStatus, 0, len(tracked))
	for _, url := range tracked {
		out = append(out, ReplicaStatus{URL: url, Healthy: c.prober.IsHealthy(url)})
	}
	return out
}

// Draining reports whether the coordinator has stopped admitting work.
func (c *Coordinator) Draining() bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.draining
}

// Shutdown stops admitting requests (503 draining, like Server) and stops
// the probe loop. The replicas drain themselves; the coordinator holds no
// queued work of its own. Safe to call more than once.
func (c *Coordinator) Shutdown(ctx context.Context) error {
	c.mu.Lock()
	c.draining = true
	c.mu.Unlock()
	c.stopProber()
	select {
	case <-c.proberDone:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// requestContext applies the configured per-request deadline.
func (c *Coordinator) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	if c.cfg.RequestTimeout > 0 {
		return context.WithTimeout(r.Context(), c.cfg.RequestTimeout)
	}
	return context.WithCancel(r.Context())
}

// decodeBody strictly decodes a JSON request body into dst, preserving the
// raw bytes so a valid body can be relayed verbatim.
func (c *Coordinator) decodeBody(w http.ResponseWriter, r *http.Request, dst any) ([]byte, bool) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes))
	if err == nil {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		err = dec.Decode(dst)
	}
	if err != nil {
		c.met.inc(&c.met.badRequests)
		writeError(w, http.StatusBadRequest, CodeBadRequest, fmt.Sprintf("decoding request body: %v", err), 0)
		return nil, false
	}
	return body, true
}

// rejectDraining answers a request arriving after Shutdown.
func (c *Coordinator) rejectDraining(w http.ResponseWriter) bool {
	if !c.Draining() {
		return false
	}
	c.met.inc(&c.met.rejectedDraining)
	writeError(w, http.StatusServiceUnavailable, CodeDraining, "coordinator is draining", 0)
	return true
}

// routeKey derives one document's shard key, applying the doc_id default the
// replica will apply, so the coordinator and replica agree on the identity.
func (c *Coordinator) routeKey(docID string, claims []ClaimInput) ([]byte, string) {
	if docID == "" {
		docID = c.cfg.DocID
	}
	return c.cfg.RouteKey(docID, claims), docID
}

// traceRoute records the routing spans of one proxied exchange.
func (c *Coordinator) traceRoute(docID string, res shard.Result) {
	t := c.cfg.Tracer
	if !t.Enabled() {
		return
	}
	key := trace.Key{Doc: docID, Method: "route"}
	if res.Hops > 0 {
		t.Record(trace.Span{Key: key, Kind: trace.KindShardFailover,
			Detail: fmt.Sprintf("%d hop(s)", res.Hops)})
	}
	outcome := trace.OutcomeOK
	if res.Status != http.StatusOK {
		outcome = trace.OutcomeError
	}
	t.Record(trace.Span{Key: key, Kind: trace.KindShardRoute, Detail: res.Node, Outcome: outcome})
}

// countRelay books the coordinator's view of a relayed replica response.
func (c *Coordinator) countRelay(status int) {
	switch status {
	case http.StatusTooManyRequests:
		c.met.inc(&c.met.shedOverload)
	case http.StatusServiceUnavailable:
		c.met.inc(&c.met.rejectedDraining)
	case http.StatusGatewayTimeout:
		c.met.inc(&c.met.deadlineExpired)
	case http.StatusBadRequest:
		c.met.inc(&c.met.badRequests)
	case http.StatusInternalServerError:
		c.met.inc(&c.met.internalErrors)
	}
}

// proxyErrorDetail classifies a proxy failure and books its metric: an empty
// ring is a drain-equivalent 503; a replica that died after the request was
// delivered is 502/replica_lost — the work may have run and been billed, so
// the proxy refused to retry it elsewhere and the caller decides whether
// re-submitting (verdict-safe; only fees recur) is acceptable; anything else
// is a 500 naming the last replica error.
func (c *Coordinator) proxyErrorDetail(err error) (int, ErrorDetail) {
	switch {
	case err == shard.ErrNoReplicas:
		c.met.inc(&c.met.rejectedDraining)
		return http.StatusServiceUnavailable, ErrorDetail{Code: CodeDraining, Message: "no live replicas"}
	case errors.Is(err, shard.ErrAfterDelivery):
		c.met.inc(&c.met.internalErrors)
		return http.StatusBadGateway, ErrorDetail{Code: CodeReplicaLost, Message: err.Error()}
	default:
		c.met.inc(&c.met.internalErrors)
		return http.StatusInternalServerError, ErrorDetail{Code: CodeInternal, Message: err.Error()}
	}
}

// renderProxyError maps a proxy failure onto the error envelope.
func (c *Coordinator) renderProxyError(w http.ResponseWriter, err error) {
	status, det := c.proxyErrorDetail(err)
	writeError(w, status, det.Code, det.Message, 0)
}

// relay writes a replica's (status, body) response verbatim.
func relay(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// handleVerify proxies POST /v1/verify to the replica owning the request's
// shard key, failing over along the ring when the owner is dead or draining.
func (c *Coordinator) handleVerify(w http.ResponseWriter, r *http.Request) {
	started := time.Now()
	if c.rejectDraining(w) {
		return
	}
	var req VerifyRequest
	body, ok := c.decodeBody(w, r, &req)
	if !ok {
		return
	}
	ctx, cancel := c.requestContext(r)
	defer cancel()
	if c.cfg.Route != nil && c.tryRoutedVerify(ctx, w, started, req) {
		return
	}
	key, docID := c.routeKey(req.DocID, req.Claims)
	res, err := c.proxy.Do(ctx, key, "/v1/verify", body)
	if err != nil {
		c.renderProxyError(w, err)
		return
	}
	c.routed.Add(1)
	c.traceRoute(docID, res)
	c.countRelay(res.Status)
	if res.Status == http.StatusOK {
		c.met.recordRequest(time.Since(started))
	}
	relay(w, res.Status, res.Body)
}

// handleVerifyBatch proxies POST /v1/verify/batch through the ring scatter:
// every document still rides a replica micro-batch, so fee attribution
// follows the replica that did the work.
func (c *Coordinator) handleVerifyBatch(w http.ResponseWriter, r *http.Request) {
	started := time.Now()
	if c.rejectDraining(w) {
		return
	}
	var req BatchRequest
	if _, ok := c.decodeBody(w, r, &req); !ok {
		return
	}
	if len(req.Documents) == 0 {
		c.met.inc(&c.met.badRequests)
		writeError(w, http.StatusBadRequest, CodeBadRequest, "batch request has no documents", 0)
		return
	}
	ctx, cancel := c.requestContext(r)
	defer cancel()
	if c.cfg.Route != nil && c.tryRoutedVerifyBatch(ctx, w, started, req) {
		return
	}
	merged, ok := c.scatter(ctx, w, req.Documents)
	if !ok {
		return
	}
	c.met.recordRequest(time.Since(started))
	writeJSON(w, http.StatusOK, merged)
}

// scatter is the coordinator's one ring scatter-gather, shared by the plain
// and routed batch paths: docs are grouped by owning replica, each group is
// one /v1/verify/batch sub-batch through the failover proxy, and the replies
// merge in caller order with summed batch stats. Every sub-batch a replica
// answered is counted in routed and traced. On failure scatter writes the
// response for the earliest failing document and reports false: a non-OK
// replica answer relays verbatim; a proxy error, unparseable reply, or reply
// short of documents or claims is an explicit error, never a zero verdict.
func (c *Coordinator) scatter(ctx context.Context, w http.ResponseWriter, docs []DocumentInput) (BatchResponse, bool) {
	// Assignment is read once per document; a membership change mid-request
	// is the proxy's failover, not a re-grouping. Groups keep the order of
	// their first documents, so the first failing group is the earliest.
	type group struct {
		idxs   []int
		docs   []DocumentInput
		key    []byte
		docID  string
		res    shard.Result
		parsed BatchResponse
		err    error
	}
	var groups []*group
	byOwner := make(map[string]*group)
	for i, in := range docs {
		key, docID := c.routeKey(in.DocID, in.Claims)
		owner, ok := c.ring.Assign(key)
		if !ok {
			c.renderProxyError(w, shard.ErrNoReplicas)
			return BatchResponse{}, false
		}
		g := byOwner[owner]
		if g == nil {
			g = &group{key: key, docID: docID}
			byOwner[owner] = g
			groups = append(groups, g)
		}
		g.idxs = append(g.idxs, i)
		g.docs = append(g.docs, in)
	}

	var wg sync.WaitGroup
	for _, g := range groups {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, err := json.Marshal(BatchRequest{Documents: g.docs})
			if err == nil {
				g.res, err = c.proxy.Do(ctx, g.key, "/v1/verify/batch", body)
			}
			if err == nil && g.res.Status == http.StatusOK {
				err = json.Unmarshal(g.res.Body, &g.parsed)
				if err == nil {
					err = checkReply(g.res.Node, g.docs, g.parsed.Documents)
				}
			}
			g.err = err
		}()
	}
	wg.Wait()

	var failed *group
	for _, g := range groups {
		if g.res.Node != "" {
			c.routed.Add(1)
			c.traceRoute(g.docID, g.res)
		}
		if failed == nil && (g.err != nil || g.res.Status != http.StatusOK) {
			failed = g
		}
	}
	if failed != nil {
		if failed.err != nil {
			c.renderProxyError(w, failed.err)
		} else {
			c.countRelay(failed.res.Status)
			relay(w, failed.res.Status, failed.res.Body)
		}
		return BatchResponse{}, false
	}

	merged := BatchResponse{Documents: make([]DocumentResult, len(docs))}
	for _, g := range groups {
		for j, idx := range g.idxs {
			merged.Documents[idx] = g.parsed.Documents[j]
		}
		merged.Batch.Docs += g.parsed.Batch.Docs
		merged.Batch.Claims += g.parsed.Batch.Claims
		merged.Batch.Dollars += g.parsed.Batch.Dollars
		merged.Batch.Calls += g.parsed.Batch.Calls
	}
	return merged, true
}

// checkReply rejects a reply short of the documents or claims it was sent.
func checkReply(node string, sent []DocumentInput, got []DocumentResult) error {
	if len(got) != len(sent) {
		return fmt.Errorf("replica %s returned %d documents for %d", node, len(got), len(sent))
	}
	for i, d := range got {
		if len(d.Claims) != len(sent[i].Claims) {
			return fmt.Errorf("replica %s returned %d claims for %d in document %q", node, len(d.Claims), len(sent[i].Claims), d.DocID)
		}
	}
	return nil
}

// handleStatus answers GET /v1/status with the coordinator role and the
// replica roster.
func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	state := "serving"
	if c.Draining() {
		state = "draining"
	}
	writeJSON(w, http.StatusOK, StatusResponse{
		State:    state,
		Schedule: c.cfg.Schedule,
		UptimeMS: time.Since(c.start).Milliseconds(),
		Role:     "coordinator",
		Replicas: c.Replicas(),
	})
}

// handleMetrics answers GET /v1/metrics: the coordinator's own request
// counters plus the shard section and the replica-breaker counters.
func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	body := c.met.snapshot()
	body.Stream.Window = c.cfg.StreamWindow
	rs := c.res.Snapshot()
	body.Resilience = &ResilienceCounters{
		BreakerTrips:  rs.BreakerTrips,
		BreakerSheds:  rs.BreakerSheds,
		BreakerProbes: rs.BreakerProbes,
	}
	body.Shard = &ShardCounters{
		Replicas:     len(c.prober.Tracked()),
		Healthy:      len(c.healthyReplicas()),
		Routed:       c.routed.Load(),
		Failovers:    c.failovers.Load(),
		Ejections:    c.ejections.Load(),
		Readmissions: c.readmissions.Load(),
	}
	writeJSON(w, http.StatusOK, body)
}

// handleHealthz answers 200 while at least one replica is live, 503 while
// draining or with an empty ring, so an upstream balancer can fail away from
// a coordinator that cannot serve.
func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if c.Draining() || c.ring.Len() == 0 {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "unavailable")
		return
	}
	fmt.Fprintln(w, "ok")
}

// handleReplicaJoin admits a replica announced via POST /v1/replicas.
func (c *Coordinator) handleReplicaJoin(w http.ResponseWriter, r *http.Request) {
	var req ReplicaRequest
	if _, ok := c.decodeBody(w, r, &req); !ok {
		return
	}
	if req.URL == "" {
		c.met.inc(&c.met.badRequests)
		writeError(w, http.StatusBadRequest, CodeBadRequest, "replica url is required", 0)
		return
	}
	c.register(req.URL)
	writeJSON(w, http.StatusOK, c.Replicas())
}

// handleReplicaLeave withdraws a replica via DELETE /v1/replicas?url=...;
// replicas call it as the first step of graceful shutdown so new work
// rehashes immediately while they drain what they already admitted.
func (c *Coordinator) handleReplicaLeave(w http.ResponseWriter, r *http.Request) {
	url := r.URL.Query().Get("url")
	if url == "" {
		c.met.inc(&c.met.badRequests)
		writeError(w, http.StatusBadRequest, CodeBadRequest, "replica url query parameter is required", 0)
		return
	}
	c.deregister(url)
	writeJSON(w, http.StatusOK, c.Replicas())
}
