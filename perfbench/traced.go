package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/cedar"
	"repro/internal/claim"
	"repro/internal/route"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/sqldb"
	"repro/internal/trace"
)

// The traced run assembles the workload's tier in-process from the
// constructors cmd/cedar-serve calls (cedar.New + ProfileOn, serve.New,
// serve.NewCoordinator) with its flag defaults, on the same loopback
// addresses, and records spans from the benchmark's own code at each layer
// boundary: the client request, the coordinator handler, each
// coordinator→replica hop (a RoundTripper on CoordinatorConfig.Client), the
// replica handler (a wrapper around *serve.Server) and each micro-batch (a
// BackendFunc around System.Verify). Every request's spans form a chain
//
//	client ⊃ coordinator ⊃ critical hop ⊃ replica handler ⊃ batch
//
// whose self times sum to the client-observed time by construction; a
// request missing any link fails the run.

// verifyMethods are the four methods of cedar.New's stack.
var verifyMethods = []string{"oneshot-gpt3.5", "oneshot-gpt4o", "agent-gpt4o", "agent-gpt4.1"}

// cpuLayers are the layers CPU samples are attributed to: the packages of
// module repro the tier runs, the benchmark, networking and the runtime.
var cpuLayers = []string{
	"agent", "cedar", "claim", "core", "embed", "exp", "ingest", "llm", "metrics", "nl", "profile",
	"prompts", "resilience", "review", "route", "schedule", "serve", "shard", "sim", "sqldb",
	"store", "textutil", "trace", "verify", "cliutil", "data", "bench", "net", "runtime",
}

// latencyParts split each request's client-observed time along its span
// chain: the client and network outside the first server, the
// coordinator's own work, the coordinator→replica network, the replica's
// wait before its micro-batch, the micro-batch's verification, and the
// replica's work after it.
var latencyParts = []string{"client", "shard", "hop", "serve_queue", "verify", "serve_self"}

// interval is one span's wall-clock extent.
type interval struct{ start, end time.Time }

func (iv interval) dur() time.Duration { return iv.end.Sub(iv.start) }

// handlerSpan is one replica handler invocation.
type handlerSpan struct {
	interval
	replica string
	id      int
	body    []byte
}

// hopSpan is one coordinator→replica request.
type hopSpan struct {
	interval
	replica string
	id      int
}

// batchSpan is one micro-batch run with the counts its trace carried.
type batchSpan struct {
	interval
	replica  string
	docIDs   []string
	docs     int
	claims   int
	escal    int // claims that needed more than one attempt
	calls    int
	tokens   int
	retries  int
	hedges   int
	simLat   time.Duration
	outcomes map[string]int
}

// recorder keeps every span in memory until the run ends.
type recorder struct {
	mu       sync.Mutex
	coord    map[int]interval
	hops     []hopSpan
	handlers []handlerSpan
	batches  []batchSpan
}

func (r *recorder) add(f func()) {
	r.mu.Lock()
	f()
	r.mu.Unlock()
}

type requestIDKey struct{}

// coordHandler spans the coordinator's handling of each client request and
// hands the request ID to the hop transport through the context.
type coordHandler struct {
	inner http.Handler
	rec   *recorder
}

func (h *coordHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.Header.Get(requestIDHeader))
	if err != nil {
		h.inner.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	h.inner.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), requestIDKey{}, id)))
	end := time.Now()
	h.rec.add(func() { h.rec.coord[id] = interval{start, end} })
}

// hopTransport spans every verification request the coordinator sends a
// replica, until its response body is consumed, and forwards the request
// ID in a header.
type hopTransport struct {
	base http.RoundTripper
	rec  *recorder
}

func (t *hopTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id, ok := req.Context().Value(requestIDKey{}).(int)
	if !ok || !strings.HasPrefix(req.URL.Path, "/v1/verify") {
		return t.base.RoundTrip(req)
	}
	req = req.Clone(req.Context())
	req.Header.Set(requestIDHeader, strconv.Itoa(id))
	hop := hopSpan{replica: req.URL.Host, id: id}
	hop.start = time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		hop.end = time.Now()
		t.rec.add(func() { t.rec.hops = append(t.rec.hops, hop) })
		return nil, err
	}
	resp.Body = &hopBody{ReadCloser: resp.Body, done: func() {
		hop.end = time.Now()
		t.rec.add(func() { t.rec.hops = append(t.rec.hops, hop) })
	}}
	return resp, nil
}

// hopBody ends its hop span at EOF or Close, whichever comes first.
type hopBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *hopBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err == io.EOF {
		b.once.Do(b.done)
	}
	return n, err
}

func (b *hopBody) Close() error {
	b.once.Do(b.done)
	return b.ReadCloser.Close()
}

// replicaHandler spans a replica's handling of each verification request.
type replicaHandler struct {
	inner http.Handler
	name  string
	rec   *recorder
}

func (h *replicaHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.Header.Get(requestIDHeader))
	if err != nil || !strings.HasPrefix(r.URL.Path, "/v1/verify") {
		h.inner.ServeHTTP(w, r)
		return
	}
	sp := handlerSpan{replica: h.name, id: id}
	sp.start = time.Now()
	sp.body, err = io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	r.Body = io.NopCloser(bytes.NewReader(sp.body))
	h.inner.ServeHTTP(w, r)
	sp.end = time.Now()
	h.rec.add(func() { h.rec.handlers = append(h.rec.handlers, sp) })
}

// tracedReplica is one in-process replica.
type tracedReplica struct {
	name string
	db   *sqldb.Database
	sys  *cedar.System
	srv  *serve.Server
}

// tracedTier is the in-process topology.
type tracedTier struct {
	replicas []*tracedReplica
	coord    *serve.Coordinator
	servers  []*http.Server
	url      string
}

// buildTracedTier assembles the workload's tier in-process.
func buildTracedTier(w *workload, rec *recorder) (*tracedTier, error) {
	t := &tracedTier{}
	var urls []string
	for i := 0; i < w.replicas; i++ {
		rep, err := newTracedReplica(w, replicaAddr(i), rec)
		if err != nil {
			t.close()
			return nil, err
		}
		t.replicas = append(t.replicas, rep)
		if err := t.listen(rep.name, &replicaHandler{inner: rep.srv, name: rep.name, rec: rec}); err != nil {
			t.close()
			return nil, err
		}
		urls = append(urls, "http://"+rep.name)
	}
	t.url = urls[0]
	if !w.coordinator {
		return t, nil
	}
	// The coordinator loads its own copy of the tables, as its process does.
	db, err := loadDatabase(w)
	if err != nil {
		t.close()
		return nil, err
	}
	cfg := serve.CoordinatorConfig{
		RouteKey:       routeKey(db.Name),
		DocID:          db.Name,
		Replicas:       urls,
		ProbeInterval:  500 * time.Millisecond,
		StreamWindow:   4,
		RequestTimeout: time.Minute,
		Client: &http.Client{Transport: &hopTransport{rec: rec, base: &http.Transport{
			MaxIdleConns: 256, MaxIdleConnsPerHost: 64, MaxConnsPerHost: 512,
		}}},
	}
	if w.route {
		cfg.Route = &serve.RouteConfig{Catalog: route.NewCatalog(db), Seed: serveSeed}
	}
	coord, err := serve.NewCoordinator(cfg)
	if err != nil {
		t.close()
		return nil, err
	}
	t.coord = coord
	if err := t.listen(coordinatorAddr, &coordHandler{inner: coord, rec: rec}); err != nil {
		t.close()
		return nil, err
	}
	t.url = "http://" + coordinatorAddr
	return t, nil
}

// newTracedReplica builds one replica as cmd/cedar-serve's newServer does,
// with a backend that spans each micro-batch and folds its trace counts.
func newTracedReplica(w *workload, addr string, rec *recorder) (*tracedReplica, error) {
	db, err := loadDatabase(w)
	if err != nil {
		return nil, err
	}
	tracer := cedar.NewTracer()
	sys, err := newSystem(db, w.route, tracer)
	if err != nil {
		return nil, err
	}
	backend := serve.BackendFunc(func(docs []*claim.Document) (serve.RunStats, error) {
		b := batchSpan{replica: addr, docs: len(docs), outcomes: make(map[string]int)}
		b.start = time.Now()
		rep, err := sys.Verify(docs)
		b.end = time.Now()
		if err != nil {
			return serve.RunStats{}, err
		}
		foldBatch(&b, docs, tracer.Spans())
		rec.add(func() { rec.batches = append(rec.batches, b) })
		return serve.RunStats{Claims: rep.Claims, Dollars: rep.Dollars, Calls: rep.Calls}, nil
	})
	srv, err := serve.New(serve.Config{
		Backend:        backend,
		DB:             db,
		DocID:          db.Name,
		MaxBatch:       serveMaxBatch,
		BatchWait:      2 * time.Millisecond,
		QueueDepth:     64,
		RequestTimeout: time.Minute,
		StreamWindow:   4,
		ReviewCap:      256,
		Schedule:       sys.Schedule(),
		Resilience:     sys.Resilience,
		Tracer:         tracer,
	})
	if err != nil {
		sys.Close()
		return nil, err
	}
	return &tracedReplica{name: addr, db: db, sys: sys, srv: srv}, nil
}

// foldBatch reduces one micro-batch's verdicts and attempt trace to counts.
func foldBatch(b *batchSpan, docs []*claim.Document, spans []trace.Span) {
	for _, d := range docs {
		b.docIDs = append(b.docIDs, d.ID)
		for _, c := range d.Claims {
			b.claims++
			if c.Result.Attempts > 1 {
				b.escal++
			}
		}
	}
	for _, sp := range spans {
		switch sp.Kind {
		case trace.KindAttempt:
			b.calls++
			b.tokens += sp.PromptTokens + sp.CompletionTokens
			b.simLat += sp.Latency
		case trace.KindOutcome:
			b.outcomes[sp.Method]++
		case trace.KindRetry:
			b.retries++
		case trace.KindHedge:
			b.hedges++
		}
	}
}

// routeKey is cmd/cedar-serve's shard key: the claim/config fingerprint
// under the default seed and accuracy target.
func routeKey(dbName string) func(docID string, claims []serve.ClaimInput) []byte {
	cfgTag := fmt.Sprintf("cedar-serve|seed=%d|target=%g|db=%s", serveSeed, serveTarget, dbName)
	return func(docID string, claims []serve.ClaimInput) []byte {
		fields := make([]string, 0, 2+3*len(claims))
		fields = append(fields, cfgTag, docID)
		for _, c := range claims {
			fields = append(fields, c.Sentence, c.Value, c.Context)
		}
		return shard.Fingerprint(fields...)
	}
}

func (t *tracedTier) listen(addr string, h http.Handler) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("address %s is taken (is a cedar-serve from an earlier run still alive?): %w", addr, err)
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	t.servers = append(t.servers, srv)
	go func() { _ = srv.Serve(ln) }() // returns ErrServerClosed on close
	return nil
}

// close stops every server and releases the Systems.
func (t *tracedTier) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if t.coord != nil {
		_ = t.coord.Shutdown(ctx) // only stops probing; nothing is queued
	}
	for _, r := range t.replicas {
		_ = r.srv.Shutdown(ctx) // drains admitted work; the run has ended
	}
	for _, s := range t.servers {
		_ = s.Close()
	}
	for _, r := range t.replicas {
		r.sys.Close()
	}
}

// planCache sums the replicas' SQL plan-cache counters.
func (t *tracedTier) planCache() sqldb.PlanCacheStats {
	var s sqldb.PlanCacheStats
	for _, r := range t.replicas {
		p := r.db.PlanCacheStats()
		s.Hits += p.Hits
		s.Misses += p.Misses
	}
	return s
}

// counters reads the serving counters the per-layer metrics need.
func (t *tracedTier) counters(client *http.Client) (rejected, failovers int64, dollars float64, err error) {
	for _, r := range t.replicas {
		var m serve.MetricsResponse
		if err := getJSON(client, "http://"+r.name+"/v1/metrics", &m); err != nil {
			return 0, 0, 0, err
		}
		rejected += m.Requests.ShedOverload + m.Requests.RejectedDraining + m.Requests.DeadlineExpired
		dollars += m.Verify.Dollars
	}
	if t.coord != nil {
		var m serve.MetricsResponse
		if err := getJSON(client, t.url+"/v1/metrics", &m); err != nil {
			return 0, 0, 0, err
		}
		failovers = m.Shard.Failovers
	}
	return rejected, failovers, dollars, nil
}

// runtimeSample reads the runtime counters the per-layer metrics need.
func runtimeSample() (gcCPU, totalCPU float64, allocs, bytes uint64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64(), s[2].Value.Uint64(), s[3].Value.Uint64()
}

// runTraced measures the per-layer metrics on the in-process tier and
// checks that it reproduces the oracle's verdicts and fees.
func runTraced(ctx context.Context, cfg config) (*result, map[string]any, error) {
	p, err := prepare(cfg)
	if err != nil {
		return nil, nil, err
	}
	w, orc, gen := p.w, p.orc, p.gen
	planUS, subPerClaim, err := timeRoutePlanning(w)
	if err != nil {
		return nil, nil, err
	}
	rec := &recorder{coord: make(map[int]interval)}
	t, err := buildTracedTier(w, rec)
	if err != nil {
		return nil, nil, err
	}
	defer t.close()
	gen.url = t.url
	admin := &http.Client{Timeout: 10 * time.Second}

	warm := orc.check(w, gen.closedLoop(ctx, cfg.warmup, false))
	rej0, fo0, dollars0, err := t.counters(admin)
	if err != nil {
		return nil, nil, err
	}
	plan0 := t.planCache()
	profPath := filepath.Join(cfg.workDir, "out", fmt.Sprintf("%s-seed%d.cpu.pprof", cfg.workload, cfg.seed))
	prof, err := os.Create(profPath)
	if err != nil {
		return nil, nil, err
	}
	gc0, cpu0, allocs0, bytes0 := runtimeSample()
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return nil, nil, err
	}
	start := time.Now()
	outs := p.measure(ctx)
	pprof.StopCPUProfile()
	gc1, cpu1, allocs1, bytes1 := runtimeSample()
	if err := prof.Close(); err != nil {
		return nil, nil, err
	}
	if ctx.Err() != nil {
		return nil, nil, ctx.Err()
	}
	end := lastDone(start, outs)
	plan1 := t.planCache()
	rej1, fo1, dollars1, err := t.counters(admin)
	if err != nil {
		return nil, nil, err
	}

	tl := orc.check(w, outs)
	if tl.claims == 0 {
		return nil, nil, fmt.Errorf("no request succeeded: %s", tl.firstErr)
	}
	served := dollars1 - dollars0 + tl.routeFee
	feeOK := feeMatches(served, tl.fee)
	q := tl.quality(w)
	claims := float64(tl.claims)

	rec.mu.Lock()
	defer rec.mu.Unlock()
	chains, err := rec.chains(outs, start, w.coordinator)
	if err != nil {
		return nil, nil, err
	}
	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	for _, part := range latencyParts {
		set("latency."+part+"_share", chains.shares[part], "ratio")
	}

	var queue, selfServe, hopMS, shardSelf, late []float64
	for _, c := range chains.all {
		queue = append(queue, c.queue...)
		selfServe = append(selfServe, c.serveSelf...)
	}
	for _, h := range rec.hops {
		if !h.start.Before(start) {
			hopMS = append(hopMS, ms(h.dur()))
		}
	}
	for _, c := range chains.all {
		if w.coordinator {
			shardSelf = append(shardSelf, ms(c.shardSelf))
		}
	}
	for i := range outs {
		late = append(late, ms(outs[i].late()))
	}
	set("serve.queue_ms_p50", quantile(queue, 0.5), "ms")
	set("serve.queue_ms_p99", quantile(queue, 0.99), "ms")
	set("serve.self_ms_p50", quantile(selfServe, 0.5), "ms")
	set("serve.batch_docs_mean", chains.batchDocsMean, "docs")
	set("serve.rejected", float64(rej1-rej0), "count")
	set("shard.hop_ms_p50", quantile(hopMS, 0.5), "ms")
	set("shard.self_ms_p50", quantile(shardSelf, 0.5), "ms")
	set("shard.hops_per_request", float64(len(hopMS))/float64(len(outs)), "1/request")
	set("shard.failovers", float64(fo1-fo0), "count")
	set("route.plan_us_per_claim", planUS, "us")
	set("route.subclaims_per_claim", subPerClaim, "1/claim")
	set("cedar.verify_ms_per_claim", ms(chains.verify)/claims, "ms")

	addBatchMetrics(set, rec.batches, start, claims)
	plans := float64(plan1.Hits + plan1.Misses - plan0.Hits - plan0.Misses)
	set("sqldb.plans_per_claim", plans/claims, "1/claim")
	set("sqldb.plan_hit_ratio", ratio(float64(plan1.Hits-plan0.Hits), plans), "ratio")
	samples, attributed, err := addCPUMetrics(set, profPath)
	if err != nil {
		return nil, nil, err
	}
	set("runtime.gc_cpu_share", ratio(gc1-gc0, cpu1-cpu0), "ratio")
	set("runtime.allocs_per_claim", float64(allocs1-allocs0)/claims, "1/claim")
	set("runtime.bytes_per_claim", float64(bytes1-bytes0)/claims, "bytes")
	set("loadgen.late_ms_p50", quantile(late, 0.5), "ms")
	set("loadgen.late_ms_p99", quantile(late, 0.99), "ms")
	set("traced.claims_per_s", claims/end.Sub(start).Seconds(), "claims/s")

	res := &result{
		Correct:   tl.mismatches == 0 && warm.mismatches == 0 && feeOK,
		Attempted: tl.attempted + warm.attempted,
		Failed:    tl.failed + warm.failed,
		Metrics:   m,
	}
	details := map[string]any{
		"requests":           len(outs),
		"claims":             tl.claims,
		"first_failure":      firstNonEmpty(tl.firstErr, warm.firstErr),
		"verdict_mismatches": tl.mismatches + warm.mismatches,
		"fee_served_usd":     served,
		"fee_oracle_usd":     tl.fee,
		"fee_match":          feeOK,
		"fee_per_claim_usd":  tl.fee / claims,
		"quality":            q,
		"cpu_samples":        samples,
		"cpu_attributed":     attributed,
		"cpu_profile":        profPath,
	}
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: traced tier differs from the oracle: %d verdict mismatch(es), fee $%.9f vs $%.9f; first: %s\n",
			tl.mismatches+warm.mismatches, served, tl.fee, firstNonEmpty(tl.firstErr, warm.firstErr))
	}
	return res, details, nil
}

// addBatchMetrics folds the micro-batches of the measured phase into the
// attempt, model-call and simulated-time metrics.
func addBatchMetrics(set func(string, float64, string), batches []batchSpan, start time.Time, claims float64) {
	var calls, tokens, retries, hedges, escal, bclaims, attempts int
	var simLat time.Duration
	outcomes := map[string]int{}
	for _, b := range batches {
		if b.start.Before(start) {
			continue
		}
		calls += b.calls
		tokens += b.tokens
		retries += b.retries
		hedges += b.hedges
		escal += b.escal
		bclaims += b.claims
		simLat += b.simLat
		for k, v := range b.outcomes {
			outcomes[k] += v
			attempts += v
		}
	}
	set("core.attempts_per_claim", float64(attempts)/claims, "1/claim")
	set("core.escalated_share", ratio(float64(escal), float64(bclaims)), "ratio")
	for _, name := range verifyMethods {
		set("verify.attempts."+name, float64(outcomes[name])/claims, "1/claim")
	}
	set("llm.calls_per_claim", float64(calls)/claims, "1/claim")
	set("llm.tokens_per_claim", float64(tokens)/claims, "tokens")
	set("llm.retries", float64(retries), "count")
	set("llm.hedges", float64(hedges), "count")
	set("sim.latency_s_per_claim", simLat.Seconds()/claims, "s")
}

// addCPUMetrics attributes the measured phase's CPU profile to layers and
// returns the sample count and the share falling in a named layer, failing
// below 95%.
func addCPUMetrics(set func(string, float64, string), profPath string) (int64, float64, error) {
	raw, err := os.ReadFile(profPath)
	if err != nil {
		return 0, 0, err
	}
	samples, err := parseProfile(raw)
	if err != nil {
		return 0, 0, fmt.Errorf("reading CPU profile: %w", err)
	}
	byLayer := map[string]int64{}
	var all, gen int64
	for _, s := range samples {
		byLayer[layerOf(s.funcs)] += s.count
		all += s.count
		if onGenerator(s.funcs) {
			gen += s.count
		}
	}
	var named int64
	for _, l := range cpuLayers {
		set("cpu."+l+"_share", ratio(float64(byLayer[l]), float64(all)), "ratio")
		named += byLayer[l]
	}
	set("loadgen.cpu_share", ratio(float64(gen), float64(all)), "ratio")
	attributed := ratio(float64(named), float64(all))
	if all > 0 && attributed < 0.95 {
		return 0, 0, fmt.Errorf("only %.1f%% of CPU samples fall in a named layer: %v", 100*attributed, byLayer)
	}
	return all, attributed, nil
}

// onGenerator reports whether a sample ran on one of the load generator's
// goroutines (its client encode/decode and bookkeeping).
func onGenerator(funcs []string) bool {
	for _, f := range funcs {
		if strings.HasPrefix(f, "main.(*generator)") || strings.HasPrefix(f, "repro/perfbench.(*generator)") {
			return true
		}
	}
	return false
}

// timeRoutePlanning times route.PlanDocuments over one pass of the
// workload as the coordinator plans it, repeating the pass for at least
// 100ms, and returns microseconds and sub-claims per claim (zero when the
// workload does not route).
func timeRoutePlanning(w *workload) (usPerClaim, subPerClaim float64, err error) {
	if !w.route {
		return 0, 0, nil
	}
	db, err := loadDatabase(w)
	if err != nil {
		return 0, 0, err
	}
	cat := route.NewCatalog(db)
	var reqDocs [][]*claim.Document
	for _, r := range w.pass {
		docs, err := documents(r.docs, nil)
		if err != nil {
			return 0, 0, err
		}
		reqDocs = append(reqDocs, docs)
	}
	var claims, subs int
	start := time.Now()
	for time.Since(start) < 100*time.Millisecond {
		for _, docs := range reqDocs {
			p := route.PlanDocuments(docs, cat, route.Options{Seed: serveSeed})
			subs += p.SubClaims
			for _, d := range docs {
				claims += len(d.Claims)
			}
		}
	}
	el := time.Since(start)
	return float64(el.Microseconds()) / float64(claims), float64(subs) / float64(claims), nil
}

// chain is one client request's spans, reduced to self times.
type chain struct {
	client, clientSelf, shardSelf, hopSelf, queueCrit, verifyCrit, serveSelfCrit time.Duration
	queue, serveSelf                                                             []float64
}

// chainSet is every measured request's chain plus batch aggregates.
type chainSet struct {
	all           []chain
	verify        time.Duration
	batchDocsMean float64
	shares        map[string]float64
}

// chains joins the spans of every request of the measured phase. The
// caller holds r.mu.
func (r *recorder) chains(outs []outcome, phaseStart time.Time, coordinated bool) (*chainSet, error) {
	type hk struct {
		id      int
		replica string
	}
	handlers := map[hk]*handlerSpan{}
	for i := range r.handlers {
		h := &r.handlers[i]
		handlers[hk{h.id, h.replica}] = h
	}
	hops := map[int][]*hopSpan{}
	for i := range r.hops {
		hops[r.hops[i].id] = append(hops[r.hops[i].id], &r.hops[i])
	}
	byDoc := map[string][]*batchSpan{}
	cs := &chainSet{shares: map[string]float64{}}
	var docs, batches int
	for i := range r.batches {
		b := &r.batches[i]
		for _, id := range b.docIDs {
			byDoc[b.replica+"/"+id] = append(byDoc[b.replica+"/"+id], b)
		}
		if !b.start.Before(phaseStart) {
			cs.verify += b.dur()
			docs += b.docs
			batches++
		}
	}
	if batches > 0 {
		cs.batchDocsMean = float64(docs) / float64(batches)
	}
	// batchOf finds the micro-batch a handler's request rode in: one that
	// verified the request's first document within the handler's span.
	batchOf := func(h *handlerSpan) (*batchSpan, error) {
		first, err := firstDocID(h.body)
		if err != nil {
			return nil, err
		}
		for _, b := range byDoc[h.replica+"/"+first] {
			if !b.start.Before(h.start) && !b.end.After(h.end) {
				return b, nil
			}
		}
		return nil, fmt.Errorf("request %d: no micro-batch on %s verified %q within its handler span", h.id, h.replica, first)
	}
	var sumClient time.Duration
	parts := map[string]time.Duration{}
	for i := range outs {
		o := &outs[i]
		if o.err != nil || o.status != http.StatusOK {
			continue
		}
		c := chain{client: o.done.Sub(o.sent)}
		var crit *handlerSpan
		if coordinated {
			k, ok := r.coord[o.id]
			if !ok {
				return nil, fmt.Errorf("request %d has no coordinator span", o.id)
			}
			c.clientSelf = c.client - k.dur()
			var last *hopSpan
			for _, h := range hops[o.id] {
				if last == nil || h.end.After(last.end) {
					last = h
				}
				if hs := handlers[hk{h.id, h.replica}]; hs != nil {
					if err := addHandler(&c, hs, batchOf); err != nil {
						return nil, err
					}
				}
			}
			if last == nil {
				return nil, fmt.Errorf("request %d has no hop span", o.id)
			}
			c.shardSelf = k.dur() - last.dur()
			crit = handlers[hk{last.id, last.replica}]
			if crit == nil {
				return nil, fmt.Errorf("request %d has no handler span on %s", o.id, last.replica)
			}
			c.hopSelf = last.dur() - crit.dur()
		} else {
			crit = handlers[hk{o.id, replicaAddr(0)}]
			if crit == nil {
				return nil, fmt.Errorf("request %d has no handler span", o.id)
			}
			if err := addHandler(&c, crit, batchOf); err != nil {
				return nil, err
			}
			c.clientSelf = c.client - crit.dur()
		}
		b, err := batchOf(crit)
		if err != nil {
			return nil, err
		}
		c.queueCrit = b.start.Sub(crit.start)
		c.verifyCrit = b.dur()
		c.serveSelfCrit = crit.end.Sub(b.end)
		if got := c.clientSelf + c.shardSelf + c.hopSelf + c.queueCrit + c.verifyCrit + c.serveSelfCrit; got != c.client || crit.dur() != c.queueCrit+c.verifyCrit+c.serveSelfCrit {
			return nil, fmt.Errorf("request %d: self times sum to %v, client saw %v", o.id, got, c.client)
		}
		sumClient += c.client
		parts["client"] += c.clientSelf
		parts["shard"] += c.shardSelf
		parts["hop"] += c.hopSelf
		parts["serve_queue"] += c.queueCrit
		parts["verify"] += c.verifyCrit
		parts["serve_self"] += c.serveSelfCrit
		cs.all = append(cs.all, c)
	}
	for k, v := range parts {
		cs.shares[k] = ratio(float64(v), float64(sumClient))
	}
	return cs, nil
}

// addHandler records one replica handler's queue and post-batch times.
func addHandler(c *chain, h *handlerSpan, batchOf func(*handlerSpan) (*batchSpan, error)) error {
	b, err := batchOf(h)
	if err != nil {
		return err
	}
	c.queue = append(c.queue, ms(b.start.Sub(h.start)))
	c.serveSelf = append(c.serveSelf, ms(h.end.Sub(b.end)))
	return nil
}

// firstDocID reads the first document ID of a verification request body.
func firstDocID(body []byte) (string, error) {
	var req struct {
		DocID     string `json:"doc_id"`
		Documents []struct {
			DocID string `json:"doc_id"`
		} `json:"documents"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		return "", err
	}
	if len(req.Documents) > 0 {
		return req.Documents[0].DocID, nil
	}
	if req.DocID == "" {
		return "", errors.New("request body names no document")
	}
	return req.DocID, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func firstNonEmpty(ss ...string) string {
	for _, s := range ss {
		if s != "" {
			return s
		}
	}
	return ""
}
