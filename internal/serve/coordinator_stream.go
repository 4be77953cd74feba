package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/internal/review"
)

// The coordinator's streaming surface mirrors the replica's: NDJSON
// documents in, NDJSON events out. Each document is proxied — as its own
// one-document stream — to the replica owning its shard key, up to
// StreamWindow documents concurrently; events relay back in arrival order
// with review IDs preserved (they are content fingerprints, identical on
// every replica). The review surface fans out: GET /v1/review merges every
// healthy replica's queue into one deterministically ranked list, and
// POST /v1/review/{id} broadcasts the resolution so a claim rehashed across
// replicas resolves everywhere it was enqueued.

// streamRelay is the outcome of proxying one streamed document.
type streamRelay struct {
	docID  string
	node   string        // the replica that answered (fee-dedup key)
	events []StreamEvent // verdict events, review IDs preserved
	sum    StreamSummary // the replica's per-document summary
	errDet *ErrorDetail  // terminal failure for this document
}

// handleVerifyStream answers POST /v1/verify/stream on the coordinator. A
// reader goroutine decodes, routes, and dispatches documents — stalling when
// StreamWindow relays are in flight — while the handler goroutine writes
// each document's events in arrival order.
func (c *Coordinator) handleVerifyStream(w http.ResponseWriter, r *http.Request) {
	started := time.Now()
	if c.rejectDraining(w) {
		return
	}
	ctx, cancel := c.requestContext(r)
	defer cancel()
	c.met.inc(&c.met.streams)

	results := make(chan chan streamRelay, c.cfg.StreamWindow)
	readerErr := make(chan ErrorDetail, 1)
	go func() {
		defer close(results)
		dec := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes))
		dec.DisallowUnknownFields()
		for index := 0; ; index++ {
			var in DocumentInput
			if err := dec.Decode(&in); err != nil {
				if err == io.EOF {
					return
				}
				c.met.inc(&c.met.badRequests)
				readerErr <- ErrorDetail{Code: CodeBadRequest,
					Message: fmt.Sprintf("decoding stream document %d: %v", index, err)}
				return
			}
			ch := make(chan streamRelay, 1)
			select {
			case results <- ch:
			case <-ctx.Done():
				return
			}
			go func(in DocumentInput) { ch <- c.relayStreamDoc(ctx, in) }(in)
		}
	}()

	// Full duplex keeps the request body readable after the first write —
	// without it, an HTTP/1.x server discards unread input once the response
	// starts, truncating the stream.
	_ = http.NewResponseController(w).EnableFullDuplex()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	emit := func(ev StreamEvent) {
		_ = enc.Encode(ev)
		if flusher != nil {
			flusher.Flush()
		}
	}

	var sum StreamSummary
	// Relay summaries report whole-batch totals. Two of this stream's
	// documents coalesced into one micro-batch on their shared replica would
	// double-count, so fees sum once per distinct (replica, batch ordinal) —
	// the ordinals ride back on the relay summary's Batches field.
	seenBatch := make(map[string]bool)
	index := 0
	for ch := range results {
		rel := <-ch
		if rel.errDet != nil {
			emit(StreamEvent{Event: "error", DocID: rel.docID, Index: index, Error: rel.errDet})
			index++
			continue
		}
		for _, ev := range rel.events {
			ev.Index = index // the stream-global arrival ordinal, not the replica's
			emit(ev)
		}
		sum.Docs++
		sum.Claims += rel.sum.Claims
		sum.Reviewed += rel.sum.Reviewed
		fresh := true
		for _, b := range rel.sum.Batches {
			key := rel.node + "#" + strconv.FormatInt(b, 10)
			if seenBatch[key] {
				fresh = false
			}
			seenBatch[key] = true
		}
		if fresh {
			sum.Dollars += rel.sum.Dollars
			sum.Calls += rel.sum.Calls
		}
		c.met.addStreamDoc()
		index++
	}
	select {
	case ed := <-readerErr:
		emit(StreamEvent{Event: "error", Index: index, Error: &ed})
	default:
	}
	if ctx.Err() == nil {
		c.met.recordRequest(time.Since(started))
	}
	emit(StreamEvent{Event: "summary", Index: sum.Docs, Summary: &sum})
}

// relayStreamDoc proxies one streamed document to the replica owning its
// shard key as a one-document stream, and parses the replica's event lines
// back. A replica lost after delivery surfaces as a replica_lost error event
// (the proxy refuses to failover work that may already have run and billed);
// pre-delivery failures failed over transparently inside the proxy.
func (c *Coordinator) relayStreamDoc(ctx context.Context, in DocumentInput) streamRelay {
	key, docID := c.routeKey(in.DocID, in.Claims)
	rel := streamRelay{docID: docID}
	body, err := json.Marshal(in)
	if err != nil {
		c.met.inc(&c.met.internalErrors)
		rel.errDet = &ErrorDetail{Code: CodeInternal, Message: err.Error()}
		return rel
	}
	body = append(body, '\n')
	res, err := c.proxy.Do(ctx, key, "/v1/verify/stream", body)
	if err != nil {
		_, det := c.proxyErrorDetail(err)
		rel.errDet = &det
		return rel
	}
	rel.node = res.Node
	c.routed.Add(1)
	c.traceRoute(docID, res)
	c.countRelay(res.Status)
	if res.Status != http.StatusOK {
		var eb ErrorBody
		if json.Unmarshal(res.Body, &eb) == nil && eb.Error.Code != "" {
			rel.errDet = &eb.Error
		} else {
			rel.errDet = &ErrorDetail{Code: CodeInternal,
				Message: fmt.Sprintf("replica answered status %d", res.Status)}
		}
		return rel
	}
	sc := bufio.NewScanner(bytes.NewReader(res.Body))
	sc.Buffer(make([]byte, 0, 64<<10), maxBodyBytes)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev StreamEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			rel.errDet = &ErrorDetail{Code: CodeInternal,
				Message: fmt.Sprintf("parsing replica stream: %v", err)}
			return rel
		}
		switch ev.Event {
		case "verdict":
			rel.events = append(rel.events, ev)
		case "summary":
			if ev.Summary != nil {
				rel.sum = *ev.Summary
			}
		case "error":
			det := ErrorDetail{Code: CodeInternal, Message: "replica stream error"}
			if ev.Error != nil {
				det = *ev.Error
			}
			rel.errDet = &det
			return rel
		}
	}
	if err := sc.Err(); err != nil {
		rel.errDet = &ErrorDetail{Code: CodeInternal,
			Message: fmt.Sprintf("reading replica stream: %v", err)}
	}
	return rel
}

// healthyReplicas lists the replicas currently in the ring, in roster order.
func (c *Coordinator) healthyReplicas() []string {
	var out []string
	for _, node := range c.prober.Tracked() {
		if c.prober.IsHealthy(node) {
			out = append(out, node)
		}
	}
	return out
}

// handleReviewList answers GET /v1/review by merging every healthy replica's
// pending queue. Item IDs are content fingerprints and the rank order is
// deterministic, so the merged list is identical however the keyspace is
// currently sharded; duplicates (a claim enqueued on two replicas across a
// rehash) collapse by ID.
func (c *Coordinator) handleReviewList(w http.ResponseWriter, r *http.Request) {
	limit := 0
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			c.met.inc(&c.met.badRequests)
			writeError(w, http.StatusBadRequest, CodeBadRequest, "limit must be a non-negative integer", 0)
			return
		}
		limit = n
	}
	var (
		items []review.Item
		seen  = map[string]bool{}
		stats ReviewCounters
	)
	for _, node := range c.healthyReplicas() {
		var parsed ReviewListResponse
		status, body, err := c.call(r.Context(), http.MethodGet, node+"/v1/review", "", nil, maxBodyBytes)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d", status)
		}
		if err == nil {
			err = json.Unmarshal(body, &parsed)
		}
		if err != nil {
			c.met.inc(&c.met.internalErrors)
			writeError(w, http.StatusBadGateway, CodeInternal,
				fmt.Sprintf("replica %s: %v", node, err), 0)
			return
		}
		for _, it := range parsed.Items {
			if !seen[it.ID] {
				seen[it.ID] = true
				items = append(items, it)
			}
		}
		stats.Enqueued += parsed.Stats.Enqueued
		stats.Resolved += parsed.Stats.Resolved
		stats.Dropped += parsed.Stats.Dropped
		if parsed.Stats.OldestAgeMS > stats.OldestAgeMS {
			stats.OldestAgeMS = parsed.Stats.OldestAgeMS
		}
		if parsed.Stats.MaxPriority > stats.MaxPriority {
			stats.MaxPriority = parsed.Stats.MaxPriority
		}
	}
	review.SortItems(items)
	if limit > 0 && len(items) > limit {
		items = items[:limit]
	}
	if items == nil {
		items = []review.Item{}
	}
	stats.Depth = len(seen)
	writeJSON(w, http.StatusOK, ReviewListResponse{Items: items, Stats: stats})
}

// handleReviewResolve broadcasts POST /v1/review/{id} to every healthy
// replica: the item lives on the replica that verified the claim, but after
// a rehash it may be pending on more than one, and resolving everywhere —
// idempotently, first resolution wins — keeps the tier agreeing with the
// human. The first replica that knows the item answers for the tier.
func (c *Coordinator) handleReviewResolve(w http.ResponseWriter, r *http.Request) {
	var req ReviewResolveRequest
	body, ok := c.decodeBody(w, r, &req)
	if !ok {
		return
	}
	if !review.ValidResolution(req.Resolution) {
		c.met.inc(&c.met.badRequests)
		writeError(w, http.StatusBadRequest, CodeBadRequest,
			fmt.Sprintf("resolution must be %q or %q", review.ResolutionConfirmed, review.ResolutionOverturned), 0)
		return
	}
	path := "/v1/review/" + url.PathEscape(r.PathValue("id"))
	var (
		resolved  []byte
		reachable bool
	)
	for _, node := range c.healthyReplicas() {
		status, respBody, err := c.call(r.Context(), http.MethodPost, node+path, "application/json", body, maxBodyBytes)
		if err != nil {
			continue
		}
		reachable = true
		if status == http.StatusOK && resolved == nil {
			resolved = respBody
		}
	}
	switch {
	case resolved != nil:
		relay(w, http.StatusOK, resolved)
	case reachable:
		writeError(w, http.StatusNotFound, CodeNotFound, "no review item with that id", 0)
	default:
		c.met.inc(&c.met.rejectedDraining)
		writeError(w, http.StatusServiceUnavailable, CodeDraining, "no live replicas", 0)
	}
}
