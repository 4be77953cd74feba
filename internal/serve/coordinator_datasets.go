package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"
)

// coordinator_datasets.go fans the /v1/datasets routes out across the
// replica tier. Unlike verification requests — routed to one owner by shard
// key — a dataset mutation must reach every replica: ring routing is only
// deterministic when all replicas hold the same catalog, so a claim over an
// ingested table verifies identically wherever its key lands. POST relays
// the raw body to every healthy replica and fails if any replica fails
// (ingestion is deterministic, so replicas that did succeed hold the same
// catalog a retry will re-apply idempotently); reads answer from the first
// healthy replica; DELETE broadcasts and succeeds if any replica knew the
// dataset.

// coordRoutesDatasets registers the dataset routes on the coordinator mux.
func (c *Coordinator) coordRoutesDatasets(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/datasets", c.handleDatasetBroadcastCreate)
	mux.HandleFunc("GET /v1/datasets", c.handleDatasetRelayList)
	mux.HandleFunc("GET /v1/datasets/{name}", c.handleDatasetRelayGet)
	mux.HandleFunc("DELETE /v1/datasets/{name}", c.handleDatasetBroadcastDelete)
}

// call sends one request to a replica and returns its status and body, the
// body read up to limit bytes — each caller keeps the response-size cap of
// what it expects back.
func (c *Coordinator) call(ctx context.Context, method, url, contentType string, body []byte, limit int64) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, limit))
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, b, nil
}

// handleDatasetBroadcastCreate answers POST /v1/datasets by replaying the
// request body on every healthy replica. All replicas must succeed: a
// partial catalog would break routing determinism, so any failure fails the
// request (naming the replica), and the caller re-POSTs — ingestion is
// deterministic, so replicas that already applied it converge idempotently.
func (c *Coordinator) handleDatasetBroadcastCreate(w http.ResponseWriter, r *http.Request) {
	started := time.Now()
	if c.rejectDraining(w) {
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxDatasetBody))
	if err != nil {
		c.met.inc(&c.met.badRequests)
		writeError(w, http.StatusBadRequest, CodeBadRequest, fmt.Sprintf("reading request body: %v", err), 0)
		return
	}
	replicas := c.healthyReplicas()
	if len(replicas) == 0 {
		c.met.inc(&c.met.rejectedDraining)
		writeError(w, http.StatusServiceUnavailable, CodeDraining, "no live replicas", 0)
		return
	}
	ctx, cancel := c.requestContext(r)
	defer cancel()
	path := "/v1/datasets"
	if q := r.URL.RawQuery; q != "" {
		path += "?" + q
	}
	contentType := r.Header.Get("Content-Type")
	var first []byte
	for _, node := range replicas {
		status, respBody, err := c.call(ctx, http.MethodPost, node+path, contentType, body, maxDatasetBody)
		if err != nil {
			c.met.inc(&c.met.internalErrors)
			writeError(w, http.StatusBadGateway, CodeInternal,
				fmt.Sprintf("replica %s: %v (catalog may be partially applied; re-POST to converge)", node, err), 0)
			return
		}
		if status != http.StatusOK {
			// The replica rejected the ingestion (bad data, name collision).
			// Replicas are deterministic, so the first rejection speaks for
			// the tier; relay its error envelope.
			c.countRelay(status)
			relay(w, status, respBody)
			return
		}
		if first == nil {
			first = respBody
		}
	}
	c.met.recordRequest(time.Since(started))
	relay(w, http.StatusOK, first)
}

// handleDatasetRelayList answers GET /v1/datasets from the first healthy
// replica — every replica holds the same registry when mutations flow
// through this coordinator.
func (c *Coordinator) handleDatasetRelayList(w http.ResponseWriter, r *http.Request) {
	c.relayDatasetGet(w, r, "/v1/datasets")
}

// handleDatasetRelayGet answers GET /v1/datasets/{name} likewise.
func (c *Coordinator) handleDatasetRelayGet(w http.ResponseWriter, r *http.Request) {
	c.relayDatasetGet(w, r, "/v1/datasets/"+url.PathEscape(r.PathValue("name")))
}

func (c *Coordinator) relayDatasetGet(w http.ResponseWriter, r *http.Request, path string) {
	ctx, cancel := c.requestContext(r)
	defer cancel()
	for _, node := range c.healthyReplicas() {
		status, body, err := c.call(ctx, http.MethodGet, node+path, "", nil, maxDatasetBody)
		if err != nil {
			continue
		}
		c.countRelay(status)
		relay(w, status, body)
		return
	}
	c.met.inc(&c.met.rejectedDraining)
	writeError(w, http.StatusServiceUnavailable, CodeDraining, "no live replicas", 0)
}

// handleDatasetBroadcastDelete answers DELETE /v1/datasets/{name} on every
// healthy replica. Idempotent by construction: the request succeeds if any
// replica knew the dataset (404s elsewhere mean an earlier partial delete
// already removed it there), and 404s only if every replica answered 404.
func (c *Coordinator) handleDatasetBroadcastDelete(w http.ResponseWriter, r *http.Request) {
	if c.rejectDraining(w) {
		return
	}
	replicas := c.healthyReplicas()
	if len(replicas) == 0 {
		c.met.inc(&c.met.rejectedDraining)
		writeError(w, http.StatusServiceUnavailable, CodeDraining, "no live replicas", 0)
		return
	}
	ctx, cancel := c.requestContext(r)
	defer cancel()
	path := "/v1/datasets/" + url.PathEscape(r.PathValue("name"))
	var deleted []byte
	for _, node := range replicas {
		status, body, err := c.call(ctx, http.MethodDelete, node+path, "", nil, maxDatasetBody)
		if err != nil {
			c.met.inc(&c.met.internalErrors)
			writeError(w, http.StatusBadGateway, CodeInternal,
				fmt.Sprintf("replica %s: %v (delete may be partially applied; re-DELETE to converge)", node, err), 0)
			return
		}
		if status == http.StatusOK && deleted == nil {
			deleted = body
		}
	}
	if deleted == nil {
		writeError(w, http.StatusNotFound, CodeNotFound, "no dataset with that name", 0)
		return
	}
	relay(w, http.StatusOK, deleted)
}
