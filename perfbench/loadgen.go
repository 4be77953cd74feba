package main

import (
	"bytes"
	"context"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// requestIDHeader carries the generator's request number, so the traced
// run can join its spans across processes and hops.
const requestIDHeader = "X-Perfbench-Request"

// outcome is one sent request as the generator saw it. For a closed loop
// due equals sent; for an open loop due is the scheduled arrival.
type outcome struct {
	id     int
	req    int // index into workload.pass
	due    time.Time
	sent   time.Time
	done   time.Time
	status int
	err    error
	body   []byte
}

// latency is the user-visible time of a request: from the due time, which
// for an open loop includes any wait the generator imposed.
func (o *outcome) latency() time.Duration { return o.done.Sub(o.due) }

// late is how far behind its schedule the generator sent the request.
func (o *outcome) late() time.Duration { return o.sent.Sub(o.due) }

// generator drives one target URL with at most clients concurrent
// requests over at most clients connections.
type generator struct {
	w       *workload
	url     string
	client  *http.Client
	clients int
	// lastID numbers requests, uniquely across phases.
	lastID atomic.Int64
}

func newGenerator(w *workload, url string) *generator {
	clients := nproc()
	transport := &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}
	return &generator{
		w:       w,
		url:     url,
		client:  &http.Client{Transport: transport, Timeout: time.Minute},
		clients: clients,
	}
}

// send issues request req of the pass and reads the whole response. A zero
// due time means the request is due when sent (closed loop).
func (g *generator) send(ctx context.Context, req int, due time.Time) outcome {
	r := g.w.pass[req]
	id := int(g.lastID.Add(1))
	o := outcome{id: id, req: req, due: due}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, g.url+r.path, bytes.NewReader(r.body))
	if err != nil {
		o.err = err
		return o
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(requestIDHeader, strconv.Itoa(id))
	o.sent = time.Now()
	if due.IsZero() {
		o.due = o.sent
	}
	resp, err := g.client.Do(hreq)
	if err == nil {
		o.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		o.status = resp.StatusCode
	}
	o.done = time.Now()
	o.err = err
	return o
}

// closedLoop runs whole passes with g.clients clients, each sending its
// next request when the previous one completes, until the pass in flight
// when d has elapsed is finished. shuffle reorders every pass from the
// workload's seeded generator; otherwise passes run in fixed order.
func (g *generator) closedLoop(ctx context.Context, d time.Duration, shuffle bool) []outcome {
	deadline := time.Now().Add(d)
	var (
		mu    sync.Mutex
		n     int
		order []int
		done  bool
		outs  []outcome
	)
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if done || ctx.Err() != nil {
			return 0, false
		}
		k := n % len(g.w.pass)
		if k == 0 {
			if n > 0 && !time.Now().Before(deadline) {
				done = true
				return 0, false
			}
			order = identity(len(g.w.pass))
			if shuffle {
				order = g.w.nextPass()
			}
		}
		n++
		return order[k], true
	}
	var wg sync.WaitGroup
	for c := 0; c < g.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				req, ok := take()
				if !ok {
					return
				}
				o := g.send(ctx, req, time.Time{})
				mu.Lock()
				outs = append(outs, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return outs
}

// arrival is one scheduled open-loop request.
type arrival struct {
	at  time.Duration // offset from the phase start
	req int
}

// openSchedule draws seeded exponential inter-arrival times at the
// workload's rate, covering whole passes and at least d.
func (g *generator) openSchedule(d time.Duration) []arrival {
	w := g.w
	passes := int(math.Ceil(w.openRate * d.Seconds() / float64(len(w.pass))))
	if passes < 1 {
		passes = 1
	}
	var out []arrival
	var at float64
	for p := 0; p < passes; p++ {
		for _, req := range w.nextPass() {
			at += w.rng.ExpFloat64() / w.openRate
			out = append(out, arrival{at: time.Duration(at * float64(time.Second)), req: req})
		}
	}
	return out
}

// openLoop sends each scheduled request at its due time through a pool of
// g.clients senders. When every sender is busy the next request waits and
// is sent late; its latency still counts from its due time.
func (g *generator) openLoop(ctx context.Context, sched []arrival) []outcome {
	type job struct {
		slot, req int
		due       time.Time
	}
	jobs := make(chan job)
	outs := make([]outcome, len(sched))
	sent := len(sched)
	var wg sync.WaitGroup
	for c := 0; c < g.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				outs[j.slot] = g.send(ctx, j.req, j.due)
			}
		}()
	}
	start := time.Now()
	for i, a := range sched {
		due := start.Add(a.at)
		if wait := time.Until(due); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			sent = i
			break
		}
		jobs <- job{slot: i, req: a.req, due: due}
	}
	close(jobs)
	wg.Wait()
	return outs[:sent]
}

func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
