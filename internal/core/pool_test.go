package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/claim"
	"repro/internal/data"
	"repro/internal/profile"
	"repro/internal/sqldb"
	"repro/internal/verify"
)

// inFlight wraps a method and records how many of its attempts overlap.
type inFlight struct {
	verify.Method
	now, peak *atomic.Int64
	total     *atomic.Int64
}

func (m inFlight) Translate(c *claim.Claim, db *sqldb.Database, inv verify.Invocation) (string, error) {
	n := m.now.Add(1)
	defer m.now.Add(-1)
	m.total.Add(1)
	for {
		p := m.peak.Load()
		if n <= p || m.peak.CompareAndSwap(p, n) {
			break
		}
	}
	// Hold the slot a moment so overlapping attempts actually overlap.
	time.Sleep(50 * time.Microsecond)
	return m.Method.Translate(c, db, inv)
}

// TestPoolBoundsAttemptsInFlight: the warm pool adds goroutines but no
// concurrency — Workers alone bounds the attempts running at once, across
// every document worker and every with-sample fan-out.
func TestPoolBoundsAttemptsInFlight(t *testing.T) {
	docs, err := data.AggChecker(611)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3} {
		methods, ledger := stack(t, 611)
		stats, err := profile.Run(methods, docs[:6], ledger, profile.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var now, peak, total atomic.Int64
		for i, m := range methods {
			methods[i] = inFlight{Method: m, now: &now, peak: &peak, total: &total}
		}
		p, err := New(Config{Methods: methods, Stats: stats, AccuracyTarget: 0.99, Seed: 611, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		p.VerifyDocumentsParallel(claim.CloneDocuments(docs[6:18]), 8)
		if got := peak.Load(); got > int64(workers) {
			t.Errorf("Workers=%d: %d attempts were in flight at once", workers, got)
		}
		if total.Load() == 0 {
			t.Fatalf("Workers=%d: no attempts ran", workers)
		}
		t.Logf("Workers=%d: %d attempts, peak %d in flight", workers, total.Load(), peak.Load())
	}
}

// TestWorkerPoolReusesAndRetires drives a private pool with a short idle
// period: sequential tasks reuse parked workers instead of starting one
// goroutine each, concurrent tasks get a worker apiece, and every worker
// exits once it has been parked for the idle period.
func TestWorkerPoolReusesAndRetires(t *testing.T) {
	p := &workerPool{idle: 50 * time.Millisecond, tasks: make(chan func())}

	const sequential = 200
	for i := 0; i < sequential; i++ {
		done := make(chan struct{})
		p.spawn(func() { close(done) })
		<-done
	}
	if live := p.live.Load(); live > 16 {
		t.Errorf("%d sequential tasks left %d workers; parked workers are not reused", sequential, live)
	}

	const concurrent = 8
	gate := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(concurrent)
	for i := 0; i < concurrent; i++ {
		p.spawn(func() {
			<-gate
			wg.Done()
		})
	}
	if live := p.live.Load(); live < concurrent {
		t.Errorf("%d blocked tasks are running on only %d workers", concurrent, live)
	}
	close(gate)
	wg.Wait()

	deadline := time.Now().Add(10 * time.Second)
	for p.live.Load() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d workers still live long after the %v idle period", p.live.Load(), p.idle)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A retired pool starts over cleanly.
	done := make(chan struct{})
	p.spawn(func() { close(done) })
	<-done
	if live := p.live.Load(); live != 1 {
		t.Errorf("after retirement one task runs on %d workers, want 1", live)
	}
}
