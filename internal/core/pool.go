package core

import (
	"sync/atomic"
	"time"
)

// workerIdle is how long a parked pool worker waits for its next task
// before it exits. Long enough to span the gap between a serving replica's
// micro-batches, short enough that an idle process sheds its workers.
const workerIdle = 5 * time.Second

// warm is the process-wide pool behind both fan-outs of the pipeline: the
// document workers of VerifyDocumentsParallel and the per-claim attempts of
// samplePass. It is shared by every Pipeline because pipelines are rebuilt
// freely (a new profile or new stats builds a new one); a per-pipeline pool
// would strand its parked workers each time.
var warm = &workerPool{idle: workerIdle, tasks: make(chan func())}

// workerPool runs tasks on reused goroutines. A fresh goroutine starts on a
// minimal stack and copies it up to the depth of a claim attempt
// (verify → LLM middleware → simulated model → nl/embed → sqldb) each time;
// a parked worker's stack has already grown, so handing it the next task
// skips that copying. The pool bounds nothing: callers that need a
// concurrency limit (Pipeline.sem) take it before calling spawn.
type workerPool struct {
	idle  time.Duration
	tasks chan func() // unbuffered: a send succeeds only into a parked worker
	live  atomic.Int64
}

// spawn runs f on a parked worker, or on a new goroutine when none is
// parked. It never blocks on f.
func (p *workerPool) spawn(f func()) {
	select {
	case p.tasks <- f:
	default:
		p.live.Add(1)
		go p.work(f)
	}
}

// work runs f, then parks for further tasks until one idle period passes
// without any. The idle period starts when a task finishes, so a long task
// never counts against it.
func (p *workerPool) work(f func()) {
	defer p.live.Add(-1)
	f()
	idle := time.NewTimer(p.idle)
	defer idle.Stop()
	for {
		select {
		case f = <-p.tasks:
		case <-idle.C:
			return
		}
		// The timer may have fired just as this worker took the task: drain
		// without blocking so Reset starts a clean period under either
		// timer-channel semantics.
		if !idle.Stop() {
			select {
			case <-idle.C:
			default:
			}
		}
		f()
		idle.Reset(p.idle)
	}
}
