package main

import (
	"math"
	"sort"
	"time"
)

// windowCount splits a timed run's measured phase into equal windows. On a
// small shared VM the hypervisor steals CPU in periods lasting seconds to
// minutes (0-37% of a window measured on 2 vCPUs), which slows every
// wall-clock figure of the windows they cover. Throughput and latency are
// therefore reported from the run's best window — interference only ever
// slows a window down — and CPU per claim, which steal barely moves, as the
// median over windows. The details line keeps the whole-run figures and
// every window's values with its steal share.
const windowCount = 10

// cpuSample is the tier's CPU time at one instant.
type cpuSample struct {
	at           time.Time
	cpu          time.Duration
	steal, ticks int64
}

// sampleNow reads the tier's CPU time and the machine's steal counters.
func sampleNow(t *tier) (cpuSample, error) {
	cpu, err := t.cpuTime()
	steal, ticks := cpuTicks()
	return cpuSample{time.Now(), cpu, steal, ticks}, err
}

// cpuSampler reads the tier's CPU time at each inner window boundary of a
// phase of length phase that starts now.
type cpuSampler struct {
	stop    chan struct{}
	samples chan []cpuSample
}

func startCPUSampler(t *tier, phase time.Duration) *cpuSampler {
	s := &cpuSampler{stop: make(chan struct{}), samples: make(chan []cpuSample, 1)}
	go func() {
		var out []cpuSample
		tick := time.NewTicker(phase / windowCount)
		defer tick.Stop()
		for len(out) < windowCount-1 {
			select {
			case <-tick.C:
				if cs, err := sampleNow(t); err == nil {
					out = append(out, cs)
				}
			case <-s.stop:
				s.samples <- out
				return
			}
		}
		<-s.stop
		s.samples <- out
	}()
	return s
}

// finish stops the sampler and returns its samples.
func (s *cpuSampler) finish() []cpuSample {
	close(s.stop)
	return <-s.samples
}

// windowStats are the per-window figures of a timed run.
type windowStats struct {
	claimsPerS, cpuMSPerClaim, p50, p90, steal []float64
}

// windows splits outcomes by completion time at the sampled boundaries,
// first and last being the phase's start and end samples.
func windows(bounds []cpuSample, outs []outcome, w *workload, failed map[int]bool) windowStats {
	n := len(bounds) - 1
	claims := make([]int, n)
	lat := make([][]float64, n)
	for i := range outs {
		o := &outs[i]
		k := sort.Search(n, func(k int) bool { return o.done.Before(bounds[k+1].at) })
		if k == n {
			k = n - 1 // completed at the final boundary itself
		}
		v := ms(o.latency())
		if failed[o.id] {
			v = math.Inf(1)
		} else {
			claims[k] += w.pass[o.req].claims
		}
		lat[k] = append(lat[k], v)
	}
	var ws windowStats
	for k := 0; k < n; k++ {
		ws.claimsPerS = append(ws.claimsPerS, float64(claims[k])/bounds[k+1].at.Sub(bounds[k].at).Seconds())
		ws.steal = append(ws.steal, ratio(float64(bounds[k+1].steal-bounds[k].steal), float64(bounds[k+1].ticks-bounds[k].ticks)))
		if claims[k] > 0 {
			ws.cpuMSPerClaim = append(ws.cpuMSPerClaim, ms(bounds[k+1].cpu-bounds[k].cpu)/float64(claims[k]))
		}
		if len(lat[k]) > 0 {
			ws.p50 = append(ws.p50, finite(quantile(lat[k], 0.50)))
			ws.p90 = append(ws.p90, finite(quantile(lat[k], 0.90)))
		}
	}
	return ws
}

// best is the largest of vs when higher is better, else the smallest (0 for
// no values).
func best(vs []float64, higher bool) float64 {
	if len(vs) == 0 {
		return 0
	}
	b := vs[0]
	for _, v := range vs[1:] {
		if (higher && v > b) || (!higher && v < b) {
			b = v
		}
	}
	return b
}

// median is the middle value of vs, the mean of the two middle values for
// an even count (0 for no values).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
