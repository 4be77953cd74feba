// Command perfbench is the repository's benchmark: it drives the real
// cedar-serve binary, booted as loopback processes in each workload's
// topology, from one load-generator process, checks every verdict against
// an in-process oracle, and prints the end-to-end metrics named in
// BENCHMARK.json. With --trace 1 it instead assembles the same tier
// in-process from the constructors cmd/cedar-serve calls, records spans
// around every layer boundary from the benchmark's own code, and prints the
// per-layer metrics.
//
// Run it from the repository root through run.sh, which builds cedar-serve
// and this command from the checkout:
//
//	bash perfbench/run.sh --workload agg-batch --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The run exits non-zero when any
// served verdict or fee differs from the oracle's.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	serveBin string
	workDir  string
	// setupRuns boots the tier this many times; setup_s is their median.
	setupRuns int
	// warmup runs whole passes this long before measuring, so connections,
	// plan caches and lazily built state are in place.
	warmup time.Duration
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	cfg := config{setupRuns: 9, warmup: time.Second}
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: agg-batch, tier-singles or routed-compound")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for request order, grouping and arrival times")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "length of the measured phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced in-process tier and prints per-layer metrics")
	flag.StringVar(&cfg.serveBin, "serve-bin", "", "cedar-serve binary built from this checkout")
	flag.StringVar(&cfg.workDir, "work-dir", ".bench_build/perfbench", "directory for tables, logs, profiles and reports")
	flag.Parse()
	cfg.trace = trace == 1
	if cfg.workload == "" || (!cfg.trace && cfg.serveBin == "") || cfg.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	res, err := run(ctx, cfg)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one benchmark invocation, prints the environment stamp and
// every metric by name and unit, and writes the full report under workDir.
func run(ctx context.Context, cfg config) (*result, error) {
	if err := os.MkdirAll(filepath.Join(cfg.workDir, "out", "logs"), 0o755); err != nil {
		return nil, err
	}
	env := stamp()
	printJSON("env", env)
	var (
		res     *result
		details map[string]any
		err     error
	)
	if cfg.trace {
		res, details, err = runTraced(ctx, cfg)
	} else {
		res, details, err = runTimed(ctx, cfg)
	}
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("%-34s %14.6g %s\n", name, m.Value, m.Unit)
	}
	printJSON("details", details)
	report := map[string]any{"env": env, "workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds,
		"trace": cfg.trace, "result": res, "details": details}
	path := filepath.Join(cfg.workDir, "out", fmt.Sprintf("%s-seed%d-trace%t.json", cfg.workload, cfg.seed, cfg.trace))
	raw, err := json.MarshalIndent(report, "", "  ")
	if err == nil {
		err = os.WriteFile(path, raw, 0o644)
	}
	if err != nil {
		return nil, fmt.Errorf("writing report: %w", err)
	}
	return res, nil
}

// runTimed boots the workload's topology as cedar-serve processes,
// measures it under load, and checks every response.
func runTimed(ctx context.Context, cfg config) (*result, map[string]any, error) {
	p, err := prepare(cfg)
	if err != nil {
		return nil, nil, err
	}
	w, orc, gen := p.w, p.orc, p.gen
	logDir := filepath.Join(cfg.workDir, "out", "logs")

	var setups []float64
	var t *tier
	for i := 0; i < cfg.setupRuns; i++ {
		if t != nil {
			t.stop()
		}
		var d time.Duration
		t, d, err = bootTier(ctx, cfg.serveBin, logDir, w)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, d.Seconds())
	}
	defer t.stop()
	gen.url = t.url
	admin := &http.Client{Timeout: 10 * time.Second}

	warm := orc.check(w, gen.closedLoop(ctx, cfg.warmup, false))
	before, err := t.replicaMetrics(admin)
	if err != nil {
		return nil, nil, err
	}
	first, err := sampleNow(t)
	if err != nil {
		return nil, nil, err
	}
	self0 := selfCPU()
	start := first.at
	sampler := startCPUSampler(t, p.phase)
	outs := p.measure(ctx)
	inner := sampler.finish()
	if ctx.Err() != nil {
		return nil, nil, ctx.Err()
	}
	wall := lastDone(start, outs).Sub(start)
	self1 := selfCPU()
	last, err := sampleNow(t)
	if err != nil {
		return nil, nil, err
	}
	bounds := append([]cpuSample{first}, inner...)
	bounds = append(bounds, last)
	after, err := t.replicaMetrics(admin)
	if err != nil {
		return nil, nil, err
	}
	rss, err := t.peakRSS()
	if err != nil {
		return nil, nil, err
	}
	if err := t.alive(); err != nil {
		return nil, nil, err
	}
	t.stop()

	tl := orc.check(w, outs)
	if tl.claims == 0 {
		return nil, nil, fmt.Errorf("no request succeeded: %s", tl.firstErr)
	}
	served := tl.routeFee
	for i := range after {
		served += after[i].Verify.Dollars - before[i].Verify.Dollars
	}
	feeOK := feeMatches(served, tl.fee)
	q := tl.quality(w)

	lat := make([]float64, 0, len(outs))
	late := make([]float64, 0, len(outs))
	for i := range outs {
		o := &outs[i]
		v := ms(o.latency())
		if tl.failedIDs[o.id] {
			v = math.Inf(1) // a failed request misses any latency limit
		}
		lat = append(lat, v)
		late = append(late, ms(o.late()))
	}
	ws := windows(bounds, outs, w, tl.failedIDs)
	passFee, passClaims := 0.0, w.passClaims()
	for _, f := range orc.fee {
		passFee += f
	}
	res := &result{
		Correct:   tl.mismatches == 0 && warm.mismatches == 0 && feeOK,
		Attempted: tl.attempted + warm.attempted,
		Failed:    tl.failed + warm.failed,
		Metrics: map[string]metric{
			"claims_per_s":      {best(ws.claimsPerS, true), "claims/s"},
			"latency_p50_ms":    {best(ws.p50, false), "ms"},
			"latency_p90_ms":    {best(ws.p90, false), "ms"},
			"fee_per_claim_usd": {passFee / float64(passClaims), "USD"},
			"f1":                {q.F1, "ratio"},
			"cpu_ms_per_claim":  {median(ws.cpuMSPerClaim), "ms"},
			"rss_mb":            {rss, "MiB"},
			"setup_s":           {quantile(setups, 0.5), "s"},
		},
	}
	details := map[string]any{
		"requests":                len(outs),
		"latency_samples":         len(lat),
		"windows":                 len(bounds) - 1,
		"run_claims_per_s":        float64(tl.claims) / wall.Seconds(),
		"run_latency_p50_ms":      finite(quantile(lat, 0.50)),
		"run_latency_p90_ms":      finite(quantile(lat, 0.90)),
		"run_latency_p99_ms":      finite(quantile(lat, 0.99)),
		"run_cpu_ms_per_claim":    ms(last.cpu-first.cpu) / float64(tl.claims),
		"claims":                  tl.claims,
		"wall_s":                  wall.Seconds(),
		"passes":                  len(outs) / len(w.pass),
		"failed_share":            float64(res.Failed) / float64(res.Attempted),
		"first_failure":           firstNonEmpty(tl.firstErr, warm.firstErr),
		"verdict_mismatches":      tl.mismatches + warm.mismatches,
		"fee_served_usd":          served,
		"fee_oracle_usd":          tl.fee,
		"fee_match":               feeOK,
		"quality":                 q,
		"setup_runs_s":            setups,
		"loadgen_cpu_share":       (self1 - self0).Seconds() / (wall.Seconds() * float64(nproc())),
		"cpu_steal_share":         ratio(float64(last.steal-first.steal), float64(last.ticks-first.ticks)),
		"window_claims_per_s":     ws.claimsPerS,
		"window_latency_p50_ms":   ws.p50,
		"window_latency_p90_ms":   ws.p90,
		"window_cpu_ms_per_claim": ws.cpuMSPerClaim,
		"window_steal_share":      ws.steal,
		"loadgen_late_ms_p50":     quantile(late, 0.50),
		"loadgen_late_ms_p99":     quantile(late, 0.99),
	}
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: outputs differ from the oracle: %d verdict mismatch(es), served fee $%.9f vs oracle $%.9f; first: %s\n",
			tl.mismatches+warm.mismatches, served, tl.fee, firstNonEmpty(tl.firstErr, warm.firstErr))
	}
	return res, details, nil
}

// prepared holds what every run builds before its tier boots: the
// workload's inputs, the oracle's verdicts and fees, and the generator
// with its open-loop schedule, drawn in a fixed order from the seed.
type prepared struct {
	w     *workload
	orc   *oracle
	gen   *generator
	sched []arrival
	phase time.Duration
}

func prepare(cfg config) (*prepared, error) {
	w, err := buildWorkload(cfg.workload, cfg.seed, filepath.Join(cfg.workDir, "tables", cfg.workload))
	if err != nil {
		return nil, err
	}
	orc, err := runOracle(w)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	p := &prepared{w: w, orc: orc, gen: newGenerator(w, ""), phase: time.Duration(cfg.seconds * float64(time.Second))}
	if w.openRate > 0 {
		p.sched = p.gen.openSchedule(p.phase)
	}
	return p, nil
}

// measure runs the measured phase: the open-loop schedule, or shuffled
// closed-loop passes for the phase's length.
func (p *prepared) measure(ctx context.Context) []outcome {
	if p.w.openRate > 0 {
		return p.gen.openLoop(ctx, p.sched)
	}
	return p.gen.closedLoop(ctx, p.phase, true)
}

// lastDone is when the last outcome completed (start when none did).
func lastDone(start time.Time, outs []outcome) time.Time {
	end := start
	for _, o := range outs {
		if o.done.After(end) {
			end = o.done
		}
	}
	return end
}

// quantile is the nearest-rank q-quantile of vs (0 for no samples).
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// finite maps the +Inf of failed requests to the largest float, which JSON
// can carry.
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	return v
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// printJSON prints one labelled JSON line; the result line stays last.
func printJSON(label string, v any) {
	raw, err := json.Marshal(v)
	if err != nil {
		raw = []byte(fmt.Sprintf("%q", err.Error()))
	}
	fmt.Printf("perfbench %s %s\n", label, raw)
}
