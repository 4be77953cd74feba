package main

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the self-test checks against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestWorkloadsAtTinySize runs every workload of BENCHMARK.json for a
// fraction of a second, timed against real cedar-serve processes and
// traced in-process, and checks that each emits exactly the declared
// metrics with their units, fails no operation, and serves the oracle's
// verdicts and fees.
func TestWorkloadsAtTinySize(t *testing.T) {
	if testing.Short() {
		t.Skip("boots cedar-serve tiers")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "cedar-serve")
	build := exec.Command("go", "build", "-o", bin, "./cmd/cedar-serve")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building cedar-serve: %v\n%s", err, out)
	}
	if len(spec.Workloads) != 3 {
		t.Fatalf("BENCHMARK.json lists %d workloads, want 3", len(spec.Workloads))
	}
	for _, wl := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{
				workload:  wl.Name,
				seed:      7,
				seconds:   0.5,
				trace:     traced,
				serveBin:  bin,
				workDir:   t.TempDir(),
				setupRuns: 1,
				warmup:    100 * time.Millisecond,
			}
			res, err := run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", wl.Name, traced, err)
			}
			if !res.Correct {
				t.Errorf("%s trace=%t: served verdicts or fees differ from the oracle", wl.Name, traced)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%t: %d of %d operations failed", wl.Name, traced, res.Failed, res.Attempted)
			}
			want := map[string]string{}
			if traced {
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			for name, unit := range want {
				got, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%t: metric %s not emitted", wl.Name, traced, name)
				} else if got.Unit != unit {
					t.Errorf("%s trace=%t: metric %s has unit %q, BENCHMARK.json says %q", wl.Name, traced, name, got.Unit, unit)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%t: metric %s is not declared in BENCHMARK.json", wl.Name, traced, name)
				}
			}
		}
	}
}
