package main

import (
	"context"
	"encoding/json"
	"os"
	"runtime"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the smoke test reads.
type benchmarkFile struct {
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

// TestSmoke runs every workload of BENCHMARK.json briefly, traced, and
// checks that each run is correct and produces exactly the metrics the
// file names, each with its unit.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm benchmarkFile
	if err := json.Unmarshal(raw, &bm); err != nil {
		t.Fatal(err)
	}
	t.Chdir(t.TempDir()) // the traced run writes its span file here
	for _, w := range bm.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			cfg := config{workload: w.Name, seed: 1, seconds: 0.2, trace: true, clients: runtime.NumCPU()}
			res, e2e, layers, err := runWorkload(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("run not correct: %d of %d requests failed", res.Failed, res.Attempted)
			}
			for _, set := range []struct {
				kind   string
				listed []struct {
					Name string `json:"name"`
					Unit string `json:"unit"`
				}
				got map[string]metric
			}{{"end_to_end", bm.EndToEnd, e2e}, {"per_layer", bm.PerLayer, layers}} {
				for _, m := range set.listed {
					g, ok := set.got[m.Name]
					if !ok {
						t.Errorf("%s metric %s not produced", set.kind, m.Name)
					} else if g.Unit != m.Unit {
						t.Errorf("%s metric %s has unit %q, BENCHMARK.json says %q", set.kind, m.Name, g.Unit, m.Unit)
					}
				}
				if len(set.got) != len(set.listed) {
					t.Errorf("%s: produced %d metrics, BENCHMARK.json lists %d", set.kind, len(set.got), len(set.listed))
				}
			}
		})
	}
}
