package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json the repeatability check and
// the tests read.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(path string) (benchmarkFile, error) {
	var bf benchmarkFile
	data, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		return bf, fmt.Errorf("%s: %w", path, err)
	}
	return bf, nil
}

// runsPerSet is how many runs of a workload, each with its own seed, make
// one set: the ten the acceptance driver takes its quartiles over.
const runsPerSet = 10

// repeatability does what the acceptance driver does: sets × runsPerSet runs
// of every workload, each run with its own seed, then per (workload, metric)
// the interquartile spread of every set beside the metric's bound, and how
// much worse each later set's median is than the first's. It fails when a
// spread (setup_s excepted) or a median shift exceeds the bound.
func repeatability(stdout io.Writer, sets int, one func(workload, int64, bool) (*runResult, error)) error {
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("repeatability mode runs from the repo root: %w", err)
	}
	// values[set][workload][metric] holds one value per run.
	values := make([]map[string]map[string][]float64, sets)
	for s := range values {
		values[s] = make(map[string]map[string][]float64)
		for _, w := range workloads {
			values[s][w.name] = make(map[string][]float64)
			for i := 0; i < runsPerSet; i++ {
				seed := int64(1 + s*runsPerSet + i)
				r, err := one(w, seed, false)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
				}
				if len(r.problems) > 0 {
					return fmt.Errorf("%s seed %d: %w: %v", w.name, seed, errIncorrect, r.problems)
				}
				for _, d := range append(endToEnd, diagnostics...) {
					values[s][w.name][d.name] = append(values[s][w.name][d.name], r.values[d.name])
				}
				fmt.Fprintf(stdout, "set %d %-9s seed %-3d txn_per_s %.1f failed_frac %.4f failed %d/%d\n", s+1, w.name, seed, r.values["txn_per_s"], r.values["failed_frac"], r.failed, r.attempted)
			}
		}
	}
	outside := 0
	fmt.Fprintf(stdout, "\n%-9s %-20s %6s %12s %8s %8s\n", "workload", "metric", "set", "median", "spread", "bound")
	for _, w := range workloads {
		for _, m := range bf.EndToEnd {
			first := median(values[0][w.name][m.Name])
			for s := range values {
				vals := values[s][w.name][m.Name]
				med, spr := median(vals), spread(vals)
				verdict := ""
				if spr > m.Bound && m.Name != "setup_s" {
					verdict = "  SPREAD OUTSIDE BOUND"
					outside++
				}
				worse := (med - first) / first
				if m.Better == "higher" {
					worse = -worse
				}
				if s > 0 && worse > m.Bound {
					verdict += fmt.Sprintf("  MEDIAN WORSE BY %.1f%%", 100*worse)
					outside++
				}
				fmt.Fprintf(stdout, "%-9s %-20s %6d %12.4f %7.1f%% %7.1f%%%s\n", w.name, m.Name, s+1, med, 100*spr, 100*m.Bound, verdict)
			}
		}
		// Diagnostics carry no bound; their spreads are printed to show why.
		for _, d := range diagnostics {
			for s := range values {
				vals := values[s][w.name][d.name]
				fmt.Fprintf(stdout, "%-9s %-20s %6d %12.4f %7.1f%% %8s\n", w.name, d.name, s+1, median(vals), 100*spread(vals), "-")
			}
		}
	}
	if outside > 0 {
		return fmt.Errorf("%d (workload, metric) pairs outside their bounds", outside)
	}
	return nil
}
