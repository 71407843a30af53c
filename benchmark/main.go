// Command benchmark is the repo's benchmark: a live cluster of two site
// processes (plus a replica host under Paxos Commit) on loopback TCP, driven
// closed-loop by two clients through a coordinator embedded in this process.
// Re-executed with a node config in its environment, the same binary hosts a
// site or the decision-log replicas. See README.md for every metric and
// workload; BENCHMARK.json at the repo root is the contract the metrics and
// bounds are declared in.
//
//	benchmark --workload hot-o2pc --seed 1 --seconds 10 --trace 0   one run, one JSON result line
//	benchmark -out bench.json [-layers]                             all five workloads, untraced then traced
//	benchmark -sets 2                                               repeatability check against the bounds
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

func main() {
	if cfg := os.Getenv(nodeEnv); cfg != "" {
		if err := nodeMain(cfg, os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark node:", err)
			os.Exit(1)
		}
		return
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// result is the last line of a single run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *runResult) published(defs []metricDef) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: r.values[d.name], Unit: d.unit}
	}
	return out
}

// metricsOf returns the metrics a run publishes: the end-to-end ones when
// untraced, the per-layer ones when traced.
func metricsOf(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// printMetrics writes one line per (workload, metric, value, unit).
func printMetrics(w io.Writer, name string, defs []metricDef, r *runResult) {
	for _, d := range defs {
		note := ""
		if d.name == "p99_ms" {
			note = fmt.Sprintf("  (p%g; %d committed samples in %d slices)", r.tailPct, r.committed, windowSlices)
		}
		fmt.Fprintf(w, "%-9s %-26s %14.4f %s%s\n", name, d.name, r.values[d.name], d.unit, note)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workloadName := fs.String("workload", "", "run this one workload and print one JSON result line (default: all five, untraced then traced)")
	seed := fs.Int64("seed", 1, "workload seed: the same seed generates the same transaction stream")
	seconds := fs.Float64("seconds", 10, "measured window in seconds (a traced run measures 0.4 of it)")
	trace := fs.Int("trace", 0, "1 wraps the seams with span recorders and reports the per-layer metrics instead of the end-to-end ones")
	layers := fs.Bool("layers", false, "print the cost-budget table of every traced run")
	out := fs.String("out", "", "all-workloads mode: also write the summary as JSON to this file")
	sets := fs.Int("sets", 0, "repeatability mode: run this many sets of ten runs per workload and judge the spreads against BENCHMARK.json")
	work := fs.String("work", ".bench_build", "directory for run scratch data (WAL files, span files); created if missing")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	if *sets < 0 {
		return fmt.Errorf("-sets must not be negative")
	}
	// Two clients on two CPUs: the driver is sized like one more node.
	runtime.GOMAXPROCS(2)
	scratch := func(tag string) string {
		return filepath.Join(*work, fmt.Sprintf("run-%d-%s", os.Getpid(), tag))
	}
	one := func(w workload, seed int64, traced bool) (*runResult, error) {
		o := runOpts{w: w, seed: seed, seconds: *seconds, trace: traced, setups: setupRepeats}
		o.dir = scratch(w.name)
		if traced {
			o.setups = 1
		}
		return runOnce(ctx, o)
	}

	switch {
	case *sets > 0:
		return repeatability(stdout, *sets, one)
	case *workloadName != "":
		w, ok := workloadByName(*workloadName)
		if !ok {
			return fmt.Errorf("unknown workload %q", *workloadName)
		}
		r, err := one(w, *seed, *trace == 1)
		if err != nil {
			return err
		}
		defs := metricsOf(*trace == 1)
		printMetrics(stdout, w.name, defs, r)
		if *trace != 1 {
			printMetrics(stdout, w.name, diagnostics, r)
		}
		if r.budget != nil && *layers {
			r.budget.print(stdout, w.name)
		}
		for _, p := range r.problems {
			fmt.Fprintf(os.Stderr, "benchmark: %s: INCORRECT: %s\n", w.name, p)
		}
		if err := json.NewEncoder(stdout).Encode(result{
			Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.published(defs),
		}); err != nil {
			return err
		}
		if len(r.problems) > 0 {
			return fmt.Errorf("%s: %w", w.name, errIncorrect)
		}
		return nil
	default:
		return runAll(stdout, *seed, *seconds, *layers, *out, one)
	}
}

// summary is the fixed-schema JSON the all-workloads mode writes.
type summary struct {
	GoVersion  string                       `json:"go_version"`
	NProc      int                          `json:"nproc"`
	GOMAXPROCS int                          `json:"gomaxprocs"`
	Commit     string                       `json:"commit"`
	BuildS     string                       `json:"build_s"`
	Clients    int                          `json:"clients"`
	Seconds    float64                      `json:"seconds"`
	Seed       int64                        `json:"seed"`
	Workloads  map[string]map[string]metric `json:"workloads"`
	Diagnostic map[string]map[string]metric `json:"diagnostics"`
	Derived    map[string]metric            `json:"derived"`
	Claim      *string                      `json:"claim"`
}

// runAll runs every workload untraced and then traced, prints every metric,
// and fails if any workload's correctness gate does.
func runAll(stdout io.Writer, seed int64, seconds float64, layers bool, outPath string, one func(workload, int64, bool) (*runResult, error)) error {
	sum := summary{
		GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit: commitHash(), BuildS: os.Getenv("O2PC_BENCHMARK_BUILD_S"),
		Clients: clients, Seconds: seconds, Seed: seed,
		Workloads: make(map[string]map[string]metric), Derived: make(map[string]metric),
		Diagnostic: make(map[string]map[string]metric),
	}
	fmt.Fprintf(stdout, "# %s nproc=%d GOMAXPROCS=%d commit=%s build_s=%s clients=%d seconds=%g seed=%d\n",
		sum.GoVersion, sum.NProc, sum.GOMAXPROCS, sum.Commit, sum.BuildS, clients, seconds, seed)
	incorrect := false
	rate := make(map[string]float64)
	for _, w := range workloads {
		sum.Workloads[w.name] = make(map[string]metric)
		for _, traced := range []bool{false, true} {
			r, err := one(w, seed, traced)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			defs := metricsOf(traced)
			printMetrics(stdout, w.name, defs, r)
			for name, m := range r.published(defs) {
				sum.Workloads[w.name][name] = m
			}
			if traced {
				overhead := metric{Value: 100 * (1 - r.values["txn_per_s"]/rate[w.name]), Unit: "%"}
				sum.Workloads[w.name]["trace_overhead_pct"] = overhead
				fmt.Fprintf(stdout, "%-9s %-26s %14.4f %%\n", w.name, "trace_overhead_pct", overhead.Value)
				if layers {
					r.budget.print(stdout, w.name)
				}
			} else {
				rate[w.name] = r.values["txn_per_s"]
				printMetrics(stdout, w.name, diagnostics, r)
				sum.Diagnostic[w.name] = r.published(diagnostics)
			}
			for _, p := range r.problems {
				incorrect = true
				fmt.Fprintf(stdout, "%-9s INCORRECT: %s\n", w.name, p)
			}
		}
	}
	// The paper's claim as one number: the same input stream, locks released
	// at the vote against locks held across the decision round.
	ratio := metric{Value: rate["hot-o2pc"] / rate["hot-2pc"], Unit: "ratio"}
	sum.Derived["o2pc_over_2pc"] = ratio
	fmt.Fprintf(stdout, "%-9s %-26s %14.4f ratio  (hot-o2pc.txn_per_s / hot-2pc.txn_per_s)\n", "derived", "o2pc_over_2pc", ratio.Value)
	fmt.Fprintln(stdout, `"claim": null`)
	if outPath != "" {
		data, err := json.MarshalIndent(sum, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if incorrect {
		return errIncorrect
	}
	return nil
}

// commitHash names the checkout when it is a git repository.
func commitHash() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
