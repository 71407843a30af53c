// Command o2pc-bench regenerates the experiments of EXPERIMENTS.md.
//
// The paper ("An Optimistic Commit Protocol for Distributed Transaction
// Management", SIGMOD 1991) contains no quantitative evaluation tables —
// its claims are qualitative and its two figures are structural — so each
// experiment here operationalizes one claim or figure, as indexed in
// DESIGN.md:
//
//	F1  Figure 1: regular-cycle formation and detection
//	F2  Figure 2: the marking state machine walkthrough
//	E1  early lock release: exclusive-lock hold time vs network latency
//	E2  throughput under data contention
//	E3  blocking under coordinator failure
//	E4  the optimistic-assumption crossover (abort-rate sweep)
//	E5  protocol P1 overhead and its effect on local transactions
//	E6  message census ("no extra messages")
//	E7  serialization-graph audit (criterion enforcement)
//	E8  atomicity of compensation (Theorem 2)
//	E9  real actions (non-compensatable subtransactions)
//	E10 scaling with sites per transaction
//	E11 multi-shot sessions: the abort-rate crossover revisited
//	E12 exposure-duration distribution vs session round count
//	E13 the marking tax under Zipfian skew and flash-crowd arrivals
//	E16 replicated decisions: 2PC vs O2PC vs Paxos Commit
//	A3  ablation: P1 vs the dual P2
//	A4  extension: read-only participant optimization
//
// Ablations A1 (read-lock release at VOTE-REQ) and A2 (holding the
// marking-set lock for a whole subtransaction) have no runner: the options
// they measured were deleted on their verdicts, and EXPERIMENTS.md keeps
// their recorded tables.
//
// Usage:
//
//	o2pc-bench [-exp all|F1,E3,...] [-quick] [-seed N] [-dump DIR]
//	           [-trace FILE] [-trace-chrome FILE] [-metrics FILE]
//	           [-multishot N] [-zipf-s S] [-burst N] [-read-frac F]
//
// -dump writes each experiment's recorded history as JSON for offline
// auditing with sgcheck. -trace / -trace-chrome write the protocol event
// log of the first cluster built as JSONL / Chrome trace-event JSON
// (combine with -exp to choose which experiment is traced), and -metrics
// writes that cluster's counters, gauges, and latency histograms in
// Prometheus text exposition form.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"text/tabwriter"

	"o2pc/internal/metrics"
	"o2pc/internal/trace"
)

// experiment is one runnable experiment.
type experiment struct {
	id    string
	title string
	run   func(e *env)
}

// artifacts captures the observability outputs of the first cluster built
// across the whole bench invocation (so -exp picks what gets traced).
type artifacts struct {
	tracer *trace.Tracer
	reg    *metrics.Registry
	used   bool
}

// env carries shared experiment settings.
type env struct {
	quick bool
	seed  int64
	dump  string
	art   *artifacts
	out   *tabwriter.Writer
	// Hostile-workload knobs applied to every workload run (unless the
	// experiment pinned the field itself): multishot switches loads to
	// sessions of that many rounds, zipfS replaces the hot-set model with a
	// Zipf(s) skew, burst groups arrivals into flash-crowd waves of that
	// size, and readFrac overrides the read fraction (negative = keep the
	// experiment's own value).
	multishot int
	zipfS     float64
	burst     int
	readFrac  float64
}

// row writes one tab-separated table row.
func (e *env) row(cells ...string) {
	fmt.Fprintln(e.out, strings.Join(cells, "\t"))
}

func (e *env) flush() { e.out.Flush() }

var experiments = []experiment{
	{"F1", "Figure 1 — regular cycles form without P1 and are excluded by it", runF1},
	{"F2", "Figure 2 — marking state machine walkthrough", runF2},
	{"E1", "early lock release — X-lock hold time vs one-way network latency", runE1},
	{"E2", "throughput under data contention (hot-set sweep)", runE2},
	{"E3", "blocking under coordinator failure (outage sweep)", runE3},
	{"E4", "the optimistic-assumption crossover (abort-rate sweep)", runE4},
	{"E5", "protocol P1 overhead; local transactions unaffected", runE5},
	{"E6", "message census — no extra messages beyond 2PC", runE6},
	{"E7", "serialization-graph audit across protocol stacks", runE7},
	{"E8", "atomicity of compensation (Theorem 2)", runE8},
	{"E9", "real actions — lock retention fraction sweep", runE9},
	{"E10", "scaling with sites per transaction", runE10},
	{"E11", "multi-shot sessions — the abort-rate crossover revisited", runE11},
	{"E12", "exposure-duration distribution vs session round count", runE12},
	{"E13", "the marking tax under Zipfian skew and flash-crowd arrivals", runE13},
	{"E16", "replicated decisions — 2PC blocking vs O2PC compensation vs Paxos majority-ack", runE16},
	{"A3", "ablation — P1 vs the dual protocol P2", runA3},
	{"A4", "extension — read-only participant optimization (R*-style)", runA4},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command, factored for tests: flags from args, tables to
// stdout, diagnostics to stderr. Returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("o2pc-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	expFlag := fs.String("exp", "all", "experiments to run (comma-separated IDs, or 'all')")
	quick := fs.Bool("quick", false, "smaller workloads (CI-sized)")
	seed := fs.Int64("seed", 1991, "workload seed")
	dump := fs.String("dump", "", "directory for history JSON dumps (sgcheck input)")
	traceFile := fs.String("trace", "", "write the first cluster's protocol event log as JSONL to this file")
	chromeFile := fs.String("trace-chrome", "", "write the first cluster's protocol event log as Chrome trace-event JSON (Perfetto-loadable) to this file")
	metricsFile := fs.String("metrics", "", "write the first cluster's metrics in Prometheus text form to this file")
	multishot := fs.Int("multishot", 0, "run workloads as multi-shot sessions of this many rounds (0 = one-shot)")
	zipfS := fs.Float64("zipf-s", 0, "replace the hot-set model with a Zipf(s) key skew (needs s > 1)")
	burst := fs.Int("burst", 0, "flash-crowd arrival: clients pause after every N transactions (0 = smooth)")
	readFrac := fs.Float64("read-frac", -1, "override each workload's read fraction (negative = keep per-experiment values)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	want := map[string]bool{}
	if *expFlag != "all" {
		for _, id := range strings.Split(*expFlag, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}
	if *dump != "" {
		if err := os.MkdirAll(*dump, 0o755); err != nil {
			fmt.Fprintln(stderr, "o2pc-bench:", err)
			return 1
		}
	}

	var art *artifacts
	if *traceFile != "" || *chromeFile != "" || *metricsFile != "" {
		art = &artifacts{reg: metrics.NewRegistry()}
	}

	ran := map[string]bool{}
	for _, ex := range experiments {
		if len(want) > 0 && !want[ex.id] {
			continue
		}
		ran[ex.id] = true
		fmt.Fprintf(stdout, "== %s: %s ==\n", ex.id, ex.title)
		e := &env{
			quick:     *quick,
			seed:      *seed,
			dump:      *dump,
			art:       art,
			out:       tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0),
			multishot: *multishot,
			zipfS:     *zipfS,
			burst:     *burst,
			readFrac:  *readFrac,
		}
		ex.run(e)
		e.flush()
		fmt.Fprintln(stdout)
	}
	if art != nil {
		if err := writeArtifacts(art, *traceFile, *chromeFile, *metricsFile); err != nil {
			fmt.Fprintln(stderr, "o2pc-bench:", err)
			return 1
		}
	}
	var missing []string
	for id := range want {
		if !ran[id] {
			missing = append(missing, id)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		fmt.Fprintln(stderr, "o2pc-bench: unknown experiments:", strings.Join(missing, ","))
		return 2
	}
	return 0
}

// writeArtifacts dumps the captured trace and metrics to the flagged files.
func writeArtifacts(art *artifacts, traceFile, chromeFile, metricsFile string) error {
	if !art.used {
		return fmt.Errorf("no cluster was traced (selected experiments build none)")
	}
	writeTo := func(path string, write func(io.Writer) error) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := write(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if traceFile != "" {
		events := art.tracer.Events()
		if err := writeTo(traceFile, func(w io.Writer) error { return trace.WriteJSONL(w, events) }); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
	}
	if chromeFile != "" {
		events := art.tracer.Events()
		if err := writeTo(chromeFile, func(w io.Writer) error { return trace.WriteChrome(w, events) }); err != nil {
			return fmt.Errorf("write chrome trace: %w", err)
		}
	}
	if metricsFile != "" {
		if err := writeTo(metricsFile, art.reg.WriteText); err != nil {
			return fmt.Errorf("write metrics: %w", err)
		}
	}
	return nil
}
