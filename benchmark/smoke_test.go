package main

import (
	"context"
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestMain lets the test binary host nodes, as the benchmark binary does:
// the driver re-executes os.Executable() with a node config in its
// environment.
func TestMain(m *testing.M) {
	if cfg := os.Getenv(nodeEnv); cfg != "" {
		if err := nodeMain(cfg, os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark node:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestSmokeWholePipeline runs hot-o2pc for a second on a live two-node
// memory-WAL cluster, untraced and traced: processes spawned and stopped,
// transfers generated, doomed ones compensated, the correctness gate
// (money conserved, nothing pending, commit counts agreeing) passed, and
// every declared metric produced.
func TestSmokeWholePipeline(t *testing.T) {
	w, _ := workloadByName("hot-o2pc")
	for _, traced := range []bool{false, true} {
		o := runOpts{w: w, seed: 1, seconds: 1, trace: traced, setups: 1, dir: t.TempDir()}
		r, err := runOnce(context.Background(), o)
		if err != nil {
			t.Fatalf("traced=%v: %v", traced, err)
		}
		if len(r.problems) > 0 {
			t.Errorf("traced=%v: correctness gate: %v", traced, r.problems)
		}
		if r.committed < 100 || r.failed != 0 {
			t.Errorf("traced=%v: %d committed, %d failed of %d", traced, r.committed, r.failed, r.attempted)
		}
		if r.values["failed_frac"] <= 0 || r.values["coord.retries"] <= 0 {
			t.Errorf("traced=%v: failed_frac %v, coord.retries %v: R1 rejected no first attempt, though doomed transfers leave marks",
				traced, r.values["failed_frac"], r.values["coord.retries"])
		}
		if r.values["compensate.runs"] <= 0 {
			t.Errorf("traced=%v: no compensation ran, though 5%% of transfers are doomed", traced)
		}
		defs := endToEnd
		if traced {
			defs = perLayer
			if r.budget == nil {
				t.Fatal("traced run built no budget")
			}
			var table strings.Builder
			r.budget.print(&table, w.name)
			if !strings.Contains(table.String(), "unexplained remainder") {
				t.Errorf("budget table hides its remainder:\n%s", table.String())
			}
			sum := r.values["coord.exec_ms"] + r.values["coord.vote_ms"] + r.values["coord.decide_ms"] + r.values["coord.ack_ms"] + r.values["coord.self_ms"]
			if run := r.values["coord.run_ms"]; sum < 0.999*run || sum > 1.001*run {
				t.Errorf("coordinator phases sum to %v ms, mean coord.Run is %v ms", sum, run)
			}
			if r.values["wal.bytes"] != 0 || r.values["replog.ballots"] != 0 {
				t.Errorf("memory-WAL 2-site run reports wal.bytes=%v replog.ballots=%v", r.values["wal.bytes"], r.values["replog.ballots"])
			}
		}
		for _, d := range defs {
			if _, ok := r.values[d.name]; !ok {
				t.Errorf("traced=%v: metric %s was not produced", traced, d.name)
			}
		}
	}
}

func TestGateReportsWhatIsWrong(t *testing.T) {
	w, _ := workloadByName("hot-2pc")
	good := []snap{{}, {"site.balance": 50, "site.commits": 11}, {"site.balance": 50, "site.commits": 11}}
	if p := gate(w, 100, good, 10, 10, 3, 0); len(p) != 0 {
		t.Errorf("a consistent run was flagged: %v", p)
	}
	bad := []snap{{}, {"site.balance": 49, "site.commits": 11, "site.pending": 1, "site.compensations": 2}, {"site.balance": 50, "site.commits": 12}}
	p := strings.Join(gate(w, 100, bad, 9, 10, 3, 0), "\n")
	for _, want := range []string{"money not conserved", "still pending", "clients counted 9", "site s1 counted 12", "compensations under"} {
		if !strings.Contains(p, want) {
			t.Errorf("gate did not report %q; it said:\n%s", want, p)
		}
	}
}
