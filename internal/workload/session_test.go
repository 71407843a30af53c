package workload

import (
	"context"
	"reflect"
	"testing"
	"time"

	"o2pc/internal/core"
	"o2pc/internal/proto"
)

// TestWorkloadMultiShotHostile drives the full hostile mix — multi-shot
// sessions with think time, Zipfian hot keys, flash-crowd bursts, doomed
// votes — and checks the standing oracles over the result.
func TestWorkloadMultiShotHostile(t *testing.T) {
	cl := core.NewCluster(core.Config{Sites: 4, Record: true})
	cfg := Config{
		Clients:       4,
		TxnsPerClient: 15,
		SitesPerTxn:   2,
		OpsPerSite:    2,
		KeysPerSite:   48,
		ZipfS:         1.2,
		ReadFrac:      0.3,
		AbortProb:     0.2,
		Protocol:      proto.O2PC,
		Marking:       proto.MarkP1,
		Rounds:        3,
		ThinkTime:     10 * time.Microsecond,
		BurstSize:     5,
		BurstGap:      50 * time.Microsecond,
	}
	rep := Run(context.Background(), cl, cfg)
	if rep.Committed == 0 {
		t.Fatalf("no sessions committed: %+v", rep)
	}
	if rep.Aborted == 0 {
		t.Fatalf("abort injection produced no aborted sessions")
	}
	t.Logf("report: %s", rep)
	t.Logf("exposure p50=%.3fms p99=%.3fms count=%d",
		rep.Exposure.P50, rep.Exposure.P99, rep.Exposure.Count)

	audit := cl.Audit()
	if len(audit.LocalCycles) != 0 {
		t.Fatalf("local cycles detected: %v", audit.LocalCycles)
	}
	if audit.EffectiveCount != 0 {
		t.Fatalf("effective regular cycles under P1: %d", audit.EffectiveCount)
	}
	if v := cl.CompensationViolations(); len(v) != 0 {
		t.Fatalf("Theorem 2 violations under multi-shot load: %v", v)
	}
}

// TestWorkloadMultiShotTwoPC runs the same session shape under the 2PC
// baseline: no marking, no exposure, and the oracles must still hold.
func TestWorkloadMultiShotTwoPC(t *testing.T) {
	cl := core.NewCluster(core.Config{Sites: 3, Record: true})
	cfg := Config{
		Clients:       3,
		TxnsPerClient: 10,
		SitesPerTxn:   2,
		KeysPerSite:   32,
		HotKeys:       4,
		HotProb:       0.6,
		ReadFrac:      0.4,
		AbortProb:     0.15,
		Protocol:      proto.TwoPC,
		Rounds:        2,
	}
	rep := Run(context.Background(), cl, cfg)
	if rep.Committed == 0 {
		t.Fatalf("no sessions committed: %+v", rep)
	}
	if rep.Exposure.Count != 0 {
		t.Fatalf("2PC produced exposure windows: %+v", rep.Exposure)
	}
	if audit := cl.Audit(); !audit.Correct() {
		t.Fatalf("Section 5 criterion violated under 2PC sessions")
	}
}

// TestSessionScriptDeterminism pins the seeded generator: the same (seed,
// config) must yield byte-identical session scripts draw for draw.
func TestSessionScriptDeterminism(t *testing.T) {
	cfg := Config{
		Seed:        7,
		SitesPerTxn: 2,
		OpsPerSite:  3,
		KeysPerSite: 64,
		ZipfS:       1.5,
		ReadFrac:    0.4,
		AbortProb:   0.3,
		Rounds:      4,
		ThinkTime:   time.Millisecond,
	}
	sites := []string{"s0", "s1", "s2"}
	ga := NewGenerator(cfg, sites)
	gb := NewGenerator(cfg, sites)
	for i := 0; i < 20; i++ {
		a, b := ga.NextSession(), gb.NextSession()
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("draw %d diverged:\n a=%+v\n b=%+v", i, a, b)
		}
		if len(a.Rounds) != cfg.Rounds || len(a.Think) != cfg.Rounds {
			t.Fatalf("draw %d: %d rounds / %d thinks, want %d", i, len(a.Rounds), len(a.Think), cfg.Rounds)
		}
		for r, think := range a.Think {
			if think != cfg.ThinkTime {
				t.Fatalf("draw %d round %d: think = %v, want %v", i, r, think, cfg.ThinkTime)
			}
		}
	}
}
