package workload

import (
	"context"
	"testing"

	"o2pc/internal/core"
	"o2pc/internal/proto"
)

func TestWorkloadO2PCP1UnderAborts(t *testing.T) {
	cl := core.NewCluster(core.Config{Sites: 4, Record: true})
	cfg := Config{
		Clients:       4,
		TxnsPerClient: 40,
		SitesPerTxn:   2,
		OpsPerSite:    2,
		KeysPerSite:   64,
		HotKeys:       8,
		HotProb:       0.5,
		ReadFrac:      0.3,
		AbortProb:     0.2,
		Protocol:      proto.O2PC,
		Marking:       proto.MarkP1,
	}
	rep := Run(context.Background(), cl, cfg)
	if rep.Committed == 0 {
		t.Fatalf("no transactions committed: %+v", rep)
	}
	if rep.Aborted == 0 {
		t.Fatalf("abort injection produced no aborts")
	}
	t.Logf("report: %s", rep)
	t.Logf("rejects retry=%d fatal=%d compensations=%d rollbacks=%d",
		rep.RejectsRetry, rep.RejectsFatal, rep.Compensations, rep.Rollbacks)

	// The Section 5 verifier must find the run correct under P1.
	audit := cl.Audit()
	if audit.Truncated {
		t.Logf("audit truncated at %d cycles", len(audit.Cycles))
	}
	if len(audit.LocalCycles) != 0 {
		t.Fatalf("local cycles detected: %v", audit.LocalCycles)
	}
	if audit.EffectiveCount != 0 {
		t.Fatalf("effective regular cycles under P1: %d (first: %+v)", audit.EffectiveCount, audit.Cycles[0])
	}
	if audit.DoomedCount > 0 {
		t.Logf("doomed-reader cycles (allowed, see CycleClass.Effective): %d", audit.DoomedCount)
	}
	if v := cl.CompensationViolations(); len(v) != 0 {
		t.Fatalf("atomicity-of-compensation violations under P1: %v", v)
	}
}

func TestWorkloadTwoPCBaseline(t *testing.T) {
	cl := core.NewCluster(core.Config{Sites: 4, Record: true})
	cfg := Config{
		Clients:       4,
		TxnsPerClient: 30,
		SitesPerTxn:   2,
		KeysPerSite:   64,
		ReadFrac:      0.5,
		AbortProb:     0.1,
		Protocol:      proto.TwoPC,
		Marking:       proto.MarkNone,
	}
	rep := Run(context.Background(), cl, cfg)
	if rep.Committed == 0 {
		t.Fatalf("no transactions committed")
	}
	// Without any aborted global transaction surviving uncompensated, and
	// with strict 2PL + 2PC, the history must have no regular cycles.
	audit := cl.Audit()
	if !audit.Correct() {
		t.Fatalf("2PC audit failed: local=%v regular=%d", audit.LocalCycles, audit.RegularCount)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	sites := []string{"s0", "s1", "s2"}
	g1 := NewGenerator(Config{Seed: 7, SitesPerTxn: 2}, sites)
	g2 := NewGenerator(Config{Seed: 7, SitesPerTxn: 2}, sites)
	for i := 0; i < 50; i++ {
		a, da := g1.Next()
		b, db := g2.Next()
		if a.ID != b.ID || da != db || len(a.Subtxns) != len(b.Subtxns) {
			t.Fatalf("generator diverged at %d", i)
		}
		for j := range a.Subtxns {
			if a.Subtxns[j].Site != b.Subtxns[j].Site {
				t.Fatalf("site choice diverged at txn %d sub %d", i, j)
			}
		}
	}
}

// TestReportMergesSiteHistogramsExactly: the report's cross-site lock-hold,
// lock-wait and exposure summaries hold every site sample, not a
// resampling, so their count and mean are the sums over the sites.
func TestReportMergesSiteHistogramsExactly(t *testing.T) {
	cl := core.NewCluster(core.Config{Sites: 2})
	rep := Run(context.Background(), cl, Config{
		Clients:       4,
		TxnsPerClient: 400,
		SitesPerTxn:   2,
		OpsPerSite:    4,
		KeysPerSite:   4096,
		Protocol:      proto.O2PC,
	})
	count, sum := 0, 0.0
	exposures := 0
	for _, s := range cl.Sites() {
		hold := s.Manager().Locks().Stats().HoldTimeX
		count += hold.Count()
		sum += hold.Sum()
		exposures += s.Stats().ExposureDuration.Count()
	}
	if count <= 4096 {
		t.Fatalf("only %d X-lock holds; the test needs more than 4096", count)
	}
	if rep.LockHoldX.Count != count || rep.LockHoldX.Mean != sum/float64(count) {
		t.Errorf("LockHoldX count=%d mean=%v, want count=%d mean=%v",
			rep.LockHoldX.Count, rep.LockHoldX.Mean, count, sum/float64(count))
	}
	if rep.Exposure.Count != exposures {
		t.Errorf("Exposure count=%d, want %d", rep.Exposure.Count, exposures)
	}
}
