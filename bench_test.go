// Benchmarks mirroring the experiment suite of cmd/o2pc-bench (one per
// DESIGN.md experiment, plus micro-benchmarks of the substrates). Run:
//
//	go test -bench=. -benchmem
//
// Benchmarks report committed transactions per second where relevant via
// the txn/s metric; the shapes (who wins, by how much) reproduce the
// paper's claims — see EXPERIMENTS.md.
package o2pc_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"o2pc"
)

// benchLoad runs b.N transactions through a cluster under the given stack
// and reports txn/s.
func benchLoad(b *testing.B, protocol o2pc.Protocol, marking o2pc.MarkProtocol, hotKeys int, abortProb float64) {
	b.Helper()
	cl := o2pc.NewCluster(o2pc.ClusterConfig{Sites: 4})
	cfg := o2pc.WorkloadConfig{
		Clients:       4,
		TxnsPerClient: (b.N + 3) / 4,
		SitesPerTxn:   2,
		KeysPerSite:   1024,
		HotKeys:       hotKeys,
		HotProb:       0.5,
		ReadFrac:      0.3,
		AbortProb:     abortProb,
		Protocol:      protocol,
		Marking:       marking,
	}
	b.ResetTimer()
	rep := o2pc.RunWorkload(context.Background(), cl, cfg)
	b.StopTimer()
	b.ReportMetric(rep.Throughput, "txn/s")
	b.ReportMetric(100*rep.CommitRate, "%commit")
	b.ReportMetric(rep.LockHoldX.Mean, "holdX-ms")
}

// --- E1/E2: protocol comparison under contention ---

func BenchmarkContention2PC(b *testing.B)    { benchLoad(b, o2pc.TwoPC, o2pc.MarkNone, 16, 0) }
func BenchmarkContentionO2PC(b *testing.B)   { benchLoad(b, o2pc.O2PC, o2pc.MarkNone, 16, 0) }
func BenchmarkContentionO2PCP1(b *testing.B) { benchLoad(b, o2pc.O2PC, o2pc.MarkP1, 16, 0) }

func BenchmarkUncontended2PC(b *testing.B)  { benchLoad(b, o2pc.TwoPC, o2pc.MarkNone, 0, 0) }
func BenchmarkUncontendedO2PC(b *testing.B) { benchLoad(b, o2pc.O2PC, o2pc.MarkNone, 0, 0) }

// BenchmarkLockHoldTime measures the per-protocol exclusive-lock hold time
// with a realistic network latency (experiment E1's core number).
func BenchmarkLockHoldTime(b *testing.B) {
	for _, tc := range []struct {
		name     string
		protocol o2pc.Protocol
	}{{"2PC", o2pc.TwoPC}, {"O2PC", o2pc.O2PC}} {
		b.Run(tc.name, func(b *testing.B) {
			cl := o2pc.NewCluster(o2pc.ClusterConfig{
				Sites: 2,
				Network: o2pc.NetworkConfig{
					MinLatency: time.Millisecond,
					MaxLatency: 2 * time.Millisecond,
				},
			})
			cfg := o2pc.WorkloadConfig{
				Clients:       4,
				TxnsPerClient: (b.N + 3) / 4,
				SitesPerTxn:   2,
				KeysPerSite:   4096,
				ReadFrac:      0.2,
				Protocol:      tc.protocol,
			}
			b.ResetTimer()
			rep := o2pc.RunWorkload(context.Background(), cl, cfg)
			b.StopTimer()
			b.ReportMetric(rep.LockHoldX.Mean, "holdX-ms")
		})
	}
}

// --- E4: the abort-rate crossover ---

func BenchmarkAbortRateCrossover(b *testing.B) {
	for _, p := range []float64{0, 0.05, 0.2} {
		for _, tc := range []struct {
			name     string
			protocol o2pc.Protocol
			marking  o2pc.MarkProtocol
		}{{"2PC", o2pc.TwoPC, o2pc.MarkNone}, {"O2PC", o2pc.O2PC, o2pc.MarkNone}, {"O2PCP1", o2pc.O2PC, o2pc.MarkP1}} {
			b.Run(fmt.Sprintf("abort=%.0f%%/%s", 100*p, tc.name), func(b *testing.B) {
				benchLoad(b, tc.protocol, tc.marking, 32, p)
			})
		}
	}
}

// --- E3: coordinator crash (fixed outage, measures blocked wait) ---

func BenchmarkCoordinatorCrash(b *testing.B) {
	for _, tc := range []struct {
		name     string
		protocol o2pc.Protocol
	}{{"2PC", o2pc.TwoPC}, {"O2PC", o2pc.O2PC}} {
		b.Run(tc.name, func(b *testing.B) {
			const outage = 20 * time.Millisecond
			var totalWait time.Duration
			for i := 0; i < b.N; i++ {
				totalWait += measureCrashWait(tc.protocol, outage)
			}
			b.ReportMetric(float64(totalWait.Milliseconds())/float64(b.N), "blocked-ms/op")
		})
	}
}

func measureCrashWait(protocol o2pc.Protocol, outage time.Duration) time.Duration {
	ctx := context.Background()
	cl := o2pc.NewCluster(o2pc.ClusterConfig{Sites: 2, LockTimeout: time.Hour})
	cl.SeedInt64("x", 0)
	cl.Coordinator(0).SetCrashInjector(func(id string, phase o2pc.CrashPhase) bool {
		return id == "Tcrash" && phase == o2pc.CrashAfterVotes
	})
	cl.Run(ctx, o2pc.TxnSpec{
		ID:       "Tcrash",
		Protocol: protocol,
		Subtxns: []o2pc.SubtxnSpec{
			{Site: "s0", Ops: []o2pc.Operation{o2pc.Add("x", 1)}, Comp: o2pc.CompSemantic},
			{Site: "s1", Ops: []o2pc.Operation{o2pc.Add("x", 1)}, Comp: o2pc.CompSemantic},
		},
	})
	cl.Network().SetDown("c0", true)
	start := time.Now()
	done := make(chan time.Duration, 1)
	go func() {
		_ = cl.RunLocal(ctx, 0, func(t *o2pc.Txn) error {
			_, err := t.ReadInt64(ctx, "x")
			return err
		})
		done <- time.Since(start)
	}()
	time.Sleep(outage)
	_ = cl.RecoverCoordinator(ctx, 0)
	wait := <-done
	qctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	_ = cl.Quiesce(qctx)
	return wait
}

// --- E6: message counts per committed transaction ---
//
// Two sites: 12 msgs/txn under O2PC and O2PC+P1 (exec, vote and decision
// pairs per site), 8 under 2PC, whose vote rides the exec.

func BenchmarkMessageCounts(b *testing.B) {
	for _, tc := range []struct {
		name     string
		protocol o2pc.Protocol
		marking  o2pc.MarkProtocol
	}{{"2PC", o2pc.TwoPC, o2pc.MarkNone}, {"O2PC", o2pc.O2PC, o2pc.MarkNone}, {"O2PCP1", o2pc.O2PC, o2pc.MarkP1}} {
		b.Run(tc.name, func(b *testing.B) {
			cl := o2pc.NewCluster(o2pc.ClusterConfig{Sites: 2})
			cl.SeedInt64("k", 1<<30)
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cl.Run(ctx, o2pc.TxnSpec{
					Protocol: tc.protocol,
					Marking:  tc.marking,
					Subtxns: []o2pc.SubtxnSpec{
						{Site: "s0", Ops: []o2pc.Operation{o2pc.Add("k", 1)}, Comp: o2pc.CompSemantic},
						{Site: "s1", Ops: []o2pc.Operation{o2pc.Add("k", 1)}, Comp: o2pc.CompSemantic},
					},
				})
			}
			b.StopTimer()
			var total int64
			for _, n := range cl.MessageCounts() {
				total += n
			}
			b.ReportMetric(float64(total)/float64(b.N), "msgs/txn")
		})
	}
}

// --- F1/E7: serialization-graph audit throughput ---

func BenchmarkFig1RegularCycleDetection(b *testing.B) {
	cl := o2pc.NewCluster(o2pc.ClusterConfig{Sites: 4, Record: true})
	_ = o2pc.RunWorkload(context.Background(), cl, o2pc.WorkloadConfig{
		Clients:       4,
		TxnsPerClient: 50,
		SitesPerTxn:   2,
		KeysPerSite:   256,
		HotKeys:       16,
		HotProb:       0.5,
		ReadFrac:      0.4,
		AbortProb:     0.15,
		Protocol:      o2pc.O2PC,
		Marking:       o2pc.MarkP1,
	})
	h := cl.History()
	_ = h
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		audit := cl.Audit()
		if audit.RegularCount != 0 {
			b.Fatalf("regular cycles under P1: %d", audit.RegularCount)
		}
	}
}

// BenchmarkSGAudit measures the Section 5 verifier itself on a recorded
// contended history (experiment E7's tooling cost).
func BenchmarkSGAudit(b *testing.B) {
	cl := o2pc.NewCluster(o2pc.ClusterConfig{Sites: 8, Record: true})
	_ = o2pc.RunWorkload(context.Background(), cl, o2pc.WorkloadConfig{
		Clients:       8,
		TxnsPerClient: 40,
		SitesPerTxn:   3,
		KeysPerSite:   512,
		HotKeys:       32,
		HotProb:       0.5,
		ReadFrac:      0.4,
		AbortProb:     0.1,
		Protocol:      o2pc.O2PC,
		Marking:       o2pc.MarkP1,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = cl.Audit()
	}
}

// --- E9: real actions ---

func BenchmarkRealActions(b *testing.B) {
	for _, frac := range []float64{0, 0.5, 1} {
		b.Run(fmt.Sprintf("frac=%.0f%%", 100*frac), func(b *testing.B) {
			cl := o2pc.NewCluster(o2pc.ClusterConfig{Sites: 4})
			cfg := o2pc.WorkloadConfig{
				Clients:        4,
				TxnsPerClient:  (b.N + 3) / 4,
				SitesPerTxn:    2,
				KeysPerSite:    1024,
				HotKeys:        64,
				HotProb:        0.5,
				ReadFrac:       0.2,
				Protocol:       o2pc.O2PC,
				RealActionFrac: frac,
			}
			b.ResetTimer()
			rep := o2pc.RunWorkload(context.Background(), cl, cfg)
			b.StopTimer()
			b.ReportMetric(rep.Throughput, "txn/s")
		})
	}
}

// --- E10: sites per transaction ---

func BenchmarkScaleSites(b *testing.B) {
	for _, width := range []int{2, 4, 8} {
		for _, tc := range []struct {
			name     string
			protocol o2pc.Protocol
		}{{"2PC", o2pc.TwoPC}, {"O2PC", o2pc.O2PC}} {
			b.Run(fmt.Sprintf("width=%d/%s", width, tc.name), func(b *testing.B) {
				cl := o2pc.NewCluster(o2pc.ClusterConfig{Sites: 8})
				cfg := o2pc.WorkloadConfig{
					Clients:       4,
					TxnsPerClient: (b.N + 3) / 4,
					SitesPerTxn:   width,
					KeysPerSite:   1024,
					ReadFrac:      0.3,
					Protocol:      tc.protocol,
				}
				b.ResetTimer()
				rep := o2pc.RunWorkload(context.Background(), cl, cfg)
				b.StopTimer()
				b.ReportMetric(rep.Throughput, "txn/s")
			})
		}
	}
}

// --- single-transaction latency ---

func BenchmarkSingleTxnLatency(b *testing.B) {
	for _, tc := range []struct {
		name     string
		protocol o2pc.Protocol
		marking  o2pc.MarkProtocol
	}{{"2PC", o2pc.TwoPC, o2pc.MarkNone}, {"O2PC", o2pc.O2PC, o2pc.MarkNone}, {"O2PCP1", o2pc.O2PC, o2pc.MarkP1}} {
		b.Run(tc.name, func(b *testing.B) {
			cl := o2pc.NewCluster(o2pc.ClusterConfig{Sites: 3})
			cl.SeedInt64("k", 1<<30)
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := cl.Run(ctx, o2pc.TxnSpec{
					Protocol: tc.protocol,
					Marking:  tc.marking,
					Subtxns: []o2pc.SubtxnSpec{
						{Site: "s0", Ops: []o2pc.Operation{o2pc.Add("k", 1)}, Comp: o2pc.CompSemantic},
						{Site: "s1", Ops: []o2pc.Operation{o2pc.Add("k", 1)}, Comp: o2pc.CompSemantic},
						{Site: "s2", Ops: []o2pc.Operation{o2pc.Read("k")}, Comp: o2pc.CompSemantic},
					},
				})
				if !res.Committed() {
					b.Fatalf("txn failed: %v", res.Err)
				}
			}
		})
	}
}

// --- compensation cost ---

func BenchmarkCompensationRoundTrip(b *testing.B) {
	cl := o2pc.NewCluster(o2pc.ClusterConfig{Sites: 2})
	cl.SeedInt64("k", 1<<30)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := fmt.Sprintf("doom%d", i)
		cl.DoomAtSite(id, "s1")
		res := cl.Run(ctx, o2pc.TxnSpec{
			ID:       id,
			Protocol: o2pc.O2PC,
			Subtxns: []o2pc.SubtxnSpec{
				{Site: "s0", Ops: []o2pc.Operation{o2pc.Add("k", 1)}, Comp: o2pc.CompSemantic},
				{Site: "s1", Ops: []o2pc.Operation{o2pc.Add("k", 1)}, Comp: o2pc.CompSemantic},
			},
		})
		if res.Committed() {
			b.Fatalf("doomed txn committed")
		}
	}
	b.StopTimer()
	qctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	_ = cl.Quiesce(qctx)
}
