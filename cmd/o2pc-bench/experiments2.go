package main

import (
	"sort"
	"time"

	"o2pc/internal/core"
	"o2pc/internal/proto"
	"o2pc/internal/rpc"
	"o2pc/internal/workload"
)

// runE6 — message census. O2PC and P1 add no message to the classic
// exchange (exec, vote, decision per participant): with no aborts O2PC and
// O2PC+P1 exchange exactly the same messages, and under aborts P1's counts
// differ only because R1 rejections change control flow (retried
// ExecRequests, skipped vote rounds for refused transactions), never
// because of new message types or extra rounds for admitted transactions.
// 2PC and Paxos Commit keep their locks at the YES vote, so the vote rides
// the exec: no VoteRequest or VoteReply at all — one request/reply pair
// per participant fewer — and a NO at an early site stops the later
// subtransactions from shipping. Paxos adds its decision-log ballots to
// three replicas. TestMessageCensus (internal/coord) pins the counts per
// committed transaction.
func runE6(e *env) {
	counts := func(st stack, abortProb float64) (map[string]int64, int64) {
		cfg := core.Config{Sites: 4}
		if st.protocol == proto.Paxos {
			cfg.Replicas = 3
		}
		cl := e.cluster(cfg)
		defer cl.Close()
		rep := workload.Run(bg(), cl, workload.Config{
			Seed:          e.seed,
			Clients:       4,
			TxnsPerClient: 10,
			SitesPerTxn:   2,
			KeysPerSite:   512,
			ReadFrac:      0.3,
			AbortProb:     abortProb,
			Protocol:      st.protocol,
			Marking:       st.marking,
		})
		return cl.MessageCounts(), rep.Committed + rep.Aborted
	}
	stacks := []stack{st2PC, stPaxos, stO2PC, stO2PCP1}
	for _, scenario := range []struct {
		name      string
		abortProb float64
	}{{"no aborts", 0}, {"15% vote aborts", 0.15}} {
		all := map[string]map[string]int64{}
		perTxn := map[string]float64{}
		typeSet := map[string]bool{}
		for _, st := range stacks {
			c, txns := counts(st, scenario.abortProb)
			all[st.name] = c
			var total int64
			for name, n := range c {
				typeSet[name] = true
				total += n
			}
			perTxn[st.name] = float64(total) / float64(max(txns, 1))
		}
		var types []string
		for name := range typeSet {
			types = append(types, name)
		}
		sort.Strings(types)
		e.row("["+scenario.name+"]", "", "", "", "", "")
		e.row("message type", "2PC", "Paxos", "O2PC", "O2PC+P1", "O2PC==O2PC+P1")
		for _, name := range types {
			o, p1 := all["O2PC"][name], all["O2PC+P1"][name]
			e.row(name, d(all["2PC"][name]), d(all["Paxos"][name]), d(o), d(p1), b(o == p1))
		}
		e.row("messages/txn", f1(perTxn["2PC"]), f1(perTxn["Paxos"]), f1(perTxn["O2PC"]), f1(perTxn["O2PC+P1"]), "")
	}
}

// runE7 — serialization-graph audit: repeated adversarial scenarios plus a
// plain contended workload, audited per protocol stack.
func runE7(e *env) {
	iters := e.scale(15, 4)
	e.row("workload", "stack", "effective regular", "doomed regular", "benign", "correct")
	for _, marking := range []proto.MarkProtocol{proto.MarkNone, proto.MarkP1, proto.MarkP2} {
		var effective, doomed, benign int
		correct := true
		for i := 0; i < iters; i++ {
			cl, _ := dangerousScenario(marking, e.seed+int64(100+i))
			audit := cl.Audit()
			effective += audit.EffectiveCount
			doomed += audit.DoomedCount
			benign += audit.BenignCount
			correct = correct && audit.Correct()
		}
		e.row("adversarial (coordinator crash)", "O2PC+"+marking.String(),
			d(int64(effective)), d(int64(doomed)), d(int64(benign)), b(correct))
	}
	for _, st := range []stack{st2PC, stO2PCP1} {
		cl := e.cluster(core.Config{Sites: 4, Record: true})
		_ = workload.Run(bg(), cl, workload.Config{
			Seed:          e.seed,
			Clients:       4,
			TxnsPerClient: e.scale(40, 10),
			SitesPerTxn:   2,
			KeysPerSite:   256,
			HotKeys:       16,
			HotProb:       0.5,
			ReadFrac:      0.4,
			AbortProb:     0.15,
			Protocol:      st.protocol,
			Marking:       st.marking,
		})
		audit := cl.Audit()
		e.row("contended mix", st.name, d(int64(audit.EffectiveCount)),
			d(int64(audit.DoomedCount)), d(int64(audit.BenignCount)), b(audit.Correct()))
		e.dumpHistory(cl, "E7-"+st.name)
	}
}

// runE8 — atomicity of compensation (Theorem 2): count readers that
// observed both a forward transaction and its compensation.
func runE8(e *env) {
	iters := e.scale(15, 4)
	e.row("stack", "runs", "Theorem 2 violations")
	for _, marking := range []proto.MarkProtocol{proto.MarkNone, proto.MarkP1} {
		violations := 0
		for i := 0; i < iters; i++ {
			cl, _ := dangerousScenario(marking, e.seed+int64(200+i))
			violations += len(cl.CompensationViolations())
		}
		e.row("O2PC+"+marking.String(), d(int64(iters)), d(int64(violations)))
	}
}

// runE9 — real actions: as the fraction of non-compensatable
// subtransactions grows, O2PC degenerates toward 2PC's lock-hold profile.
func runE9(e *env) {
	fracs := []float64{0, 0.25, 0.5, 1.0}
	e.row("real-action frac", "txn/s", "holdX mean (ms)")
	for _, f := range fracs {
		rep, _ := runLoad(e, core.Config{
			Sites:   4,
			Network: rpc.Config{MinLatency: 500 * time.Microsecond, MaxLatency: 800 * time.Microsecond, Seed: e.seed},
		}, workload.Config{
			Clients:        6,
			TxnsPerClient:  e.scale(50, 12),
			SitesPerTxn:    2,
			KeysPerSite:    1024,
			HotKeys:        64,
			HotProb:        0.6,
			ReadFrac:       0.2,
			Protocol:       proto.O2PC,
			RealActionFrac: f,
		})
		e.row(pct(f), f0(rep.Throughput), ms(rep.LockHoldX.Mean))
	}
	// Reference: pure 2PC.
	rep, _ := runLoad(e, core.Config{
		Sites:   4,
		Network: rpc.Config{MinLatency: 500 * time.Microsecond, MaxLatency: 800 * time.Microsecond, Seed: e.seed},
	}, workload.Config{
		Clients:       6,
		TxnsPerClient: e.scale(50, 12),
		SitesPerTxn:   2,
		KeysPerSite:   1024,
		HotKeys:       64,
		HotProb:       0.6,
		ReadFrac:      0.2,
		Protocol:      proto.TwoPC,
	})
	e.row("(2PC reference)", f0(rep.Throughput), ms(rep.LockHoldX.Mean))
}

// runE10 — scaling with the number of participating sites per transaction.
// More participants mean a longer decision fan-in, so the O2PC advantage
// grows with transaction breadth.
func runE10(e *env) {
	widths := []int{2, 4, 8, 16}
	if e.quick {
		widths = []int{2, 4}
	}
	e.row("sites/txn", "2PC txn/s", "O2PC txn/s", "O2PC+P1 txn/s")
	for _, w := range widths {
		tps := map[string]float64{}
		for _, st := range []stack{st2PC, stO2PC, stO2PCP1} {
			rep, _ := runLoad(e, core.Config{
				Sites:   16,
				Network: rpc.Config{MinLatency: 300 * time.Microsecond, MaxLatency: 500 * time.Microsecond, Seed: e.seed},
			}, workload.Config{
				Clients:       8,
				TxnsPerClient: e.scale(40, 10),
				SitesPerTxn:   w,
				KeysPerSite:   1024,
				HotKeys:       64,
				HotProb:       0.4,
				ReadFrac:      0.3,
				AbortProb:     0.02,
				Protocol:      st.protocol,
				Marking:       st.marking,
			})
			tps[st.name] = rep.Throughput
		}
		e.row(d(int64(w)), f0(tps["2PC"]), f0(tps["O2PC"]), f0(tps["O2PC+P1"]))
	}
}

// runA3 — ablation: P1 vs its dual P2 under commit-heavy and abort-heavy
// mixes. P1 marks aborted transactions (rare under the optimistic
// assumption); P2 marks locally-committed ones (every transaction,
// briefly).
func runA3(e *env) {
	e.row("mix", "stack", "commit rate", "txn/s", "retries", "fatal rejects")
	for _, mix := range []struct {
		name string
		p    float64
	}{{"commit-heavy (2% aborts)", 0.02}, {"abort-heavy (20% aborts)", 0.20}} {
		for _, st := range []stack{stO2PCP1, stO2PCP2, stSimple} {
			rep, _ := runLoad(e, core.Config{Sites: 6}, workload.Config{
				Clients:       6,
				TxnsPerClient: e.scale(50, 12),
				SitesPerTxn:   2,
				KeysPerSite:   512,
				HotKeys:       32,
				HotProb:       0.5,
				ReadFrac:      0.3,
				AbortProb:     mix.p,
				Protocol:      st.protocol,
				Marking:       st.marking,
			})
			e.row(mix.name, st.name, pct(rep.CommitRate), f0(rep.Throughput),
				d(rep.MarkRetries), d(rep.RejectsFatal))
		}
	}
}

// runA4 — extension: the classic read-only exit from the R* lineage the
// paper builds on. A participant whose subtransaction wrote nothing answers
// its VOTE-REQ with READ-ONLY and drops out of the protocol: no
// DECISION/Ack round for it. Every site takes the exit, so the sweep over
// the read share shows the decision round shrinking as more subtransactions
// write nothing; with no reads every participant still gets the decision.
func runA4(e *env) {
	e.row("read frac", "txn/s", "Decision msgs", "Ack msgs", "msgs/txn")
	for _, readFrac := range []float64{0, 0.5, 0.95} {
		cl := e.cluster(core.Config{Sites: 4})
		rep := workload.Run(bg(), cl, workload.Config{
			Seed:          e.seed,
			Clients:       6,
			TxnsPerClient: e.scale(50, 12),
			SitesPerTxn:   3,
			KeysPerSite:   1024,
			ReadFrac:      readFrac,
			AllowReadOnly: true,
			Protocol:      proto.O2PC,
		})
		counts := cl.MessageCounts()
		var total int64
		for _, n := range counts {
			total += n
		}
		perTxn := 0.0
		if n := rep.Committed + rep.Aborted; n > 0 {
			perTxn = float64(total) / float64(n)
		}
		e.row(pct(readFrac), f0(rep.Throughput), d(counts["proto.Decision"]),
			d(counts["proto.Ack"]), ms(perTxn))
	}
}
