package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"o2pc/internal/coord"
	"o2pc/internal/core"
	"o2pc/internal/history"
	"o2pc/internal/proto"
	"o2pc/internal/rpc"
	"o2pc/internal/sim"
	"o2pc/internal/trace"
	"o2pc/internal/workload"
)

func bg() context.Context { return context.Background() }

// stack names a protocol combination under test.
type stack struct {
	name     string
	protocol proto.Protocol
	marking  proto.MarkProtocol
}

var (
	st2PC    = stack{"2PC", proto.TwoPC, proto.MarkNone}
	stO2PC   = stack{"O2PC", proto.O2PC, proto.MarkNone}
	stO2PCP1 = stack{"O2PC+P1", proto.O2PC, proto.MarkP1}
	stO2PCP2 = stack{"O2PC+P2", proto.O2PC, proto.MarkP2}
	stSimple = stack{"O2PC+simple", proto.O2PC, proto.MarkSimple}
	stPaxos  = stack{"Paxos", proto.Paxos, proto.MarkNone}
)

// cluster builds a core cluster. The first cluster built under
// -trace/-metrics gets the tracer attached and its stats adopted into the
// artifacts registry (adoption shares the live instruments, so counts
// accumulated after this call are exposed too).
func (e *env) cluster(cfg core.Config) *core.Cluster {
	if e.art != nil && !e.art.used {
		e.art.used = true
		e.art.tracer = trace.New(sim.OrReal(cfg.Clock), trace.DefaultNodeCapacity)
		cfg.Tracer = e.art.tracer
		cl := core.NewCluster(cfg)
		cl.PublishMetrics(e.art.reg)
		return cl
	}
	return core.NewCluster(cfg)
}

// runLoad builds a cluster with cfgCluster, runs the workload, and returns
// the report (and the cluster for further inspection). The global hostile-
// workload flags (-multishot, -zipf-s, -burst, -read-frac) are applied
// unless the experiment pinned the corresponding field itself.
func runLoad(e *env, cfgCluster core.Config, cfgLoad workload.Config) (workload.Report, *core.Cluster) {
	if cfgLoad.Seed == 0 {
		cfgLoad.Seed = e.seed
	}
	cfgLoad = applyHostileFlags(e, cfgLoad)
	cl := e.cluster(cfgCluster)
	rep := workload.Run(bg(), cl, cfgLoad)
	return rep, cl
}

// applyHostileFlags merges the global hostile-workload flags into a
// workload config: flags fill fields the experiment left zero, experiment
// pins win, and -read-frac (>= 0) always wins because zero is a meaningful
// read fraction.
func applyHostileFlags(e *env, cfg workload.Config) workload.Config {
	if e.multishot > 0 && cfg.Rounds == 0 {
		cfg.Rounds = e.multishot
	}
	if e.zipfS > 1 && cfg.ZipfS == 0 {
		cfg.ZipfS = e.zipfS
	}
	if e.burst > 0 && cfg.BurstSize == 0 {
		cfg.BurstSize = e.burst
		if cfg.BurstGap == 0 {
			cfg.BurstGap = 200 * time.Microsecond
		}
	}
	if e.readFrac >= 0 {
		cfg.ReadFrac = e.readFrac
	}
	return cfg
}

// scale shrinks a count in quick mode.
func (e *env) scale(full, quick int) int {
	if e.quick {
		return quick
	}
	return full
}

// dumpHistory writes the cluster's recorded history for sgcheck.
func (e *env) dumpHistory(cl *core.Cluster, name string) {
	if e.dump == "" {
		return
	}
	h := cl.History()
	if h == nil {
		return
	}
	path := filepath.Join(e.dump, name+".json")
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "o2pc-bench: dump:", err)
		return
	}
	defer f.Close()
	if err := history.WriteJSON(f, h); err != nil {
		fmt.Fprintln(os.Stderr, "o2pc-bench: dump:", err)
	}
}

// quiesce drains a cluster with a bounded wait.
func quiesce(cl *core.Cluster) {
	ctx, cancel := context.WithTimeout(bg(), 30*time.Second)
	defer cancel()
	//o2pcvet:ignore errflow -- best-effort drain bounded by the timeout; the next experiment re-seeds regardless
	_ = cl.Quiesce(ctx)
}

// dangerousScenario reproduces the Section 4 interleaving (experiments F1,
// E7, E8): transaction Ta writes at two sites; one site votes NO and rolls
// back; the coordinator crashes before the abort decision, leaving the
// other site's update exposed; a reader transaction Tb then observes the
// exposed update at one site and the rolled-back state at the other; the
// recovered coordinator's presumed abort finally compensates the exposed
// site — after the reader. Without P1 this yields a regular cycle
// (Tb -> CTa at one site, CTa -> Tb at the other) and a Theorem 2
// violation; under P1 the reader is refused.
//
// Returns the cluster (quiesced, history recorded) and the reader's
// outcome.
func dangerousScenario(marking proto.MarkProtocol, seed int64) (*core.Cluster, coord.Result) {
	cl := core.NewCluster(core.Config{
		Sites:        2,
		Coordinators: 2,
		Record:       true,
		Network:      rpc.Config{Seed: seed},
	})
	cl.SeedInt64("x", 100)
	cl.SeedInt64("y", 100)

	cl.Coordinator(0).SetCrashInjector(func(id string, phase coord.CrashPhase) bool {
		return id == "Ta" && phase == coord.CrashAfterVotes
	})
	cl.DoomAtSite("Ta", "s1")
	cl.Run(bg(), coord.TxnSpec{
		ID: "Ta", Protocol: proto.O2PC, Marking: marking,
		Subtxns: []coord.SubtxnSpec{
			{Site: "s0", Ops: []proto.Operation{proto.Add("x", 5)}, Comp: proto.CompSemantic},
			{Site: "s1", Ops: []proto.Operation{proto.Add("y", 5)}, Comp: proto.CompSemantic},
		},
	})

	reader := cl.RunAt(bg(), 1, coord.TxnSpec{
		ID: "Tb", Protocol: proto.O2PC, Marking: marking,
		Subtxns: []coord.SubtxnSpec{
			{Site: "s0", Ops: []proto.Operation{proto.Read("x"), proto.Add("sum", 1)}, Comp: proto.CompSemantic},
			{Site: "s1", Ops: []proto.Operation{proto.Read("y"), proto.Add("sum", 1)}, Comp: proto.CompSemantic},
		},
	})

	//o2pcvet:ignore errflow -- bench harness: the scenario's assertions observe the recovered state directly
	_ = cl.RecoverCoordinator(bg(), 0)
	quiesce(cl)
	return cl, reader
}

func pct(x float64) string       { return fmt.Sprintf("%.1f%%", 100*x) }
func ms(x float64) string        { return fmt.Sprintf("%.3f", x) }
func f0(x float64) string        { return fmt.Sprintf("%.0f", x) }
func f1(x float64) string        { return fmt.Sprintf("%.1f", x) }
func d(x int64) string           { return fmt.Sprintf("%d", x) }
func b(x bool) string            { return fmt.Sprintf("%v", x) }
func dur(x time.Duration) string { return x.Round(10 * time.Microsecond).String() }
