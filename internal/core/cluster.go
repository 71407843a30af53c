// Package core assembles the full system — sites, coordinators, simulated
// network, marking board, history recorder — into a runnable multidatabase
// cluster, and is the engine behind the public o2pc package.
//
// A Cluster is the paper's distributed environment in miniature: N
// autonomous site DBMSs (package site) joined by a message network
// (package rpc), with one or more coordinators (package coord) processing
// global transactions under either distributed-2PL 2PC (the baseline) or
// the optimistic O2PC protocol, optionally layered with marking protocol
// P1 or P2. Failure injection (site crash, coordinator crash, link
// partition) and the Section 5 verifier are first-class operations so
// every experiment in EXPERIMENTS.md can be expressed against this one
// type.
package core

import (
	"context"
	"fmt"
	"time"

	"o2pc/internal/compensate"
	"o2pc/internal/coord"
	"o2pc/internal/history"
	"o2pc/internal/marking"
	"o2pc/internal/metrics"
	"o2pc/internal/replog"
	"o2pc/internal/rpc"
	"o2pc/internal/sg"
	"o2pc/internal/sim"
	"o2pc/internal/site"
	"o2pc/internal/storage"
	"o2pc/internal/trace"
	"o2pc/internal/txn"
)

// Config parameterizes a Cluster.
type Config struct {
	// Sites is the number of participant DBMSs (default 3). Site node
	// names are "s0", "s1", ....
	Sites int
	// Coordinators is the number of coordinator nodes (default 1), named
	// "c0", "c1", ....
	Coordinators int
	// Replicas is the number of decision-log replicas, named "r0", "r1",
	// .... When positive every coordinator runs Paxos Commit over them (a
	// replog.Leader replaces the local decision log); zero keeps the
	// classic single-coordinator log. Use an odd count — a majority must
	// be reachable for decisions to land.
	Replicas int
	// Network configures the simulated transport (latency, loss, seed).
	Network rpc.Config
	// Record enables history capture for the Section 5 verifier. Leave it
	// on except in throughput-sensitive benchmarks.
	Record bool
	// Compensators registers custom compensators at every site.
	Compensators *compensate.Registry
	// ResolvePeriod tunes the blocked-participant inquiry period.
	ResolvePeriod time.Duration
	// LockTimeout tunes the distributed-deadlock lock-wait timeout at the
	// sites (see site.Config.LockTimeout).
	LockTimeout time.Duration
	// Clock drives every timer in the cluster — network latency, lock
	// timeouts, retry backoffs, resolver periods. Nil defaults to the real
	// clock; pass a sim.VirtualClock for deterministic simulation.
	Clock sim.Clock
	// Tracer, when non-nil, records every protocol step — coordinator
	// rounds, site votes and local commits, WAL appends, network messages,
	// compensation runs — as a deterministic virtual-time event log. The
	// same tracer is shared by every node so Events() yields a single
	// totally-ordered timeline.
	Tracer *trace.Tracer
}

// Cluster is a complete in-process multidatabase.
type Cluster struct {
	cfg      Config
	clock    sim.Clock
	network  *rpc.Network
	sites    []*site.Site
	coords   []*coord.Coordinator
	replicas []*replog.Replica // decision-log replicas (empty unless Replicas > 0)
	leaders  []*replog.Leader  // per-coordinator, parallel to coords (empty unless Replicas > 0)
	recorder *history.Recorder
	board    *marking.Board

	doomed doomedSet
}

// NewCluster assembles and wires a cluster.
func NewCluster(cfg Config) *Cluster {
	if cfg.Sites <= 0 {
		cfg.Sites = 3
	}
	if cfg.Coordinators <= 0 {
		cfg.Coordinators = 1
	}
	clock := sim.OrReal(cfg.Clock)
	if cfg.Network.Clock == nil {
		cfg.Network.Clock = clock
	}
	if cfg.Network.Tracer == nil {
		cfg.Network.Tracer = cfg.Tracer
	}
	cl := &Cluster{
		cfg:     cfg,
		clock:   clock,
		network: rpc.NewNetwork(cfg.Network),
		board:   marking.NewBoard(),
	}
	if cfg.Record {
		cl.recorder = history.NewRecorder()
	}
	cl.doomed.init()

	for i := 0; i < cfg.Sites; i++ {
		name := fmt.Sprintf("s%d", i)
		s := site.NewSite(site.Config{
			Name:          name,
			Compensators:  cfg.Compensators,
			Recorder:      cl.recorder,
			ResolvePeriod: cfg.ResolvePeriod,
			LockTimeout:   cfg.LockTimeout,
			Clock:         clock,
			Tracer:        cfg.Tracer,
		})
		s.SetCaller(cl.network)
		s.SetVoteAbortInjector(cl.doomed.injectorFor(name))
		cl.network.Register(name, s.Handle)
		cl.sites = append(cl.sites, s)
	}
	siteNames := cl.SiteNames()
	var replicaNames []string
	for i := 0; i < cfg.Replicas; i++ {
		name := fmt.Sprintf("r%d", i)
		r, err := replog.NewReplica(replog.ReplicaConfig{Name: name, Tracer: cfg.Tracer})
		if err != nil {
			panic(fmt.Sprintf("core: fresh replica %s failed to recover: %v", name, err))
		}
		cl.network.Register(name, r.Handle)
		cl.replicas = append(cl.replicas, r)
		replicaNames = append(replicaNames, name)
	}
	for i := 0; i < cfg.Coordinators; i++ {
		name := fmt.Sprintf("c%d", i)
		var dlog coord.DecisionLog
		if cfg.Replicas > 0 {
			leader := replog.NewLeader(replog.Config{
				Group:    name,
				Replicas: replicaNames,
				Caller:   cl.network,
				Clock:    clock,
				Tracer:   cfg.Tracer,
			})
			cl.leaders = append(cl.leaders, leader)
			dlog = leader
		}
		c := coord.New(coord.Config{
			Name:        name,
			IDPrefix:    prefixFor(i),
			Recorder:    cl.recorder,
			Board:       cl.board,
			Clock:       clock,
			Tracer:      cfg.Tracer,
			DecisionLog: dlog,
			Sites:       siteNames,
		}, cl.network)
		cl.network.Register(name, c.Handle)
		cl.coords = append(cl.coords, c)
	}
	return cl
}

// prefixFor gives coordinator i a distinct transaction-ID prefix;
// coordinator 0 uses none so single-coordinator IDs read "T1", "T2", ...
func prefixFor(i int) string {
	if i == 0 {
		return ""
	}
	return fmt.Sprintf("c%d.", i)
}

// Network exposes the simulated transport (failure injection, message
// census).
func (cl *Cluster) Network() *rpc.Network { return cl.network }

// Close releases the coordinators' decision-log resources. Safe to skip
// for short-lived test clusters.
func (cl *Cluster) Close() {
	for _, c := range cl.coords {
		c.Close()
	}
}

// Clock returns the cluster's clock (the real clock unless a virtual one
// was configured).
func (cl *Cluster) Clock() sim.Clock { return cl.clock }

// Sites returns the participant list.
func (cl *Cluster) Sites() []*site.Site { return cl.sites }

// Site returns participant i.
func (cl *Cluster) Site(i int) *site.Site { return cl.sites[i] }

// SiteNames returns every participant node name, in index order.
func (cl *Cluster) SiteNames() []string {
	out := make([]string, len(cl.sites))
	for i, s := range cl.sites {
		out[i] = s.Name()
	}
	return out
}

// Coordinator returns coordinator i (0 is the default).
func (cl *Cluster) Coordinator(i int) *coord.Coordinator { return cl.coords[i] }

// Coordinators returns all coordinators.
func (cl *Cluster) Coordinators() []*coord.Coordinator { return cl.coords }

// Replicas returns the decision-log replicas (empty unless the cluster
// runs a replicated decision log).
func (cl *Cluster) Replicas() []*replog.Replica { return cl.replicas }

// Board returns the shared marking board.
func (cl *Cluster) Board() *marking.Board { return cl.board }

// Recorder returns the history recorder (nil when Record is off).
func (cl *Cluster) Recorder() *history.Recorder { return cl.recorder }

// Tracer returns the cluster's tracer (nil when tracing is off).
func (cl *Cluster) Tracer() *trace.Tracer { return cl.cfg.Tracer }

// Run executes one global transaction through coordinator 0.
func (cl *Cluster) Run(ctx context.Context, spec coord.TxnSpec) coord.Result {
	return cl.coords[0].Run(ctx, spec)
}

// RunAt executes one global transaction through a specific coordinator.
func (cl *Cluster) RunAt(ctx context.Context, coordIdx int, spec coord.TxnSpec) coord.Result {
	return cl.coords[coordIdx].Run(ctx, spec)
}

// OpenSession opens a multi-shot session through coordinator 0.
func (cl *Cluster) OpenSession(spec coord.SessionSpec) (*coord.Session, error) {
	return cl.coords[0].OpenSession(spec)
}

// OpenSessionAt opens a multi-shot session through a specific coordinator.
func (cl *Cluster) OpenSessionAt(coordIdx int, spec coord.SessionSpec) (*coord.Session, error) {
	return cl.coords[coordIdx].OpenSession(spec)
}

// RunLocal executes a local transaction directly at site i, outside every
// global protocol (site autonomy).
func (cl *Cluster) RunLocal(ctx context.Context, siteIdx int, fn func(t *txn.Txn) error) error {
	return cl.sites[siteIdx].RunLocal(ctx, fn)
}

// SeedInt64 installs an initial integer value at every site under the same
// key (bootstrap convenience).
func (cl *Cluster) SeedInt64(key string, v int64) {
	for _, s := range cl.sites {
		s.SeedInt64(storage.Key(key), v)
	}
}

// SeedSiteInt64 installs an initial integer value at one site.
func (cl *Cluster) SeedSiteInt64(siteIdx int, key string, v int64) {
	cl.sites[siteIdx].SeedInt64(storage.Key(key), v)
}

// History snapshots the recorded execution (nil without Record).
func (cl *Cluster) History() *history.History {
	if cl.recorder == nil {
		return nil
	}
	return cl.recorder.Snapshot()
}

// Audit runs the Section 5 verifier over the recorded history.
func (cl *Cluster) Audit() *sg.Audit {
	h := cl.History()
	if h == nil {
		return nil
	}
	return sg.AuditHistory(h, 0, 0)
}

// CompensationViolations runs the Theorem 2 (atomicity of compensation)
// check over the recorded history, reporting violations whose reader was
// not aborted — the enforceable form of the theorem (use package sg
// directly for the unfiltered list including doomed readers).
func (cl *Cluster) CompensationViolations() []sg.CompensationViolation {
	h := cl.History()
	if h == nil {
		return nil
	}
	return sg.CommittedViolations(sg.CheckCompensationAtomicity(h))
}

// ---- Failure injection ----

// CrashCoordinator takes coordinator i off the network and marks it
// crashed; in-flight transactions stall exactly as a real coordinator
// failure would cause.
func (cl *Cluster) CrashCoordinator(i int) {
	c := cl.coords[i]
	c.SetCrashInjector(func(string, coord.CrashPhase) bool { return true })
	cl.network.SetDown(c.Name(), true)
}

// RecoverCoordinator restores coordinator i: presumed-abort for undecided
// transactions and re-delivery of logged decisions.
func (cl *Cluster) RecoverCoordinator(ctx context.Context, i int) error {
	c := cl.coords[i]
	c.SetCrashInjector(nil)
	cl.network.SetDown(c.Name(), false)
	return c.Recover(ctx)
}

// CrashReplica kills decision-log replica i: it drops its volatile
// acceptor state and leaves the network. Its WAL survives for Recover.
func (cl *Cluster) CrashReplica(i int) {
	r := cl.replicas[i]
	cl.network.SetDown(r.Name(), true)
	r.Crash()
}

// RecoverReplica rebuilds replica i from its WAL and rejoins it.
func (cl *Cluster) RecoverReplica(i int) error {
	r := cl.replicas[i]
	if err := r.Recover(); err != nil {
		return err
	}
	cl.network.SetDown(r.Name(), false)
	return nil
}

// CrashSite takes site i off the network and fails its handlers.
func (cl *Cluster) CrashSite(i int) {
	s := cl.sites[i]
	s.SetCrashed(true)
	cl.network.SetDown(s.Name(), true)
}

// RecoverSite restores site i from its WAL.
func (cl *Cluster) RecoverSite(ctx context.Context, i int) error {
	s := cl.sites[i]
	cl.network.SetDown(s.Name(), false)
	_, err := s.Recover(ctx)
	return err
}

// DoomAtSite arranges for the named site to vote NO on the given
// transaction — the controlled unilateral abort used by workloads to sweep
// the abort rate.
func (cl *Cluster) DoomAtSite(txnID, siteName string) {
	cl.doomed.doom(txnID, siteName)
}

// PublishMetrics adopts every node's stats — coordinator, site and replica
// counters, gauges, and latency histograms, plus the network's
// per-message-type census — into reg for Prometheus-style text exposition.
func (cl *Cluster) PublishMetrics(reg *metrics.Registry) {
	for _, c := range cl.coords {
		c.Stats().Publish(reg, "o2pc_coord_"+c.Name()+"_")
	}
	for i, l := range cl.leaders {
		l.Stats().Publish(reg, "o2pc_coord_"+cl.coords[i].Name()+"_replog_")
	}
	for _, s := range cl.sites {
		s.Stats().Publish(reg, "o2pc_site_"+s.Name()+"_")
	}
	for _, r := range cl.replicas {
		r.Stats().Publish(reg, "o2pc_replica_", r.Name())
	}
	net := cl.network.Counts()
	for _, name := range net.CounterNames() {
		reg.Adopt("o2pc_net_msgs_total_"+name, net.Counter(name))
	}
}

// MessageCounts returns the per-message-type census (experiment E6):
// counter names are the proto type names.
func (cl *Cluster) MessageCounts() map[string]int64 {
	reg := cl.network.Counts()
	out := make(map[string]int64)
	for _, name := range reg.CounterNames() {
		out[name] = reg.Counter(name).Value()
	}
	return out
}

// Quiesce waits until no site has active transactions and no coordinator
// is mid-delivery, bounded by the context. Used by audits so compensation
// has fully completed before the history snapshot.
func (cl *Cluster) Quiesce(ctx context.Context) error {
	for {
		busy := false
		for _, s := range cl.sites {
			if s.Manager().ActiveCount() > 0 {
				busy = true
				break
			}
		}
		if !busy {
			return nil
		}
		if err := cl.clock.Sleep(ctx, time.Millisecond); err != nil {
			return err
		}
	}
}

// Leader returns coordinator i's replication leader (nil unless the
// cluster runs a replicated decision log).
func (cl *Cluster) Leader(i int) *replog.Leader {
	if len(cl.leaders) == 0 {
		return nil
	}
	return cl.leaders[i]
}
