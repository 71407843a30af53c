// Package explore drives deterministic schedule exploration: whole cluster
// executions — concurrent transfers, coordinator crashes, site crashes,
// partitions, message loss — run under a virtual clock (internal/sim)
// across seeded fault matrices, and every recorded history is fed to the
// Section 5 verifier. A given (Config, Seed) reproduces the identical
// execution, so a failing run is reported as its seed plus a minimized
// configuration and an event trace rather than as an unreproducible flake.
//
// The oracles checked after each run:
//
//   - conservation: the transfer workload must leave total money unchanged
//     (semantic atomicity, Section 3);
//   - the Section 5 criterion: no local cycles, no effective regular
//     cycles in the global serialization graph;
//   - Theorem 2: no committed transaction read a forward value that
//     compensation later erased;
//   - marking hygiene (Fig. 2): once every decision is delivered and
//     compensation has drained, no locally-committed marks remain, and
//     every surviving undone mark names a globally aborted transaction;
//   - forgetting: once every decision is delivered, no up coordinator
//     keeps a decided entry, and no up coordinator's local decision log a
//     decision, for a transaction every participant acknowledged; and,
//     after one more ballot per replication group carries the leaders'
//     forget queues, no decision-log replica holds an instance an
//     acknowledged accept told it to forget.
package explore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"o2pc/internal/coord"
	"o2pc/internal/core"
	"o2pc/internal/history"
	"o2pc/internal/proto"
	"o2pc/internal/rpc"
	"o2pc/internal/sg"
	"o2pc/internal/sim"
	"o2pc/internal/site"
	"o2pc/internal/storage"
	"o2pc/internal/trace"
)

// Faults selects the failure schedule of one exploration run. The zero
// value injects nothing.
type Faults struct {
	// DropProb is the per-message loss probability.
	DropProb float64
	// CoordCrashCycles crash/recover the last coordinator this many times;
	// CrashSpacing separates the cycles and CrashDowntime is how long the
	// coordinator stays down. Requires at least two coordinators.
	CoordCrashCycles int
	CrashSpacing     time.Duration
	CrashDowntime    time.Duration
	// PartitionCycles sever the c0 -> site link (rotating over sites) for
	// PartitionSpan, then heal it.
	PartitionCycles int
	PartitionSpan   time.Duration
	// SiteCrashCycles crash/recover sites this many times, rotating over
	// the cluster; SiteCrashSpacing separates the cycles and
	// SiteCrashDowntime is how long each site stays down. A crashed site
	// loses all volatile state — pending subtransactions, marking sets,
	// lock tables — and Recover rebuilds it from the WAL, so these cycles
	// exercise exposure records, resumed inquiries and re-run compensation.
	SiteCrashCycles   int
	SiteCrashSpacing  time.Duration
	SiteCrashDowntime time.Duration
	// ReplicaCrashCycles crash/recover decision-log replicas this many
	// times, rotating over the replica group (requires Config.Replicas > 0).
	// Each cycle crashes one replica — a minority, so Paxos Commit keeps
	// deciding — unless ReplicaCrashMajority is set, in which case a full
	// majority goes down at once and in-flight ballots stall until the
	// replicas recover. ReplicaCrashSpacing separates the cycles and
	// ReplicaCrashDowntime is how long the replicas stay down.
	ReplicaCrashCycles   int
	ReplicaCrashSpacing  time.Duration
	ReplicaCrashDowntime time.Duration
	ReplicaCrashMajority bool
	// DoomRate is the probability that a transaction is doomed to a
	// unilateral NO vote at one of its sites.
	DoomRate float64
	// Checkpoints takes this many rounds of WAL checkpoints, each of every
	// site that is up, at seeded instants spread like the site crash
	// cycles (a seeded fraction of SiteCrashSpacing apart), so the
	// crashes recover from checkpointed logs.
	Checkpoints int
}

// Config is one point of the exploration space. Zero fields take the
// defaults documented on each.
type Config struct {
	// Seed drives everything: the workload, the network, the fault timing.
	Seed int64
	// Sites (default 3), Coordinators (default 2), Clients (default 3)
	// set the cluster and driver shape.
	Sites        int
	Coordinators int
	Clients      int
	// Txns is the total number of global transfers (default 24), spread
	// round-robin over the clients; Accounts (default 4) is the number of
	// replicated account keys, each seeded with InitialBalance (default
	// 1000) at every site.
	Txns           int
	Accounts       int
	InitialBalance int64
	// Marking selects the correctness protocol (default P1).
	Marking proto.MarkProtocol
	// TwoPCShare is the fraction of transactions run under baseline 2PC
	// (default 0.2); PaxosShare (default 0) is the fraction run under
	// Paxos Commit; the rest run O2PC. Both draw from one uniform sample
	// per transaction, so schedules with PaxosShare = 0 are byte-identical
	// to those generated before the protocol existed.
	TwoPCShare float64
	PaxosShare float64
	// ReadOnlyShare (default 0) is the fraction of jobs that only read the
	// account at both sites instead of transferring: every participant
	// leaves at its read-only vote, and no decision is delivered. A job
	// draws for it only when the share is positive, so schedules with
	// ReadOnlyShare = 0 are byte-identical to those generated before it
	// existed. Read-only jobs run one-shot even under MultiShot.
	ReadOnlyShare float64
	// Replicas sizes the replicated decision log (see core.Config.Replicas).
	// Defaults to 3 when PaxosShare > 0 and stays 0 — classic local WAL
	// logging — otherwise.
	Replicas int
	// MinLatency/MaxLatency bound one-way message delay (defaults 100µs
	// and 2ms). A nonzero span matters: it spreads timer deadlines so the
	// virtual clock's (when, seq) order is seed-determined.
	MinLatency time.Duration
	MaxLatency time.Duration
	// LockTimeout bounds lock waits at the sites (default 5ms — short, so
	// distributed deadlocks resolve quickly in virtual time).
	LockTimeout time.Duration
	// MultiShot runs every transfer as a multi-shot session instead of a
	// one-shot spec: round 1 reads the source account, round 2 debits it,
	// round 3 credits the destination — with SessionThink of seed-jittered
	// think time before rounds 2 and 3 (default 500µs, applied only when
	// MultiShot is set). Sessions hold their locks across think times, so
	// this schedule stretches lock footprints and R1 re-admission windows.
	MultiShot    bool
	SessionThink time.Duration
	// Faults is the failure schedule.
	Faults Faults
}

func withDefaults(cfg Config) Config {
	if cfg.Sites <= 0 {
		cfg.Sites = 3
	}
	if cfg.Coordinators <= 0 {
		cfg.Coordinators = 2
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 3
	}
	if cfg.Txns <= 0 {
		cfg.Txns = 24
	}
	if cfg.Accounts <= 0 {
		cfg.Accounts = 4
	}
	if cfg.InitialBalance == 0 {
		cfg.InitialBalance = 1000
	}
	if cfg.Marking == proto.MarkNone {
		cfg.Marking = proto.MarkP1
	}
	if cfg.TwoPCShare == 0 {
		cfg.TwoPCShare = 0.2
	}
	if cfg.PaxosShare > 0 && cfg.Replicas == 0 {
		cfg.Replicas = 3
	}
	if cfg.MinLatency == 0 {
		cfg.MinLatency = 100 * time.Microsecond
	}
	if cfg.MaxLatency == 0 {
		cfg.MaxLatency = 2 * time.Millisecond
	}
	if cfg.LockTimeout == 0 {
		cfg.LockTimeout = 5 * time.Millisecond
	}
	if cfg.MultiShot && cfg.SessionThink == 0 {
		cfg.SessionThink = 500 * time.Microsecond
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return cfg
}

// Result reports one exploration run.
type Result struct {
	// Config is the fully-defaulted configuration that ran.
	Config Config
	// Committed/Aborted count global transaction outcomes.
	Committed int
	Aborted   int
	// Total is the summed account balance after quiesce; Expected is what
	// conservation demands.
	Total    int64
	Expected int64
	// History is the recorded execution; Audit its Section 5 verdict.
	History *history.History
	Audit   *sg.Audit
	// Events is the protocol event log of the run (virtual-time ordered),
	// as captured by the cluster tracer. Deterministic for a given Config.
	Events []trace.Event
	// CheckpointedCrashes counts the site crashes that hit a site which
	// had taken a checkpoint since its previous restart.
	CheckpointedCrashes int
	// Forgotten counts the instances the replicas were told to forget, as
	// the acceptor forgetting oracle checked them.
	Forgotten int
	// Failures lists every violated oracle (empty on a correct run).
	Failures []string
}

// Failed reports whether any oracle was violated.
func (r *Result) Failed() bool { return len(r.Failures) > 0 }

func (r *Result) fail(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

func acctKey(a int) string  { return fmt.Sprintf("acct%d", a) }
func siteName(i int) string { return fmt.Sprintf("s%d", i) }

// Run executes one exploration run to completion in virtual time and
// checks every oracle against the recorded history.
func Run(cfg Config) *Result {
	cfg = withDefaults(cfg)
	clock := sim.NewVirtualClock()
	tracer := trace.New(clock, trace.DefaultNodeCapacity)
	cl := core.NewCluster(core.Config{
		Sites:        cfg.Sites,
		Coordinators: cfg.Coordinators,
		Replicas:     cfg.Replicas,
		Record:       true,
		Clock:        clock,
		Tracer:       tracer,
		LockTimeout:  cfg.LockTimeout,
		Network: rpc.Config{
			MinLatency: cfg.MinLatency,
			MaxLatency: cfg.MaxLatency,
			DropProb:   cfg.Faults.DropProb,
			Seed:       cfg.Seed,
		},
	})
	for a := 0; a < cfg.Accounts; a++ {
		cl.SeedInt64(acctKey(a), cfg.InitialBalance)
	}
	forgets := watchForgets(cl)

	// The whole workload is precomputed from the seed before any goroutine
	// starts, so the only randomness live during the run is the network's
	// per-link streams.
	rng := rand.New(rand.NewSource(cfg.Seed))
	type job struct {
		spec     coord.TxnSpec
		doom     string
		coordIdx int
		// rounds and think are the multi-shot session shape: per-round
		// subtransaction batches and the seed-jittered think time that
		// precedes every round after the first. Empty for one-shot jobs.
		rounds [][]coord.SubtxnSpec
		think  time.Duration
	}
	jobs := make([]job, cfg.Txns)
	for i := range jobs {
		from := rng.Intn(cfg.Sites)
		to := rng.Intn(cfg.Sites)
		if to == from {
			to = (from + 1) % cfg.Sites
		}
		amount := int64(1 + rng.Intn(20))
		acct := acctKey(rng.Intn(cfg.Accounts))
		// One uniform draw splits three ways so a PaxosShare of zero
		// consumes the seed stream exactly as the old two-way draw did.
		protocol := proto.O2PC
		switch f := rng.Float64(); {
		case f < cfg.TwoPCShare:
			protocol = proto.TwoPC
		case f < cfg.TwoPCShare+cfg.PaxosShare:
			protocol = proto.Paxos
		}
		debit, credit := proto.AddMin(acct, -amount, 0), proto.Add(acct, amount)
		readOnly := cfg.ReadOnlyShare > 0 && rng.Float64() < cfg.ReadOnlyShare
		if readOnly {
			debit, credit = proto.Read(acct), proto.Read(acct)
		}
		j := job{
			spec: coord.TxnSpec{
				ID:             fmt.Sprintf("x%d", i),
				Protocol:       protocol,
				Marking:        cfg.Marking,
				MarkingRetries: 5,
				Subtxns: []coord.SubtxnSpec{
					{Site: siteName(from), Ops: []proto.Operation{debit}, Comp: proto.CompSemantic},
					{Site: siteName(to), Ops: []proto.Operation{credit}, Comp: proto.CompSemantic},
				},
			},
			coordIdx: rng.Intn(cfg.Coordinators),
		}
		if cfg.MultiShot && !readOnly {
			j.rounds = [][]coord.SubtxnSpec{
				{{Site: siteName(from), Ops: []proto.Operation{proto.Read(acct)}, Comp: proto.CompSemantic}},
				{{Site: siteName(from), Ops: []proto.Operation{proto.AddMin(acct, -amount, 0)}, Comp: proto.CompSemantic}},
				{{Site: siteName(to), Ops: []proto.Operation{proto.Add(acct, amount)}, Comp: proto.CompSemantic}},
			}
			j.think = cfg.SessionThink/2 + time.Duration(rng.Int63n(int64(cfg.SessionThink)+1))
		}
		if cfg.Faults.DoomRate > 0 && rng.Float64() < cfg.Faults.DoomRate {
			j.doom = siteName([]int{from, to}[rng.Intn(2)])
		}
		jobs[i] = j
	}

	// Checkpoint instants are drawn after the workload, and only when
	// asked for, so the runs without them draw exactly what they did.
	var ckptDelays []time.Duration
	for i := 0; i < cfg.Faults.Checkpoints; i++ {
		spacing := cfg.Faults.SiteCrashSpacing
		if spacing <= 0 {
			spacing = 4 * time.Millisecond
		}
		ckptDelays = append(ckptDelays, spacing/2+time.Duration(rng.Int63n(int64(spacing/2)+1)))
	}

	// runJob executes one precomputed job — as a one-shot transaction or,
	// when it has rounds, as a session with think time between them — and
	// reports whether it committed.
	runJob := func(ctx context.Context, j job) bool {
		if j.doom != "" {
			cl.DoomAtSite(j.spec.ID, j.doom)
		}
		if j.rounds == nil {
			return cl.RunAt(ctx, j.coordIdx, j.spec).Committed()
		}
		sess, err := cl.OpenSessionAt(j.coordIdx, coord.SessionSpec{
			ID:             j.spec.ID,
			Protocol:       j.spec.Protocol,
			Marking:        cfg.Marking,
			MarkingRetries: 5,
		})
		if err != nil {
			return false
		}
		for r, round := range j.rounds {
			if r > 0 && clock.Sleep(ctx, j.think) != nil {
				return sess.Abort(ctx).Committed()
			}
			if _, err := sess.Round(ctx, round); err != nil {
				break
			}
		}
		return sess.Commit(ctx).Committed()
	}

	ctx, cancel := clock.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	var committed, aborted atomic.Int64
	clients := sim.NewGroup(clock)
	for c := 0; c < cfg.Clients; c++ {
		c := c
		clients.Go(func() {
			// Distinct start offsets: each client arms a uniquely-timed
			// timer and from then on only runs when its own timer fires,
			// keeping the spawn burst off the shared network streams.
			if clock.Sleep(ctx, time.Duration(c+1)*time.Microsecond) != nil {
				return
			}
			for i := c; i < len(jobs); i += cfg.Clients {
				if runJob(ctx, jobs[i]) {
					committed.Add(1)
				} else {
					aborted.Add(1)
				}
			}
		})
	}

	// Recovery failures anywhere in the fault schedule are oracle-grade
	// evidence (a site that cannot rebuild from its WAL is exactly the bug
	// this matrix hunts), so they are collected and surfaced in the result
	// rather than discarded.
	var recMu sync.Mutex
	var recoveryErrs []string
	recordRecovery := func(what string, err error) {
		if err == nil {
			return
		}
		recMu.Lock()
		recoveryErrs = append(recoveryErrs, fmt.Sprintf("%s: %v", what, err))
		recMu.Unlock()
	}

	// checkpointed[i] is set when site i checkpoints and cleared when it
	// crashes; the crash counts toward CheckpointedCrashes if it was set.
	var ckptMu sync.Mutex
	checkpointed := make([]bool, cfg.Sites)
	checkpointedCrashes := 0

	faults := sim.NewGroup(clock)
	if len(ckptDelays) > 0 {
		faults.Go(func() {
			for _, d := range ckptDelays {
				if clock.Sleep(ctx, d) != nil {
					return
				}
				for i, s := range cl.Sites() {
					err := s.Checkpoint(ctx)
					if errors.Is(err, site.ErrCrashed) {
						continue
					}
					recordRecovery(fmt.Sprintf("checkpoint site s%d", i), err)
					ckptMu.Lock()
					checkpointed[i] = err == nil
					ckptMu.Unlock()
				}
			}
		})
	}
	if n := cfg.Faults.CoordCrashCycles; n > 0 && cfg.Coordinators > 1 {
		target := cfg.Coordinators - 1
		spacing, downtime := cfg.Faults.CrashSpacing, cfg.Faults.CrashDowntime
		if spacing <= 0 {
			spacing = 4 * time.Millisecond
		}
		if downtime <= 0 {
			downtime = 3 * time.Millisecond
		}
		faults.Go(func() {
			for i := 0; i < n; i++ {
				if clock.Sleep(ctx, spacing) != nil {
					return
				}
				cl.CrashCoordinator(target)
				//o2pcvet:ignore errflow -- downtime sleep on a dead context just shortens the outage; recovery below runs regardless
				_ = clock.Sleep(ctx, downtime)
				// Always bring it back, even on a dead context: the final
				// recovery pass needs a live coordinator.
				rctx, rcancel := clock.WithTimeout(context.Background(), time.Minute)
				recordRecovery(fmt.Sprintf("recover coordinator c%d (cycle %d)", target, i),
					cl.RecoverCoordinator(rctx, target))
				rcancel()
			}
		})
	}
	if n := cfg.Faults.SiteCrashCycles; n > 0 {
		spacing, downtime := cfg.Faults.SiteCrashSpacing, cfg.Faults.SiteCrashDowntime
		if spacing <= 0 {
			spacing = 4 * time.Millisecond
		}
		if downtime <= 0 {
			downtime = 3 * time.Millisecond
		}
		faults.Go(func() {
			for i := 0; i < n; i++ {
				if clock.Sleep(ctx, spacing) != nil {
					return
				}
				target := i % cfg.Sites
				ckptMu.Lock()
				if checkpointed[target] {
					checkpointedCrashes++
				}
				checkpointed[target] = false
				ckptMu.Unlock()
				cl.CrashSite(target)
				//o2pcvet:ignore errflow -- downtime sleep on a dead context just shortens the outage; the restart below runs regardless
				_ = clock.Sleep(ctx, downtime)
				// Always restart, even on a dead context: the oracles read
				// every site's post-recovery state.
				rctx, rcancel := clock.WithTimeout(context.Background(), time.Minute)
				recordRecovery(fmt.Sprintf("recover site s%d (cycle %d)", target, i),
					cl.RecoverSite(rctx, target))
				rcancel()
			}
		})
	}
	if n := cfg.Faults.ReplicaCrashCycles; n > 0 && cfg.Replicas > 0 {
		spacing, downtime := cfg.Faults.ReplicaCrashSpacing, cfg.Faults.ReplicaCrashDowntime
		if spacing <= 0 {
			spacing = 4 * time.Millisecond
		}
		if downtime <= 0 {
			downtime = 3 * time.Millisecond
		}
		// One replica per cycle is always a minority (Replicas defaults to
		// 3), so ballots keep reaching quorum; the majority variant takes
		// out floor(n/2)+1 at once, stalling every in-flight ballot until
		// the recovery half of the cycle.
		count := 1
		if cfg.Faults.ReplicaCrashMajority {
			count = cfg.Replicas/2 + 1
		}
		faults.Go(func() {
			for i := 0; i < n; i++ {
				if clock.Sleep(ctx, spacing) != nil {
					return
				}
				for k := 0; k < count; k++ {
					cl.CrashReplica((i + k) % cfg.Replicas)
				}
				//o2pcvet:ignore errflow -- downtime sleep on a dead context just shortens the outage; the restart below runs regardless
				_ = clock.Sleep(ctx, downtime)
				// Always restart, even on a dead context: Paxos liveness
				// needs a majority of replicas back up, and the final
				// recovery pass depends on it.
				for k := 0; k < count; k++ {
					target := (i + k) % cfg.Replicas
					recordRecovery(fmt.Sprintf("recover replica r%d (cycle %d)", target, i),
						cl.RecoverReplica(target))
				}
			}
		})
	}
	if n := cfg.Faults.PartitionCycles; n > 0 {
		span := cfg.Faults.PartitionSpan
		if span <= 0 {
			span = 5 * time.Millisecond
		}
		faults.Go(func() {
			for i := 0; i < n; i++ {
				if clock.Sleep(ctx, span) != nil {
					return
				}
				target := siteName(i % cfg.Sites)
				cl.Network().SetOneWayPartition("c0", target, true)
				//o2pcvet:ignore errflow -- a dead context just shortens the partition window; it must be healed below either way
				_ = clock.Sleep(ctx, span)
				cl.Network().SetOneWayPartition("c0", target, false)
			}
		})
	}
	clients.Wait()
	faults.Wait()
	cancel()

	// Final recovery pass: Recover rebuilds delivery state from the WAL,
	// so this re-sends every logged decision not yet ended (idempotently)
	// and presumes abort for anything still undecided — no participant is
	// left in doubt, no mark is left waiting on an undelivered decision.
	for i := 0; i < cfg.Coordinators; i++ {
		rctx, rcancel := clock.WithTimeout(context.Background(), 2*time.Minute)
		recordRecovery(fmt.Sprintf("final recovery pass, coordinator c%d", i),
			cl.RecoverCoordinator(rctx, i))
		rcancel()
	}

	res := &Result{
		Config:              cfg,
		Committed:           int(committed.Load()),
		Aborted:             int(aborted.Load()),
		Expected:            int64(cfg.Sites*cfg.Accounts) * cfg.InitialBalance,
		CheckpointedCrashes: checkpointedCrashes,
	}
	recMu.Lock()
	for _, e := range recoveryErrs {
		res.fail("recovery error: %s", e)
	}
	recMu.Unlock()

	qctx, qcancel := clock.WithTimeout(context.Background(), 2*time.Minute)
	qerr := cl.Quiesce(qctx)
	qcancel()
	if qerr != nil {
		res.fail("quiesce: %v", qerr)
	}
	res.Events = tracer.Events()

	// Oracle 1: conservation (semantic atomicity).
	for s := 0; s < cfg.Sites; s++ {
		for a := 0; a < cfg.Accounts; a++ {
			res.Total += cl.Site(s).ReadInt64(storage.Key(acctKey(a)))
		}
	}
	if res.Total != res.Expected {
		res.fail("money not conserved: total %d != %d", res.Total, res.Expected)
	}

	// Oracle 2: the Section 5 criterion over the recorded history.
	res.History = cl.History()
	res.Audit = cl.Audit()
	for site, cycle := range res.Audit.LocalCycles {
		res.fail("local cycle at %s: %v", site, cycle)
	}
	if res.Audit.EffectiveCount > 0 {
		for _, c := range res.Audit.Cycles {
			if c.Effective {
				res.fail("effective regular cycle: %+v", c)
			}
		}
	}

	// Oracle 3: Theorem 2, atomicity of compensation.
	for _, v := range cl.CompensationViolations() {
		res.fail("Theorem 2 violation: %+v", v)
	}

	// Oracle 4: Fig. 2 marking hygiene. Every decision has been delivered,
	// so no site may still hold a locally-committed mark, and any undone
	// mark still awaiting UDUM1 unmarking must name an aborted transaction.
	for _, s := range cl.Sites() {
		if lc := s.LCMarks().Snapshot(); len(lc) > 0 {
			res.fail("lc marks remain at %s after all decisions: %v", s.Name(), lc)
		}
		for _, ti := range s.Marks().Snapshot() {
			if res.History.FateOf(ti) != history.FateAborted {
				res.fail("undone mark at %s names %s, which did not abort (fate %v)",
					s.Name(), ti, res.History.FateOf(ti))
			}
		}
	}

	// Oracle 5: forgetting. Every participant has acked every decision, so
	// each coordinator must have ended and forgotten every transaction.
	for i, c := range cl.Coordinators() {
		if c.Crashed() {
			continue
		}
		if ids := c.Unforgotten(); len(ids) > 0 {
			res.fail("coordinator c%d still keeps %d fully-acknowledged transactions: %v", i, len(ids), ids)
		}
	}

	if res.Committed+res.Aborted != cfg.Txns {
		res.fail("outcome count mismatch: %d committed + %d aborted != %d txns",
			res.Committed, res.Aborted, cfg.Txns)
	}

	// Oracle 6: forgetting at the acceptors. The leaders' forget queues
	// ride the next accept, so each group runs one more ballot (after the
	// trace and history were taken: it is no part of the schedule). Then
	// no replica may hold an instance it was told to forget.
	if len(cl.Replicas()) > 0 {
		for i := range cl.Coordinators() {
			bctx, bcancel := clock.WithTimeout(context.Background(), time.Minute)
			cl.RunAt(bctx, i, coord.TxnSpec{
				ID:       fmt.Sprintf("forget-probe-c%d", i),
				Protocol: proto.Paxos,
				Subtxns: []coord.SubtxnSpec{{Site: siteName(0),
					Ops: []proto.Operation{proto.Add("forget-probe", 1)}, Comp: proto.CompSemantic}},
			})
			bcancel()
		}
		for i, r := range cl.Replicas() {
			told := forgets.told(i)
			res.Forgotten += len(told)
			for _, k := range told {
				if r.Holds(k.group, k.txnID) {
					res.fail("replica %s still holds %s/%s, which it was told to forget", r.Name(), k.group, k.txnID)
				}
			}
		}
	}
	cl.Close()
	return res
}

// instance names one group's consensus instance at a replica.
type instance struct{ group, txnID string }

// forgetWatch records, per replica, the instances an acknowledged accept
// told it to forget and no later acknowledged accept re-created.
type forgetWatch struct {
	mu     sync.Mutex
	forgot []map[instance]bool
}

// watchForgets wraps every replica's handler in cl's network so the
// acceptor forgetting oracle sees what each replica was told.
func watchForgets(cl *core.Cluster) *forgetWatch {
	w := &forgetWatch{}
	for i, r := range cl.Replicas() {
		w.forgot = append(w.forgot, make(map[instance]bool))
		h := r.Handle
		cl.Network().Register(r.Name(), func(ctx context.Context, from string, req any) (any, error) {
			resp, err := h(ctx, from, req)
			acc, isAccept := req.(proto.RepAccept)
			if rep, ok := resp.(proto.RepReply); err == nil && isAccept && ok && rep.OK {
				w.mu.Lock()
				for _, id := range acc.Forget {
					w.forgot[i][instance{acc.Group, id}] = true
				}
				delete(w.forgot[i], instance{acc.Group, acc.TxnID})
				w.mu.Unlock()
			}
			return resp, err
		})
	}
	return w
}

// told returns, in order, the instances replica i was told to forget.
func (w *forgetWatch) told(i int) []instance {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]instance, 0, len(w.forgot[i]))
	for k := range w.forgot[i] {
		out = append(out, k)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].group != out[b].group {
			return out[a].group < out[b].group
		}
		return out[a].txnID < out[b].txnID
	})
	return out
}

// CanonicalJSON renders a history with its ops in (site, seq) order. The
// recorder's flat slice interleaves sites in append order; the per-site
// orders and the read-from edges — everything the verifier consumes — are
// what determinism promises, so histories are compared in this form.
func CanonicalJSON(h *history.History) ([]byte, error) {
	cp := &history.History{
		Ops:  append([]history.Op(nil), h.Ops...),
		Txns: h.Txns,
	}
	sortOps(cp.Ops)
	var buf bytes.Buffer
	if err := history.WriteJSON(&buf, cp); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func sortOps(ops []history.Op) {
	sort.SliceStable(ops, func(i, j int) bool {
		if ops[i].Site != ops[j].Site {
			return ops[i].Site < ops[j].Site
		}
		return ops[i].Seq < ops[j].Seq
	})
}

// Minimize greedily shrinks a failing configuration — halving the
// workload, dropping clients, removing fault classes — as long as the
// oracles still fail, and returns the smallest still-failing Config. The
// input is returned unchanged if it does not fail (or no longer fails).
func Minimize(cfg Config) Config {
	cfg = withDefaults(cfg)
	if !Run(cfg).Failed() {
		return cfg
	}
	for changed := true; changed; {
		changed = false
		for _, cand := range shrinkCandidates(cfg) {
			if Run(cand).Failed() {
				cfg = cand
				changed = true
				break
			}
		}
	}
	return cfg
}

func shrinkCandidates(c Config) []Config {
	var out []Config
	if c.Txns > 1 {
		d := c
		d.Txns = c.Txns / 2
		out = append(out, d)
	}
	if c.Clients > 1 {
		d := c
		d.Clients = c.Clients - 1
		out = append(out, d)
	}
	if c.Faults.DropProb > 0 {
		d := c
		d.Faults.DropProb = 0
		out = append(out, d)
	}
	if c.Faults.PartitionCycles > 0 {
		d := c
		d.Faults.PartitionCycles = 0
		out = append(out, d)
	}
	if c.Faults.Checkpoints > 0 {
		d := c
		d.Faults.Checkpoints = 0
		out = append(out, d)
	}
	if c.Faults.CoordCrashCycles > 0 {
		d := c
		d.Faults.CoordCrashCycles = 0
		out = append(out, d)
	}
	if c.Faults.SiteCrashCycles > 0 {
		d := c
		d.Faults.SiteCrashCycles = 0
		out = append(out, d)
	}
	if c.Faults.ReplicaCrashCycles > 0 {
		d := c
		d.Faults.ReplicaCrashCycles = 0
		d.Faults.ReplicaCrashMajority = false
		out = append(out, d)
	}
	if c.PaxosShare > 0 {
		d := c
		d.PaxosShare = 0
		d.Replicas = 0
		d.Faults.ReplicaCrashCycles = 0
		d.Faults.ReplicaCrashMajority = false
		out = append(out, d)
	}
	if c.Faults.DoomRate > 0 {
		d := c
		d.Faults.DoomRate = 0
		out = append(out, d)
	}
	if c.ReadOnlyShare > 0 {
		d := c
		d.ReadOnlyShare = 0
		out = append(out, d)
	}
	if c.MultiShot {
		d := c
		d.MultiShot = false
		d.SessionThink = 0
		out = append(out, d)
	}
	return out
}

// Trace renders a result as a replayable report: the seed and oracle
// failures, then the per-site event sequences and every transaction's
// fate.
func Trace(res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d marking=%d committed=%d aborted=%d total=%d/%d\n",
		res.Config.Seed, res.Config.Marking, res.Committed, res.Aborted, res.Total, res.Expected)
	for _, f := range res.Failures {
		fmt.Fprintf(&b, "FAIL: %s\n", f)
	}
	if res.History == nil {
		return b.String()
	}
	ops := append([]history.Op(nil), res.History.Ops...)
	sortOps(ops)
	for _, op := range ops {
		typ := "r"
		if op.Type == history.OpWrite {
			typ = "w"
		}
		fmt.Fprintf(&b, "%s #%-3d %s %s %s", op.Site, op.Seq, op.Txn, typ, op.Key)
		if op.ReadFrom != "" {
			fmt.Fprintf(&b, " <- %s", op.ReadFrom)
		}
		b.WriteByte('\n')
	}
	ids := make([]string, 0, len(res.History.Txns))
	for id := range res.History.Txns {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		fmt.Fprintf(&b, "%s: %v\n", id, res.History.Txns[id].Fate)
	}
	if len(res.Events) > 0 {
		b.WriteString("protocol events:\n")
		t0 := res.Events[0].T
		for _, ev := range res.Events {
			fmt.Fprintf(&b, "+%-9s %-3s %-18s", time.Duration(ev.T-t0), ev.Node, ev.Type)
			if ev.Txn != "" {
				fmt.Fprintf(&b, " txn=%s", ev.Txn)
			}
			if ev.Peer != "" {
				fmt.Fprintf(&b, " peer=%s", ev.Peer)
			}
			if ev.Detail != "" {
				fmt.Fprintf(&b, " %q", ev.Detail)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// EventsJSONL serializes a result's protocol event log as JSON lines —
// the byte-stable form the determinism contract is checked against.
func EventsJSONL(res *Result) ([]byte, error) {
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, res.Events); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
