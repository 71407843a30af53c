// Package workload generates and drives transaction mixes against a
// cluster, producing the measurements every experiment table is built
// from.
//
// A workload is a population of global transactions (plus an optional
// stream of independent local transactions per site), with controlled
// knobs for the quantities the paper's claims depend on: data contention
// (hot-set size and hot-access probability, or a Zipf skew), the number of
// sites each transaction touches, the read/write mix, and — critically —
// the probability that a transaction is doomed to a unilateral NO vote,
// which is the axis of the optimistic-assumption crossover (experiment
// E4).
package workload

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"o2pc/internal/coord"
	"o2pc/internal/core"
	"o2pc/internal/metrics"
	"o2pc/internal/proto"
	"o2pc/internal/sim"
	"o2pc/internal/storage"
	"o2pc/internal/txn"
)

// Config parameterizes one workload run.
type Config struct {
	// Seed drives all workload randomness (deterministic by default).
	Seed int64
	// Clients is the number of concurrent client goroutines issuing
	// global transactions.
	Clients int
	// TxnsPerClient is each client's transaction count.
	TxnsPerClient int
	// SitesPerTxn is how many distinct sites each transaction touches.
	SitesPerTxn int
	// OpsPerSite is the number of operations per subtransaction.
	OpsPerSite int
	// KeysPerSite is the per-site keyspace size.
	KeysPerSite int
	// HotKeys and HotProb model contention: with probability HotProb an
	// access targets one of HotKeys hot keys, otherwise the cold range.
	// HotKeys=0 disables the hot set (uniform access).
	HotKeys int
	HotProb float64
	// ZipfS, when > 1, replaces the hot-set model with a Zipf(s) skew
	// over the keyspace.
	ZipfS float64
	// ReadFrac is the fraction of operations that are reads; the rest are
	// Add read-modify-writes.
	ReadFrac float64
	// AbortProb is the probability that a transaction is doomed: one of
	// its sites (chosen uniformly) votes NO.
	AbortProb float64
	// LocalTxnsPerSite, when > 0, runs that many independent local
	// transactions per site concurrently with the global load (autonomy
	// and E5's "local transactions are unaffected" measurement).
	LocalTxnsPerSite int
	// Protocol, Marking and Comp select the protocol stack under test.
	Protocol proto.Protocol
	Marking  proto.MarkProtocol
	Comp     proto.CompMode
	// AllowReadOnly permits subtransactions with no writes (by default
	// every subtransaction is guaranteed at least one write so aborts
	// exercise compensation at every site).
	AllowReadOnly bool
	// RealActionFrac is the fraction of subtransactions flagged CompNone
	// (real actions that retain locks even under O2PC; experiment E9).
	RealActionFrac float64

	// Rounds, when > 1, switches clients to multi-shot sessions: each
	// "transaction" is a session of that many read/write rounds against the
	// cluster, held open across think times, then driven through the
	// ordinary commit point. Rounds <= 1 keeps the classic one-shot shape.
	Rounds int
	// ThinkTime is the client think time before each session round.
	ThinkTime time.Duration
	// BurstSize and BurstGap model flash-crowd arrival: after every
	// BurstSize transactions (or sessions) a client pauses BurstGap, so
	// clients slam the cluster in synchronized waves. BurstSize=0 disables
	// bursting (smooth arrivals).
	BurstSize int
	BurstGap  time.Duration
}

// seedValue is the initial value of every key, large enough that AddMin
// never fires spuriously.
const seedValue = 1 << 40

// withDefaults fills zero fields and clamps hostile values (negative
// counts would panic the RNG) so fuzzed configs are safe to run.
func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Clients <= 0 {
		c.Clients = 8
	}
	if c.TxnsPerClient <= 0 {
		c.TxnsPerClient = 50
	}
	if c.SitesPerTxn <= 0 {
		c.SitesPerTxn = 2
	}
	if c.OpsPerSite <= 0 {
		c.OpsPerSite = 2
	}
	if c.KeysPerSite <= 0 {
		c.KeysPerSite = 1024
	}
	if c.HotKeys < 0 {
		c.HotKeys = 0
	}
	if c.HotKeys > c.KeysPerSite {
		c.HotKeys = c.KeysPerSite
	}
	if c.Protocol == 0 {
		c.Protocol = proto.O2PC
	}
	if c.Comp == 0 {
		c.Comp = proto.CompSemantic
	}
	if c.Rounds < 0 {
		c.Rounds = 0
	}
	return c
}

// Report summarizes one workload run.
type Report struct {
	Config  Config
	Elapsed time.Duration

	Committed   int64
	Aborted     int64
	MarkRetries int64

	// Throughput is committed transactions per second.
	Throughput float64
	// CommitRate is Committed / (Committed + Aborted).
	CommitRate float64

	// Latency summarizes committed-transaction latency (ms).
	Latency metrics.Summary
	// LockHoldX summarizes exclusive-lock hold times across sites (ms).
	LockHoldX metrics.Summary
	// LockWait summarizes lock wait times across sites (ms).
	LockWait metrics.Summary
	// LocalLatency summarizes local-transaction latency (ms), when local
	// load was enabled.
	LocalLatency metrics.Summary
	// Exposure summarizes O2PC exposure windows across sites (ms): local
	// commit to decision arrival, per decided subtransaction (E12).
	Exposure metrics.Summary

	Deadlocks     int64
	Compensations int64
	Rollbacks     int64
	RejectsRetry  int64
	RejectsFatal  int64
}

// String renders the headline numbers.
func (r Report) String() string {
	return fmt.Sprintf("%s/%s: %0.0f txn/s commit=%.1f%% p50=%.2fms p99=%.2fms holdX(mean)=%.3fms deadlocks=%d comps=%d",
		r.Config.Protocol, r.Config.Marking, r.Throughput, 100*r.CommitRate,
		r.Latency.P50, r.Latency.P99, r.LockHoldX.Mean, r.Deadlocks, r.Compensations)
}

// keyPicker generates per-site key choices under the configured skew.
type keyPicker struct {
	cfg  Config
	rng  *rand.Rand
	zipf *rand.Zipf
}

func newKeyPicker(cfg Config, rng *rand.Rand) *keyPicker {
	kp := &keyPicker{cfg: cfg, rng: rng}
	// s must be finite and > 1 for a well-defined Zipf; s <= 1 (including
	// s -> 1 from above failing NewZipf's check) falls back to the hot-set
	// model. An infinite s would make NewZipf's internals NaN out.
	if cfg.ZipfS > 1 && !math.IsInf(cfg.ZipfS, 1) {
		kp.zipf = rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.KeysPerSite-1))
	}
	return kp
}

func (kp *keyPicker) pick() int {
	if kp.zipf != nil {
		i := int(kp.zipf.Uint64())
		// rand.Zipf can overshoot imax when s is within a few ulps of 1:
		// the rejection test suffers catastrophic cancellation in 1-s.
		// Clamp into the keyspace rather than index out of range.
		if i >= kp.cfg.KeysPerSite {
			i = kp.cfg.KeysPerSite - 1
		}
		return i
	}
	if kp.cfg.HotKeys > 0 && kp.rng.Float64() < kp.cfg.HotProb {
		return kp.rng.Intn(kp.cfg.HotKeys)
	}
	return kp.rng.Intn(kp.cfg.KeysPerSite)
}

// Key returns the storage key string for index i (site-local keyspaces
// share names across sites; locality comes from the site choice).
func Key(i int) string { return fmt.Sprintf("k%05d", i) }

// Generator produces transaction specs deterministically from the seed.
type Generator struct {
	mu     sync.Mutex
	cfg    Config
	rng    *rand.Rand
	picker *keyPicker
	sites  []string
	n      int
	// keys caches the Key strings for the configured keyspace and perm is
	// the reusable site-permutation buffer: spec generation sits on the
	// benchmark's critical path, and formatting every key name (and
	// allocating a fresh permutation) per transaction shows up as a
	// measurable share of the allocation profile.
	keys []string
	perm []int
}

// NewGenerator builds a generator over the given site names.
func NewGenerator(cfg Config, sites []string) *Generator {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	keys := make([]string, cfg.KeysPerSite)
	for i := range keys {
		keys[i] = Key(i)
	}
	return &Generator{
		cfg:    cfg,
		rng:    rng,
		picker: newKeyPicker(cfg, rng),
		sites:  sites,
		keys:   keys,
		perm:   make([]int, len(sites)),
	}
}

// Next produces the next transaction spec plus, when the transaction is
// doomed, the name of the site that must vote NO.
func (g *Generator) Next() (coord.TxnSpec, string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.n++
	id := "w" + strconv.Itoa(g.n)

	k := g.cfg.SitesPerTxn
	if k > len(g.sites) {
		k = len(g.sites)
	}
	// In-place Fisher-Yates with rand.Perm's exact draw sequence, so
	// seeded workloads are unchanged while the permutation buffer is
	// reused across calls.
	for i := 0; i < len(g.sites); i++ {
		j := g.rng.Intn(i + 1)
		g.perm[i] = g.perm[j]
		g.perm[j] = i
	}
	perm := g.perm[:k]

	spec := coord.TxnSpec{
		ID:       id,
		Protocol: g.cfg.Protocol,
		Marking:  g.cfg.Marking,
	}
	for _, si := range perm {
		ops := make([]proto.Operation, 0, g.cfg.OpsPerSite)
		wrote := false
		for j := 0; j < g.cfg.OpsPerSite; j++ {
			key := g.keys[g.picker.pick()]
			if g.rng.Float64() < g.cfg.ReadFrac {
				ops = append(ops, proto.Read(key))
			} else {
				ops = append(ops, proto.Add(key, 1))
				wrote = true
			}
		}
		if !wrote && g.cfg.ReadFrac < 1 && !g.cfg.AllowReadOnly {
			// Guarantee at least one write per subtransaction so that
			// aborts exercise compensation at every site.
			ops[len(ops)-1] = proto.Add(ops[len(ops)-1].Key, 1)
		}
		comp := g.cfg.Comp
		if g.cfg.RealActionFrac > 0 && g.rng.Float64() < g.cfg.RealActionFrac {
			comp = proto.CompNone
		}
		spec.Subtxns = append(spec.Subtxns, coord.SubtxnSpec{
			Site: g.sites[si],
			Ops:  ops,
			Comp: comp,
		})
	}

	doomSite := ""
	if g.cfg.AbortProb > 0 && g.rng.Float64() < g.cfg.AbortProb {
		doomSite = spec.Subtxns[g.rng.Intn(len(spec.Subtxns))].Site
	}
	return spec, doomSite
}

// SessionScript is one multi-shot session drawn from the generator: the
// per-round subtransaction batches, the think time preceding each round,
// and — when the session is doomed — the site that must vote NO. The whole
// script is drawn up front from the seeded RNG, so (seed, config) fixes the
// session population regardless of how clients interleave at runtime.
type SessionScript struct {
	ID     string
	Rounds [][]coord.SubtxnSpec
	// Think is the pre-round think time, one entry per round.
	Think []time.Duration
	// DoomSite, when non-empty, is the site scripted to vote NO.
	DoomSite string
}

// NextSession produces the next multi-shot session script. The session
// visits SitesPerTxn distinct sites; each of Rounds rounds targets one of
// them round-robin with OpsPerSite operations, so sites revisited in later
// rounds exercise the continuation (R1 re-admission) path at the site.
func (g *Generator) NextSession() SessionScript {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.n++
	script := SessionScript{ID: "w" + strconv.Itoa(g.n)}

	rounds := g.cfg.Rounds
	if rounds < 1 {
		rounds = 1
	}
	k := g.cfg.SitesPerTxn
	if k > len(g.sites) {
		k = len(g.sites)
	}
	for i := 0; i < len(g.sites); i++ {
		j := g.rng.Intn(i + 1)
		g.perm[i] = g.perm[j]
		g.perm[j] = i
	}
	perm := g.perm[:k]

	wrote := false
	for r := 0; r < rounds; r++ {
		site := g.sites[perm[r%k]]
		ops := make([]proto.Operation, 0, g.cfg.OpsPerSite)
		for j := 0; j < g.cfg.OpsPerSite; j++ {
			key := g.keys[g.picker.pick()]
			if g.rng.Float64() < g.cfg.ReadFrac {
				ops = append(ops, proto.Read(key))
			} else {
				ops = append(ops, proto.Add(key, 1))
				wrote = true
			}
		}
		comp := g.cfg.Comp
		if g.cfg.RealActionFrac > 0 && g.rng.Float64() < g.cfg.RealActionFrac {
			comp = proto.CompNone
		}
		script.Rounds = append(script.Rounds, []coord.SubtxnSpec{{Site: site, Ops: ops, Comp: comp}})
		script.Think = append(script.Think, g.cfg.ThinkTime)
	}
	if !wrote && g.cfg.ReadFrac < 1 && !g.cfg.AllowReadOnly {
		// Guarantee at least one write per session so aborts exercise
		// compensation.
		last := script.Rounds[rounds-1][0].Ops
		last[len(last)-1] = proto.Add(last[len(last)-1].Key, 1)
	}

	if g.cfg.AbortProb > 0 && g.rng.Float64() < g.cfg.AbortProb {
		script.DoomSite = g.sites[perm[g.rng.Intn(k)]]
	}
	return script
}

// Run seeds the cluster, drives the configured load, and reports. All
// timing flows through the cluster's clock and every driver goroutine is
// spawned through it, so a workload over a virtual clock is fully
// explorer-deterministic: the seed (plus any fault script) determines the
// execution, and elapsed time is virtual time.
func Run(ctx context.Context, cl *core.Cluster, cfg Config) Report {
	cfg = cfg.withDefaults()
	clock := cl.Clock()
	gen := NewGenerator(cfg, cl.SiteNames())
	for i := 0; i < cfg.KeysPerSite; i++ {
		cl.SeedInt64(Key(i), seedValue)
	}

	latency := metrics.NewHistogram()
	localLatency := metrics.NewHistogram()
	var committed, aborted, markRetries metrics.Counter

	// Driver goroutines go through clock.Go so a virtual clock can track
	// them, and the join below polls a completion count instead of blocking
	// on the WaitGroup (which would stall virtual time).
	start := clock.Now()
	var wg sync.WaitGroup
	var finished, launched atomic.Int64
	spawn := func(fn func()) {
		launched.Add(1)
		wg.Add(1)
		clock.Go(func() {
			defer wg.Done()
			defer finished.Add(1)
			fn()
		})
	}
	// burstPause stalls the client between arrival waves: after every
	// BurstSize transactions all clients sleep BurstGap together (same
	// schedule, same clock), so load arrives as synchronized flash crowds.
	burstPause := func(ctx context.Context, i int) {
		if cfg.BurstSize > 0 && cfg.BurstGap > 0 && (i+1)%cfg.BurstSize == 0 {
			//o2pcvet:ignore errflow -- a dead context just skips the burst gap; the client loop checks ctx itself
			_ = clock.Sleep(ctx, cfg.BurstGap)
		}
	}
	record := func(res coord.Result) {
		markRetries.Add(int64(res.MarkRetries))
		if res.Committed() {
			committed.Inc()
			latency.ObserveDuration(res.Latency)
		} else {
			aborted.Inc()
		}
	}
	for c := 0; c < cfg.Clients; c++ {
		client := c
		spawn(func() {
			nCoords := len(cl.Coordinators())
			for i := 0; i < cfg.TxnsPerClient; i++ {
				if cfg.Rounds > 1 {
					script := gen.NextSession()
					record(runSession(ctx, cl, clock, client%nCoords, cfg, script))
				} else {
					spec, doomSite := gen.Next()
					if doomSite != "" {
						cl.DoomAtSite(spec.ID, doomSite)
					}
					record(cl.RunAt(ctx, client%nCoords, spec))
				}
				if ctx.Err() != nil {
					return
				}
				burstPause(ctx, i)
			}
		})
	}

	// Optional concurrent local load, measured separately.
	if cfg.LocalTxnsPerSite > 0 {
		for si := range cl.Sites() {
			si := si
			spawn(func() {
				rng := rand.New(rand.NewSource(cfg.Seed + int64(si) + 1000))
				picker := newKeyPicker(cfg, rng)
				for i := 0; i < cfg.LocalTxnsPerSite; i++ {
					key := storage.Key(Key(picker.pick()))
					t0 := clock.Now()
					err := cl.RunLocal(ctx, si, func(t *txn.Txn) error {
						v, err := t.ReadInt64ForUpdate(ctx, key)
						if err != nil {
							return err
						}
						return t.WriteInt64(ctx, key, v+1)
					})
					if err == nil {
						localLatency.ObserveDuration(clock.Since(t0))
					}
					if ctx.Err() != nil {
						return
					}
				}
			})
		}
	}
	clock.Join(wg.Wait, func() bool { return finished.Load() == launched.Load() })
	elapsed := clock.Since(start)

	// Allow outstanding compensations to settle before collecting stats.
	qctx, cancel := clock.WithTimeout(context.Background(), 10*time.Second)
	//o2pcvet:ignore errflow -- best-effort settling bounded by the timeout; the report reflects whatever state was reached
	_ = cl.Quiesce(qctx)
	cancel()

	return buildReport(cl, cfg, elapsed, committed.Value(), aborted.Value(),
		markRetries.Value(), latency, localLatency)
}

// runSession drives one multi-shot session script: open, think + round per
// entry, then the commit point. A round failure settles the session inside
// Round, so Commit afterwards just reports the stored abort.
func runSession(ctx context.Context, cl *core.Cluster, clock sim.Clock,
	coordIdx int, cfg Config, script SessionScript) coord.Result {

	if script.DoomSite != "" {
		cl.DoomAtSite(script.ID, script.DoomSite)
	}
	sess, err := cl.OpenSessionAt(coordIdx, coord.SessionSpec{
		ID: script.ID, Protocol: cfg.Protocol, Marking: cfg.Marking,
	})
	if err != nil {
		return coord.Result{ID: script.ID, Outcome: coord.AbortedCoordinator, Err: err}
	}
	for r, round := range script.Rounds {
		if script.Think[r] > 0 {
			if clock.Sleep(ctx, script.Think[r]) != nil {
				return sess.Abort(ctx)
			}
		}
		if _, err := sess.Round(ctx, round); err != nil {
			break
		}
	}
	return sess.Commit(ctx)
}

func buildReport(cl *core.Cluster, cfg Config, elapsed time.Duration,
	committed, aborted, markRetries int64, latency, localLatency *metrics.Histogram) Report {

	r := Report{
		Config:      cfg,
		Elapsed:     elapsed,
		Committed:   committed,
		Aborted:     aborted,
		MarkRetries: markRetries,
		Latency:     latency.Snapshot(),
	}
	if total := committed + aborted; total > 0 {
		r.CommitRate = float64(committed) / float64(total)
	}
	if elapsed > 0 {
		r.Throughput = float64(committed) / elapsed.Seconds()
	}
	r.LocalLatency = localLatency.Snapshot()

	holdX := metrics.NewHistogram()
	waits := metrics.NewHistogram()
	exposure := metrics.NewHistogram()
	for _, s := range cl.Sites() {
		ls := s.Manager().Locks().Stats()
		holdX.Merge(ls.HoldTimeX)
		waits.Merge(ls.WaitTime)
		r.Deadlocks += ls.Deadlocks.Value()
		st := s.Stats()
		exposure.Merge(st.ExposureDuration)
		r.Compensations += st.Compensations.Value()
		r.Rollbacks += st.Rollbacks.Value()
		r.RejectsRetry += st.RejectsRetry.Value()
		r.RejectsFatal += st.RejectsFatal.Value()
	}
	r.LockHoldX = holdX.Snapshot()
	r.LockWait = waits.Snapshot()
	r.Exposure = exposure.Snapshot()
	return r
}
