package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"o2pc/internal/coord"
	"o2pc/internal/proto"
	"o2pc/internal/sim"
)

// Fixed shape of every run. Contention comes from key skew, not from the
// client count, so the count is a constant (the sandbox has two CPUs).
const (
	clients = 2
	// warmupTxns is what each client runs before the measured window:
	// connections pooled, heaps and maps grown, WAL files in the page cache.
	// A count rather than a time, so that a slower set-up reads as a longer
	// setup_s instead of hiding inside a fixed sleep.
	warmupTxns = 500
	// setupRepeats is how many times an untraced run brings a cluster up to
	// "ready to measure"; setup_s is the median, the last one is measured.
	setupRepeats = 3
	// tracedWindowShare shortens the traced window: spans stay in memory.
	tracedWindowShare = 0.4
	// sampleCap is each client's preallocated sample buffer, so that the
	// driver's own bookkeeping never shows as retained heap.
	sampleCap = 1 << 19
	// windowSlices is how many equal slices the measured window is cut into.
	// Throughput and the latency percentiles are taken per slice and the
	// median slice is reported: a stall of the sandbox's disk or CPU that
	// spoils up to two slices does not move the result.
	windowSlices = 5
)

// metric is one named reading with its unit, as BENCHMARK.json declares it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef declares a metric the benchmark prints. The tables below must
// match BENCHMARK.json; a test compares them.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"txn_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"retained_b_per_txn", "B"},
	{"setup_s", "s"},
}

// diagnostics are measured like end-to-end metrics, on the untraced run, but
// carry no bound: p99_ms because its run-to-run spread in this sandbox
// exceeds any bound the contract allows (28% on paxos while the disk was
// slow), failed_frac because it is 0 on every workload but hot-o2pc and a
// bound is a share of the parent's median, which a median of 0 cannot carry.
var diagnostics = []metricDef{
	{"p99_ms", "ms"},
	{"failed_frac", "ratio"},
}

var perLayer = []metricDef{
	{"coord.exec_ms", "ms"}, {"coord.vote_ms", "ms"}, {"coord.decide_ms", "ms"}, {"coord.ack_ms", "ms"}, {"coord.self_ms", "ms"},
	{"coord.retries", "count"}, {"coord.failed_frac", "ratio"},
	{"rpc.msgs", "count"}, {"rpc.wire_us", "us"}, {"rpc.wire_exec_us", "us"}, {"rpc.wire_vote_us", "us"}, {"rpc.wire_decision_us", "us"},
	{"proto.bytes", "B"}, {"proto.encode_us", "us"}, {"proto.decode_us", "us"},
	{"site.handle_exec_us", "us"}, {"site.handle_vote_us", "us"}, {"site.handle_decision_us", "us"}, {"site.exposure_ms", "ms"},
	{"wal.appends", "count"}, {"wal.syncs", "count"}, {"wal.append_us", "us"}, {"wal.sync_us", "us"}, {"wal.bytes", "B"},
	{"lock.waits", "count"}, {"lock.wait_ms", "ms"}, {"lock.hold_x_ms", "ms"}, {"lock.hold_s_ms", "ms"}, {"lock.deadlocks", "count"},
	{"lock.acquire_release_us", "us"},
	{"txn.commit_us", "us"},
	{"marking.rejects_retry", "count"}, {"marking.rejects_fatal", "count"}, {"marking.compatible_us", "us"},
	{"compensate.runs", "count"}, {"compensate.run_ms", "ms"},
	{"replog.ballots", "count"}, {"replog.ballot_ms", "ms"}, {"replog.sync_us", "us"},
	{"runtime.allocs", "count"}, {"runtime.gc_cpu_frac", "ratio"},
	{"trace.txn_per_s", "1/s"},
}

// sample is one committed transaction: when it completed, as an offset
// into the measured window, and how long the coord.Run that committed it took.
type sample struct{ at, took time.Duration }

// tally is one client's count of what it saw. firstFailed counts the
// transactions whose first coord.Run ended otherwise than generated, failed
// those whose last one did.
type tally struct {
	attempted, committed, firstFailed, failed, retries int
	windowStart                                        time.Time
	samples                                            []sample // committed transactions only
}

// maxRetries is how often a client resubmits a transaction that was meant
// to commit but aborted (an R1 marking rejection, a lock timeout) before it
// counts as failed: the contract wants workloads on which no operation
// fails. A retry costs the client time, so it shows in txn_per_s; it is not
// part of p50_ms, and the first attempt's failure is counted in failed_frac.
const (
	maxRetries   = 5
	retryBackoff = 500 * time.Microsecond
)

// runOpts selects one run.
type runOpts struct {
	w       workload
	seed    int64
	seconds float64
	trace   bool
	dir     string // scratch directory for this run; removed afterwards
	setups  int
}

// runResult is what one run measured.
type runResult struct {
	attempted, failed, committed int
	problems                     []string // correctness gate failures; empty means correct
	// values holds every reading by name: the published metrics (those the
	// tables above list) and the intermediate figures the budget is built
	// from (calls per kind, WAL time inside handlers, the mean run).
	values  map[string]float64
	tailPct float64 // the percentile p99_ms actually is
	budget  *budget // traced runs only
}

// oneTxn issues the generator's next transaction, resubmitting it while it
// aborts against the generator's intent, and records the first and the last
// outcome against the one the generator meant it to have.
func (c *cluster) oneTxn(ctx context.Context, clock sim.Clock, g *txnGen, tl *tally) {
	t := g.next()
	var (
		res  coord.Result
		took time.Duration // of the last coord.Run alone
	)
	for attempt := 0; ; attempt++ {
		start := clock.Now()
		var root span
		if c.rec != nil {
			root = c.rec.begin(span{Name: spanRun, Txn: t.id(attempt)})
		}
		res = c.coord.Run(ctx, coord.TxnSpec{ID: t.id(attempt), Protocol: c.w.protocol, Marking: c.w.marking, Subtxns: t.subs})
		took = clock.Since(start)
		if c.rec != nil {
			root.Note = res.Outcome.String()
			c.rec.end(root)
		}
		if attempt == 0 && res.Committed() == t.doomed() {
			tl.firstFailed++
		}
		if res.Committed() || t.doomed() || attempt == maxRetries {
			break
		}
		tl.retries++
		// Back off a little longer each time: an R1 rejection lasts until the
		// other site's compensation or unmark notice lands.
		if clock.Sleep(ctx, time.Duration(attempt+1)*retryBackoff) != nil {
			break
		}
	}
	tl.attempted++
	if res.Committed() {
		tl.committed++
		tl.samples = append(tl.samples, sample{at: clock.Since(tl.windowStart), took: took})
	}
	if res.Committed() == t.doomed() {
		if tl.failed++; tl.failed <= 3 {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %s ended %s (doomed=%v): %v\n", c.w.name, res.ID, res.Outcome, t.doomed(), res.Err)
		}
	}
}

// runClients runs every client's closed loop — the next coord.Run is issued
// when the previous returns — while more(issued) holds.
func (c *cluster) runClients(ctx context.Context, clock sim.Clock, gens []*txnGen, tallies []*tally, more func(issued int) bool) {
	var wg sync.WaitGroup
	for i := range gens {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; more(n); n++ {
				c.oneTxn(ctx, clock, gens[i], tallies[i])
			}
		}()
	}
	wg.Wait()
}

// setUp brings a fresh cluster to "ready to measure": processes spawned,
// WALs open, accounts funded, connections and heaps warmed by warmupTxns
// transactions per client.
func setUp(ctx context.Context, clock sim.Clock, o runOpts, dir string) (*cluster, []*txnGen, []*tally, error) {
	c, err := startCluster(o.w, dir, o.trace)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := c.fund(ctx); err != nil {
		c.abandon()
		return nil, nil, nil, err
	}
	gens, warm := make([]*txnGen, clients), make([]*tally, clients)
	for i := range gens {
		gens[i], warm[i] = newTxnGen(o.w.mix, o.seed, i), &tally{}
	}
	c.runClients(ctx, clock, gens, warm, func(issued int) bool { return issued < warmupTxns })
	return c, gens, warm, nil
}

func sumSnaps(snaps []snap) snap {
	total := snap{}
	for _, s := range snaps {
		total = total.plus(s)
	}
	return total
}

// quiesce waits until no site tracks an undecided subtransaction and
// returns the end-of-run snapshots. Run returns only after every decision
// is acked, so this normally succeeds at once.
func (c *cluster) quiesce(ctx context.Context, clock sim.Clock) ([]snap, error) {
	for try := 0; ; try++ {
		snaps, err := c.snapshots()
		if err != nil {
			return nil, err
		}
		if sumSnaps(snaps)["site.pending"] == 0 || try == 50 {
			return snaps, nil
		}
		if err := clock.Sleep(ctx, 100*time.Millisecond); err != nil {
			return nil, err
		}
	}
}

// runOnce performs one run of one workload: set up (several times when
// untraced), measure, quiesce, check, tear down.
func runOnce(ctx context.Context, o runOpts) (*runResult, error) {
	clock := sim.Real()
	defer os.RemoveAll(o.dir)

	var (
		c          *cluster
		gens       []*txnGen
		warm       []*tally
		setupTimes []float64
	)
	for i := 0; i < o.setups; i++ {
		if c != nil {
			if _, err := c.stop(); err != nil {
				return nil, fmt.Errorf("stopping set-up %d: %w", i-1, err)
			}
		}
		begun := clock.Now()
		var err error
		if c, gens, warm, err = setUp(ctx, clock, o, filepath.Join(o.dir, fmt.Sprintf("setup%d", i))); err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, clock.Since(begun).Seconds())
	}

	window := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		window = time.Duration(float64(window) * tracedWindowShare)
	}
	tallies := make([]*tally, clients)
	for i := range tallies {
		tallies[i] = &tally{samples: make([]sample, 0, sampleCap)}
	}
	before, err := c.snapshots()
	if err != nil {
		c.abandon()
		return nil, err
	}
	windowStart := clock.Now()
	for _, tl := range tallies {
		tl.windowStart = windowStart
	}
	deadline := windowStart.Add(window)
	c.runClients(ctx, clock, gens, tallies, func(int) bool { return clock.Now().Before(deadline) })
	elapsed := clock.Since(windowStart)
	after, err := c.quiesce(ctx, clock)
	if err != nil {
		c.abandon()
		return nil, err
	}
	clientCommits, notCommitted := 0, 0
	for _, tl := range append(warm, tallies...) {
		clientCommits += tl.committed
		notCommitted += tl.attempted - tl.committed + tl.retries // every retry follows a Run that did not commit
	}
	coordCommits := c.coord.Stats().Commits.Value()
	messages := c.sampledMessages()
	spans, err := c.stop()
	if err != nil {
		return nil, err
	}

	r := &runResult{values: make(map[string]float64)}
	var samples []sample
	retries, firstFailed := 0, 0
	for _, tl := range tallies {
		retries += tl.retries
		firstFailed += tl.firstFailed
		r.attempted += tl.attempted
		r.committed += tl.committed
		r.failed += tl.failed
		samples = append(samples, tl.samples...)
	}
	if r.committed == 0 {
		return nil, fmt.Errorf("%s: no transaction committed in the measured window", o.w.name)
	}
	warmFailed := 0
	for _, tl := range warm {
		warmFailed += tl.failed
	}
	r.problems = gate(o.w, c.funded(), after, clientCommits, coordCommits, notCommitted, r.failed+warmFailed)

	d := sumSnaps(after).since(sumSnaps(before))
	n := float64(r.committed)
	v := r.values
	v["txn_per_s"], v["p50_ms"], v["p99_ms"], r.tailPct = sliceMedians(samples, window)
	v["retained_b_per_txn"] = d["rt.heap_alloc"] / n
	v["setup_s"] = median(setupTimes)

	v["coord.retries"] = float64(retries) / n
	v["failed_frac"] = float64(firstFailed) / float64(r.attempted)
	v["coord.failed_frac"] = v["failed_frac"]
	snapMetrics(d, n, v)
	v["trace.txn_per_s"] = v["txn_per_s"]
	if o.trace {
		linkParents(spans)
		spanMetrics(spans, windowStart.UnixNano(), windowStart.Add(elapsed).UnixNano(), v)
		isolatedMetrics(o, messages, d, v)
		r.budget = newBudget(v, d, n)
	}
	return r, nil
}

// sliceMedians cuts the window into windowSlices equal slices by completion
// time and returns the median slice's throughput (1/s), median latency (ms)
// and tail latency (ms), with the percentile the tail is: the highest one
// that leaves at least ten samples beyond it in the emptiest slice.
func sliceMedians(samples []sample, window time.Duration) (rate, p50, tail, tailPct float64) {
	width := window / windowSlices
	slices := make([][]float64, windowSlices)
	for _, s := range samples {
		if i := int(s.at / width); i < windowSlices { // the last transaction may end past the window
			slices[i] = append(slices[i], float64(s.took)/float64(time.Millisecond))
		}
	}
	fewest := len(slices[0])
	for _, sl := range slices {
		fewest = min(fewest, len(sl))
	}
	if fewest == 0 {
		return 0, 0, 0, 0
	}
	var ok bool
	if tailPct, ok = tailPercentile(fewest); !ok {
		tailPct = 50 // under twenty samples a slice: nothing but the median means anything
	}
	rates, p50s, tails := make([]float64, windowSlices), make([]float64, windowSlices), make([]float64, windowSlices)
	for i, sl := range slices {
		sort.Float64s(sl)
		rates[i] = float64(len(sl)) / width.Seconds()
		p50s[i] = percentile(sl, 50)
		tails[i] = percentile(sl, tailPct)
	}
	return median(rates), median(p50s), median(tails), tailPct
}

// gate is the correctness check after every workload. It returns what is
// wrong; nothing means the run's outputs are correct.
func gate(w workload, funded int64, after []snap, clientCommits int, coordCommits int64, notCommitted, failed int) []string {
	var problems []string
	total := sumSnaps(after)
	if got := int64(total["site.balance"]); got != funded {
		problems = append(problems, fmt.Sprintf("money not conserved: sites hold %d, funded %d", got, funded))
	}
	if total["site.pending"] != 0 {
		problems = append(problems, fmt.Sprintf("%v subtransactions still pending after quiesce", total["site.pending"]))
	}
	if int64(clientCommits) != coordCommits {
		problems = append(problems, fmt.Sprintf("clients counted %d commits, coord.Stats %d", clientCommits, coordCommits))
	}
	// after[0] is the driver; the sites follow in siteNames order. Each
	// site committed the funding transaction besides the workload's.
	for i, name := range siteNames {
		if got := int64(after[1+i]["site.commits"]); got != coordCommits+1 {
			problems = append(problems, fmt.Sprintf("site %s counted %d commits, coordinator %d (+1 funding)", name, got, coordCommits))
		}
	}
	comps := int(total["site.compensations"])
	switch {
	case w.protocol != proto.O2PC && comps != 0:
		problems = append(problems, fmt.Sprintf("%d compensations under %s, which never exposes", comps, w.protocol))
	case comps > notCommitted:
		problems = append(problems, fmt.Sprintf("%d compensations but only %d transactions did not commit", comps, notCommitted))
	case w.mix.doomFrac == 0 && comps > failed:
		problems = append(problems, fmt.Sprintf("%d compensations but only %d failed transactions and none doomed", comps, failed))
	}
	return problems
}

// sampledMessages returns the messages the traced transports kept.
func (c *cluster) sampledMessages() map[string][]any {
	if c.caller == nil {
		return nil
	}
	c.caller.mu.Lock()
	defer c.caller.mu.Unlock()
	return c.caller.samples
}

var errIncorrect = errors.New("correctness gate failed")
