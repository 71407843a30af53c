package main

// Load mode (-n N and/or -duration D): drive a live TCP cluster of
// o2pc-site processes with -clients concurrent workers issuing a mix of
// one-shot transfers and multi-shot sessions, while scraping /metrics
// endpoints on an interval. Sites must be launched with
// -coord <name>=<listen> for in-doubt Resolve inquiries to route back here.
//
// On startup it funds -keys accounts per site (acct0..acctN-1) with -fund
// through a one-off seeding transaction, so sites need no -seed flags;
// transfers then spread across those accounts, with each transfer's
// debit/credit pair shipped in site-name order so concurrent opposite
// transfers cannot form a distributed 2PL deadlock.
//
// Example against two sites serving on 7101/7102 with ops planes:
//
//	o2pc-site -name s0 -listen 127.0.0.1:7101 -coord lg=127.0.0.1:7201 \
//	    -ops-addr 127.0.0.1:9101
//	o2pc-site -name s1 -listen 127.0.0.1:7102 -coord lg=127.0.0.1:7201 \
//	    -ops-addr 127.0.0.1:9102
//	o2pc-coord -name lg -listen 127.0.0.1:7201 \
//	    -site s0=127.0.0.1:7101 -site s1=127.0.0.1:7102 \
//	    -clients 8 -n 2000 -session-frac 0.25 -doom 0.1 \
//	    -scrape s0=127.0.0.1:9101 -scrape s1=127.0.0.1:9102 \
//	    -ops-addr 127.0.0.1:9200 -out BENCH_loadgen.json
//
// While running it prints a live table (throughput, client-side latency
// quantiles, and the scraped exposure-window p99 from the sites); on exit
// it writes a BENCH_*.json-compatible summary whose client-measured txn/s
// and latency quantiles sit next to the values scraped from the
// coordinator's own ops plane (target "self", present with -ops-addr), so
// the two measurement paths can be cross-checked.

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"o2pc/internal/coord"
	"o2pc/internal/metrics"
	"o2pc/internal/proto"
	"o2pc/internal/rpc"
	"o2pc/internal/sim"
)

// loadConfig carries the load-mode flags plus state derived from them and
// shared by the workers, the scraper, and the table printer.
type loadConfig struct {
	clients        int
	n              int
	duration       time.Duration
	key            string
	nkeys          int
	fund           int64
	doom           float64
	sessionFrac    float64
	rounds         int
	think          time.Duration
	seed           int64
	scrapeInterval time.Duration
	table          time.Duration
	out            string
	scrapes        addrList

	protocol proto.Protocol
	marking  proto.MarkProtocol
	comp     proto.CompMode
	keys     []string
}

// bindFlags registers the load-mode flags on fs.
func (lc *loadConfig) bindFlags(fs *flag.FlagSet) {
	fs.IntVar(&lc.clients, "clients", 4, "load mode: concurrent client workers")
	fs.IntVar(&lc.n, "n", 0, "load mode: issue N transactions across all clients (0 = until -duration)")
	fs.DurationVar(&lc.duration, "duration", 0, "load mode: stop issuing new transactions after this long (0 = until -n)")
	fs.StringVar(&lc.key, "key", "acct", "load mode: account key base the transfers move money between")
	fs.IntVar(&lc.nkeys, "keys", 4, "load mode: accounts per site (key0..keyN-1; 1 uses the bare -key name)")
	fs.Int64Var(&lc.fund, "fund", 1_000_000, "load mode: initial balance credited to every account at startup (0 skips funding)")
	fs.Float64Var(&lc.doom, "doom", 0.1, "load mode: fraction of transfers attempting an over-withdrawal (aborted by the AddMin constraint)")
	fs.Float64Var(&lc.sessionFrac, "session-frac", 0.25, "load mode: fraction of transactions driven as multi-shot sessions")
	fs.IntVar(&lc.rounds, "rounds", 2, "load mode: rounds per multi-shot session")
	fs.DurationVar(&lc.think, "think", 0, "load mode: client pause between session rounds")
	fs.Int64Var(&lc.seed, "seed", 1, "load mode: base seed for the per-worker transfer choices")
	fs.DurationVar(&lc.scrapeInterval, "scrape-interval", time.Second, "load mode: interval between /metrics scrapes")
	fs.DurationVar(&lc.table, "table", time.Second, "load mode: live table print interval (0 disables)")
	fs.StringVar(&lc.out, "out", "", "load mode: write a BENCH-style summary JSON to this file")
	lc.scrapes = addrList{}
	fs.Var(lc.scrapes, "scrape", "load mode: metrics endpoint to scrape as name=url (repeatable; bare host:port gets http:// and /metrics added)")
}

// enabled reports whether the flags select load mode.
func (lc *loadConfig) enabled() bool { return lc.n > 0 || lc.duration > 0 }

// keyNames derives the account keys: the bare base for -keys 1, else
// base0..baseN-1 so concurrent transfers spread over N accounts per site.
func keyNames(base string, n int) []string {
	if n <= 1 {
		return []string{base}
	}
	out := make([]string, n)
	for i := range out {
		out[i] = base + strconv.Itoa(i)
	}
	return out
}

// tally aggregates client-side measurements across the workers.
type tally struct {
	mu         sync.Mutex
	done       int
	committed  int
	execAborts int // insufficient funds / deadlock victims
	other      int
	sessions   int
	lat        *metrics.Histogram // ms, all outcomes
	oneShotLat *metrics.Histogram
	sessionLat *metrics.Histogram
}

func newTally() *tally {
	return &tally{
		lat:        metrics.NewHistogram(),
		oneShotLat: metrics.NewHistogram(),
		sessionLat: metrics.NewHistogram(),
	}
}

func (t *tally) record(res coord.Result, session bool, ms float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.done++
	if session {
		t.sessions++
		t.sessionLat.Observe(ms)
	} else {
		t.oneShotLat.Observe(ms)
	}
	t.lat.Observe(ms)
	switch {
	case res.Committed():
		t.committed++
	case res.Outcome == coord.AbortedExec:
		t.execAborts++
	default:
		t.other++
	}
}

// snapshot returns the tally's fields without holding the lock afterwards.
func (t *tally) snapshot() (done, committed, execAborts, other, sessions int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.done, t.committed, t.execAborts, t.other, t.sessions
}

// runLoad is load mode: fund the accounts, run the workers to -n or
// -duration beside the scraper and the live table, then report. c is the
// coordinator run() built; selfMetrics is its ops plane's /metrics URL
// ("" without -ops-addr).
func runLoad(ctx context.Context, stdout io.Writer, c *coord.Coordinator, lc *loadConfig, name, idPrefix string, sites addrList, selfMetrics string) error {
	clock := sim.Real()
	lc.keys = keyNames(lc.key, lc.nkeys)
	siteNames := slices.Sorted(maps.Keys(sites))
	if lc.fund > 0 {
		// Fund every account at every site up front, through a separate
		// coordinator so the workload's stats (and the scraped view the
		// summary is cross-checked against) stay untouched.
		if err := fundAccounts(ctx, lc, name, idPrefix, siteNames, sites); err != nil {
			return fmt.Errorf("funding accounts: %w", err)
		}
		fmt.Fprintf(stdout, "funded %d account(s) x %d site(s) with %d each\n",
			len(lc.keys), len(siteNames), lc.fund)
	}

	targets := make(map[string]string, len(lc.scrapes)+1)
	for tname, url := range lc.scrapes {
		targets[tname] = normalizeScrapeURL(url)
	}
	if selfMetrics != "" {
		targets["self"] = selfMetrics
	}

	// Workers run under runCtx (bounded by -duration); the scraper and the
	// table printer run under auxCtx, which outlives the workers so a final
	// row and scrape can land.
	runCtx := ctx
	cancelRun := func() {}
	if lc.duration > 0 {
		runCtx, cancelRun = clock.WithTimeout(ctx, lc.duration)
	}
	defer cancelRun()
	auxCtx, cancelAux := context.WithCancel(ctx)
	defer cancelAux()

	tl := newTally()
	scr := &scrapeSet{latest: make(map[string]map[string]float64), errs: make(map[string]string)}
	start := clock.Now()

	var aux sync.WaitGroup
	if len(targets) > 0 {
		aux.Add(1)
		go func() {
			defer aux.Done()
			for {
				scr.scrapeAll(auxCtx, targets)
				if clock.Sleep(auxCtx, lc.scrapeInterval) != nil {
					return
				}
			}
		}()
	}
	if lc.table > 0 {
		aux.Add(1)
		go func() {
			defer aux.Done()
			fmt.Fprintf(stdout, "%8s %7s %8s %8s %8s %8s %8s %14s\n",
				"elapsed", "txns", "txn/s", "commit%", "p50ms", "p90ms", "p99ms", "exposure-p99ms")
			for {
				if clock.Sleep(auxCtx, lc.table) != nil {
					return
				}
				fmt.Fprintln(stdout, tableRow(clock.Since(start), tl, scr))
			}
		}()
	}

	var (
		issued int64
		wg     sync.WaitGroup
	)
	for i := 0; i < lc.clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(lc.seed + int64(id)*7919))
			for runCtx.Err() == nil {
				if lc.n > 0 && atomic.AddInt64(&issued, 1) > int64(lc.n) {
					return
				}
				oneTxn(runCtx, clock, c, lc, siteNames, rng, tl)
			}
		}(i)
	}
	wg.Wait()
	elapsed := clock.Since(start)

	// One last scrape so the summary's "scraped" column reflects the
	// finished run, then stop the aux goroutines.
	if len(targets) > 0 {
		scr.scrapeAll(auxCtx, targets)
	}
	cancelAux()
	aux.Wait()

	printSummary(stdout, tl, scr, elapsed)
	if lc.out != "" {
		if err := writeSummaryJSON(lc.out, tl, scr, elapsed); err != nil {
			return fmt.Errorf("write summary: %w", err)
		}
		fmt.Fprintf(stdout, "summary written to %s\n", lc.out)
	}
	return nil
}

// fundAccounts credits every configured account at every site in one
// global transaction, driven by a throwaway coordinator so the workload
// coordinator's published stats count only the workload.
func fundAccounts(ctx context.Context, lc *loadConfig, name, idPrefix string, siteNames []string, sites map[string]string) error {
	client := rpc.NewTCPClient(sites)
	//o2pcvet:ignore errflow -- TCPClient.Close only closes sockets and always returns nil
	defer client.Close()
	seeder := coord.New(coord.Config{
		Name:     name,
		IDPrefix: idPrefix + "seed-",
	}, client)
	defer seeder.Close()
	subtxns := make([]coord.SubtxnSpec, 0, len(siteNames))
	for _, site := range siteNames {
		ops := make([]proto.Operation, 0, len(lc.keys))
		for _, k := range lc.keys {
			ops = append(ops, proto.Add(k, lc.fund))
		}
		subtxns = append(subtxns, coord.SubtxnSpec{Site: site, Ops: ops, Comp: lc.comp})
	}
	res := seeder.Run(ctx, coord.TxnSpec{
		Protocol: lc.protocol,
		Marking:  lc.marking,
		Subtxns:  subtxns,
	})
	if !res.Committed() {
		return fmt.Errorf("%s: %w", res.Outcome, res.Err)
	}
	return nil
}

// oneTxn issues one transaction — a one-shot transfer or a multi-shot
// session per the configured mix — and records the client-side outcome.
func oneTxn(ctx context.Context, clock sim.Clock, c *coord.Coordinator, lc *loadConfig, siteNames []string, rng *rand.Rand, tl *tally) {
	from := siteNames[rng.Intn(len(siteNames))]
	to := siteNames[rng.Intn(len(siteNames))]
	for to == from {
		to = siteNames[rng.Intn(len(siteNames))]
	}
	key := lc.keys[rng.Intn(len(lc.keys))]
	amount := int64(1 + rng.Intn(25))
	if rng.Float64() < lc.doom {
		amount = 1 << 40 // guaranteed over-withdrawal: the source site refuses
	}
	session := rng.Float64() < lc.sessionFrac

	begin := clock.Now()
	var res coord.Result
	if session {
		res = runSession(ctx, clock, c, lc, from, to, key, amount, rng)
	} else {
		res = c.Run(ctx, coord.TxnSpec{
			Protocol: lc.protocol,
			Marking:  lc.marking,
			Subtxns:  transfer(lc, from, to, key, amount),
		})
	}
	tl.record(res, session, float64(clock.Since(begin))/float64(time.Millisecond))
}

// runSession drives one multi-shot session: -rounds rounds of transfer
// work (fresh amount per round, same endpoints) separated by think time,
// then the commit point. A failed round settles the session as aborted
// and Commit just reports that result.
func runSession(ctx context.Context, clock sim.Clock, c *coord.Coordinator, lc *loadConfig, from, to, key string, amount int64, rng *rand.Rand) coord.Result {
	sess, err := c.OpenSession(coord.SessionSpec{Protocol: lc.protocol, Marking: lc.marking})
	if err != nil {
		return coord.Result{Outcome: coord.AbortedCoordinator, Err: err}
	}
	for r := 0; r < lc.rounds && sess.State() == coord.SessionActive; r++ {
		if r > 0 {
			amount = int64(1 + rng.Intn(25))
		}
		if _, err := sess.Round(ctx, transfer(lc, from, to, key, amount)); err != nil {
			break
		}
		if lc.think > 0 && clock.Sleep(ctx, lc.think) != nil {
			break
		}
	}
	return sess.Commit(ctx)
}

// transfer builds the two-site debit/credit subtransactions of one
// transfer: the AddMin floor of 0 at the source makes over-withdrawals
// refuse. Subtransactions ship in site-name order, so two opposite
// transfers over the same key serialize on the first site's lock instead
// of forming a distributed 2PL deadlock that only the sites' lock-wait
// timeout can break — the classical resource-ordering discipline a real
// client library would apply.
func transfer(lc *loadConfig, from, to, key string, amount int64) []coord.SubtxnSpec {
	debit := coord.SubtxnSpec{Site: from, Ops: []proto.Operation{proto.AddMin(key, -amount, 0)}, Comp: lc.comp}
	credit := coord.SubtxnSpec{Site: to, Ops: []proto.Operation{proto.Add(key, amount)}, Comp: lc.comp}
	if to < from {
		return []coord.SubtxnSpec{credit, debit}
	}
	return []coord.SubtxnSpec{debit, credit}
}

// scrapeSet holds the latest sample map per scrape target.
type scrapeSet struct {
	mu     sync.Mutex
	latest map[string]map[string]float64
	errs   map[string]string
}

// scrapeAll fetches every target once, replacing its latest sample map.
// Failures are recorded per target and do not disturb the previous
// samples — a scraper outliving a shutting-down site keeps the last view.
func (s *scrapeSet) scrapeAll(ctx context.Context, targets map[string]string) {
	for _, name := range slices.Sorted(maps.Keys(targets)) {
		samples, err := scrapeOnce(ctx, targets[name])
		s.mu.Lock()
		if err != nil {
			s.errs[name] = err.Error()
		} else {
			delete(s.errs, name)
			s.latest[name] = samples
		}
		s.mu.Unlock()
	}
}

// value returns the latest sample for metric at target.
func (s *scrapeSet) value(target, metric string) (float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.latest[target][metric]
	return v, ok
}

// anyValue returns metric's sample from whichever target reports it
// first (in sorted target order).
func (s *scrapeSet) anyValue(metric string) (string, float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, name := range slices.Sorted(maps.Keys(s.latest)) {
		if v, ok := s.latest[name][metric]; ok {
			return name, v, true
		}
	}
	return "", 0, false
}

// scrapeOnce fetches one Prometheus text endpoint and parses it into a
// flat metric→value map (labels kept verbatim in the metric name).
func scrapeOnce(ctx context.Context, url string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: HTTP %d", url, resp.StatusCode)
	}
	return parsePromText(resp.Body)
}

// parsePromText parses Prometheus text exposition into metric→value.
// Only the sample lines are read; comments and malformed lines are
// skipped, matching what a tolerant scraper does.
func parsePromText(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// normalizeScrapeURL accepts full URLs, bare host:port, or host:port
// with a custom path, and returns a fetchable metrics URL.
func normalizeScrapeURL(v string) string {
	if !strings.Contains(v, "://") {
		v = "http://" + v
	}
	rest := v[strings.Index(v, "://")+3:]
	if !strings.Contains(rest, "/") {
		v += "/metrics"
	}
	return v
}

// exposureP99Metric is the scraped quantile the live table surfaces: the
// paper's exposure window (local commit at YES vote until the decision
// arrives) at the committed-outcome tail.
const exposureP99Metric = `o2pc_site_exposure_duration_ms{outcome="commit",quantile="0.99"}`

// tableRow renders one live-table line.
func tableRow(elapsed time.Duration, tl *tally, scr *scrapeSet) string {
	done, committed, _, _, _ := tl.snapshot()
	rate := 0.0
	if s := elapsed.Seconds(); s > 0 {
		rate = float64(done) / s
	}
	pct := 0.0
	if done > 0 {
		pct = 100 * float64(committed) / float64(done)
	}
	exposure := "-"
	if target, v, ok := scr.anyValue(exposureP99Metric); ok {
		exposure = fmt.Sprintf("%.2f(%s)", v, target)
	}
	return fmt.Sprintf("%8s %7d %8.1f %8.1f %8.2f %8.2f %8.2f %14s",
		elapsed.Round(100*time.Millisecond), done, rate, pct,
		tl.lat.Quantile(0.5), tl.lat.Quantile(0.9), tl.lat.Quantile(0.99), exposure)
}

// printSummary writes the end-of-run report.
func printSummary(w io.Writer, tl *tally, scr *scrapeSet, elapsed time.Duration) {
	done, committed, execAborts, other, sessions := tl.snapshot()
	rate := 0.0
	if s := elapsed.Seconds(); s > 0 {
		rate = float64(done) / s
	}
	pct := 0.0
	if done > 0 {
		pct = 100 * float64(committed) / float64(done)
	}
	fmt.Fprintf(w, "load: %d txns in %s (%.1f txn/s): %d committed (%.1f%%), %d insufficient-funds/deadlock, %d other aborts; %d multi-shot sessions\n",
		done, elapsed.Round(time.Millisecond), rate, committed, pct, execAborts, other, sessions)
	fmt.Fprintf(w, "client latency(ms): p50=%.3f p90=%.3f p99=%.3f max=%.3f (one-shot p50=%.3f, session p50=%.3f)\n",
		tl.lat.Quantile(0.5), tl.lat.Quantile(0.9), tl.lat.Quantile(0.99), tl.lat.Max(),
		tl.oneShotLat.Quantile(0.5), tl.sessionLat.Quantile(0.5))
	if count, ok := scr.value("self", "o2pc_coord_latency_ms_count"); ok {
		p50, _ := scr.value("self", `o2pc_coord_latency_ms{quantile="0.5"}`)
		p99, _ := scr.value("self", `o2pc_coord_latency_ms{quantile="0.99"}`)
		srate := 0.0
		if s := elapsed.Seconds(); s > 0 {
			srate = count / s
		}
		fmt.Fprintf(w, "scraped self: %.0f txns (%.1f txn/s), p50=%.3f p99=%.3f\n", count, srate, p50, p99)
	}
	scr.mu.Lock()
	for _, name := range slices.Sorted(maps.Keys(scr.errs)) {
		fmt.Fprintf(w, "scrape %s: %s\n", name, scr.errs[name])
	}
	scr.mu.Unlock()
}

// writeSummaryJSON writes the BENCH_*.json-compatible summary: the
// client-measured numbers under Loadgen/total (plus the one-shot and
// session splits), and the self-scraped coordinator view under
// Loadgen/scraped so the two paths can be diffed mechanically.
func writeSummaryJSON(path string, tl *tally, scr *scrapeSet, elapsed time.Duration) error {
	done, committed, _, _, sessions := tl.snapshot()
	rate, nsPerOp := 0.0, 0.0
	if done > 0 && elapsed > 0 {
		rate = float64(done) / elapsed.Seconds()
		nsPerOp = float64(elapsed.Nanoseconds()) / float64(done)
	}
	pct := 0.0
	if done > 0 {
		pct = 100 * float64(committed) / float64(done)
	}
	benches := map[string]map[string]float64{
		"Loadgen/total": {
			"iterations": float64(done),
			"txn_per_s":  rate,
			"ns_per_op":  nsPerOp,
			"pct_commit": pct,
			"p50_ms":     tl.lat.Quantile(0.5),
			"p90_ms":     tl.lat.Quantile(0.9),
			"p99_ms":     tl.lat.Quantile(0.99),
		},
		"Loadgen/oneshot": {
			"iterations": float64(done - sessions),
			"p50_ms":     tl.oneShotLat.Quantile(0.5),
			"p99_ms":     tl.oneShotLat.Quantile(0.99),
		},
		"Loadgen/session": {
			"iterations": float64(sessions),
			"p50_ms":     tl.sessionLat.Quantile(0.5),
			"p99_ms":     tl.sessionLat.Quantile(0.99),
		},
	}
	if count, ok := scr.value("self", "o2pc_coord_latency_ms_count"); ok {
		p50, _ := scr.value("self", `o2pc_coord_latency_ms{quantile="0.5"}`)
		p99, _ := scr.value("self", `o2pc_coord_latency_ms{quantile="0.99"}`)
		srate := 0.0
		if elapsed > 0 {
			srate = count / elapsed.Seconds()
		}
		benches["Loadgen/scraped"] = map[string]float64{
			"iterations": count,
			"txn_per_s":  srate,
			"p50_ms":     p50,
			"p99_ms":     p99,
		}
	}
	return writeFile(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(map[string]any{"benchmarks": benches})
	})
}
