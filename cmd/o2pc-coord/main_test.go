package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"o2pc/internal/proto"
	"o2pc/internal/rpc"
	"o2pc/internal/site"
	"o2pc/internal/storage"
	"o2pc/internal/trace"
	"o2pc/internal/wal"
)

// syncBuffer is a goroutine-safe stdout sink: load mode's live table and
// scrape goroutines write concurrently with the main run, and a serve-only
// run is read while it is still going.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// startTestSite serves a real site over TCP loopback, seeded with
// acct=1000, and returns its -site flag value.
func startTestSite(t *testing.T, name string) string {
	t.Helper()
	s := site.NewSite(site.Config{Name: name})
	s.SeedInt64(storage.Key("acct"), 1000)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go rpc.NewServer(name, s.Handle).Serve(ln)
	return name + "=" + ln.Addr().String()
}

// readMetrics parses a -metrics file.
func readMetrics(t *testing.T, path string) (string, map[string]float64) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("metrics file: %v", err)
	}
	samples, err := parsePromText(bytes.NewReader(b))
	if err != nil {
		t.Fatalf("metrics parse: %v", err)
	}
	return string(b), samples
}

// TestRunPaths drives the run() entrypoint end to end over TCP loopback:
// the single-transaction, repeat, load, and serve paths, each with and
// without trace/metrics artifacts.
func TestRunPaths(t *testing.T) {
	dir := t.TempDir()

	cases := []struct {
		name      string
		args      func(s0, s1 string) []string
		cancelCtx bool     // cancel the context before run (serve path exits immediately)
		wantOut   []string // substrings of stdout
		wantErr   string   // substring of the error, "" for success
		jsonl     string   // expect a JSONL trace at this path containing a txn.begin
		chrome    string   // expect Chrome trace JSON at this path
		metrics   []string // expect these substrings in the -metrics file
		nonzero   []string // expect these samples in the -metrics file to be > 0
		votes     bool     // the JSONL trace pairs votereq.send with vote.recv at s0 and s1
	}{
		{
			name: "single txn with artifacts",
			args: func(s0, s1 string) []string {
				return []string{
					"-listen", "127.0.0.1:0", "-site", s0, "-site", s1,
					"-txn", "s0:addmin:acct:-40:0 / s1:add:acct:40", "-marking", "p1",
					"-trace", filepath.Join(dir, "txn.jsonl"),
					"-trace-chrome", filepath.Join(dir, "txn.chrome.json"),
					"-metrics", filepath.Join(dir, "txn.metrics"),
				}
			},
			wantOut: []string{"committed"},
			jsonl:   filepath.Join(dir, "txn.jsonl"),
			chrome:  filepath.Join(dir, "txn.chrome.json"),
			metrics: []string{"o2pc_coord_commits_total 1", "# TYPE o2pc_coord_latency_ms summary"},
		},
		{
			name: "repeat prints a summary",
			args: func(s0, s1 string) []string {
				return []string{
					"-listen", "127.0.0.1:0", "-site", s0, "-site", s1,
					"-txn", "s0:add:acct:1", "-repeat", "3",
				}
			},
			wantOut: []string{"3/3 committed"},
		},
		{
			// One client moving money between the seeded bare "acct" keys,
			// half the transfers doomed to fail the AddMin floor.
			name: "load with trace",
			args: func(s0, s1 string) []string {
				return []string{
					"-listen", "127.0.0.1:0", "-site", s0, "-site", s1,
					"-n", "6", "-clients", "1", "-session-frac", "0", "-keys", "1", "-fund", "0",
					"-doom", "0.5", "-seed", "1", "-table", "0",
					"-trace", filepath.Join(dir, "load.jsonl"),
				}
			},
			wantOut: []string{"load: 6 txns", "insufficient-funds"},
			jsonl:   filepath.Join(dir, "load.jsonl"),
		},
		{
			name: "load under paxos replicates decisions",
			args: func(s0, s1 string) []string {
				return []string{
					"-listen", "127.0.0.1:0", "-site", s0, "-site", s1, "-protocol", "paxos",
					"-n", "10", "-clients", "2", "-table", "0",
					"-metrics", filepath.Join(dir, "txn.metrics"),
				}
			},
			wantOut: []string{"replicating decisions to 3 replicas", "funded 4 account(s)", "load: 10 txns"},
			metrics: []string{"o2pc_coord_replog_leader 1"},
			nonzero: []string{"o2pc_coord_replog_majority_acks_total", "o2pc_coord_commits_total"},
		},
		{
			name: "serve path exits on context cancel",
			args: func(s0, s1 string) []string {
				return []string{"-listen", "127.0.0.1:0", "-site", s0}
			},
			cancelCtx: true,
			wantOut:   []string{"serving on"},
		},
		{
			name: "ops plane with phase metrics",
			args: func(s0, s1 string) []string {
				return []string{
					"-listen", "127.0.0.1:0", "-site", s0, "-site", s1,
					"-txn", "s0:addmin:acct:-40:0 / s1:add:acct:40", "-marking", "p1",
					"-ops-addr", "127.0.0.1:0",
					"-metrics", filepath.Join(dir, "txn.metrics"),
				}
			},
			wantOut: []string{"committed", "ops plane on http://"},
			metrics: []string{
				"# TYPE o2pc_coord_phase_vote_decision_ms summary",
				"o2pc_coord_phase_decision_ack_ms_count 1",
				`o2pc_coord_phase_prepare_vote_ms{site="s0",quantile="0.5"}`,
				`o2pc_coord_phase_prepare_vote_ms{site="s1",quantile="0.5"}`,
			},
		},
		{
			// Under 2PC the VOTE-REQ rides the exec; the vote round stays
			// visible in the trace (what o2pc-trace stats pairs) and in the
			// per-site prepare->vote histograms.
			name: "2pc vote rides the exec",
			args: func(s0, s1 string) []string {
				return []string{
					"-listen", "127.0.0.1:0", "-site", s0, "-site", s1,
					"-txn", "s0:addmin:acct:-40:0 / s1:add:acct:40", "-protocol", "2pc",
					"-trace", filepath.Join(dir, "2pc.jsonl"),
					"-metrics", filepath.Join(dir, "txn.metrics"),
				}
			},
			wantOut: []string{"committed"},
			jsonl:   filepath.Join(dir, "2pc.jsonl"),
			votes:   true,
			metrics: []string{
				"o2pc_coord_phase_vote_decision_ms_count 1",
				`o2pc_coord_phase_prepare_vote_ms{site="s0",quantile="0.5"}`,
				`o2pc_coord_phase_prepare_vote_ms{site="s1",quantile="0.5"}`,
			},
		},
		{
			name: "paxos replicated decisions",
			args: func(s0, s1 string) []string {
				return []string{
					"-listen", "127.0.0.1:0", "-site", s0, "-site", s1,
					"-txn", "s0:addmin:acct:-40:0 / s1:add:acct:40", "-protocol", "paxos",
					"-metrics", filepath.Join(dir, "txn.metrics"),
				}
			},
			wantOut: []string{"committed", "replicating decisions to 3 replicas"},
			metrics: []string{
				"# TYPE o2pc_coord_replog_ballot_ms summary",
				"o2pc_coord_replog_leader 1",
				"o2pc_coord_replog_term 1",
				"o2pc_coord_replog_majority_acks_total",
				// The one instance stays until a later accept carries its forget.
				`o2pc_coord_replica_instances{replica="r0"} 1`,
				`o2pc_coord_replica_wal_records{replica="r2"}`,
			},
		},
		{
			name: "bad txn spec",
			args: func(s0, s1 string) []string {
				return []string{"-listen", "127.0.0.1:0", "-site", s0, "-txn", "s0:frobnicate:k"}
			},
			wantErr: "unknown op",
		},
		{
			name: "load needs two sites",
			args: func(s0, s1 string) []string {
				return []string{"-listen", "127.0.0.1:0", "-site", s0, "-n", "3"}
			},
			wantErr: "at least two -site",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s0 := startTestSite(t, "s0")
			s1 := startTestSite(t, "s1")
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if tc.cancelCtx {
				cancel()
			}
			out := &syncBuffer{}
			err := run(ctx, tc.args(s0, s1), out)
			// run closes its servers and waits for their accept loops, so
			// nothing can write to out after it returns.
			if strings.Contains(out.String(), "serve:") {
				t.Errorf("a server reported an error:\n%s", out.String())
			}
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want substring %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("run: %v\noutput:\n%s", err, out.String())
			}
			for _, want := range tc.wantOut {
				if !strings.Contains(out.String(), want) {
					t.Errorf("output missing %q:\n%s", want, out.String())
				}
			}
			if tc.jsonl != "" {
				f, err := os.Open(tc.jsonl)
				if err != nil {
					t.Fatalf("trace file: %v", err)
				}
				events, err := trace.ReadJSONL(f)
				f.Close()
				if err != nil {
					t.Fatalf("trace parse: %v", err)
				}
				found := false
				for _, e := range events {
					if e.Type == trace.EvTxnBegin {
						found = true
					}
				}
				if !found {
					t.Errorf("trace %s has no txn.begin among %d events", tc.jsonl, len(events))
				}
				if tc.votes {
					requireVotePairs(t, events, "s0", "s1")
				}
			}
			if tc.chrome != "" {
				b, err := os.ReadFile(tc.chrome)
				if err != nil {
					t.Fatalf("chrome file: %v", err)
				}
				if !bytes.Contains(b, []byte(`"traceEvents"`)) {
					t.Errorf("chrome trace missing traceEvents envelope: %s", b[:min(len(b), 200)])
				}
			}
			if len(tc.metrics)+len(tc.nonzero) > 0 {
				text, samples := readMetrics(t, filepath.Join(dir, "txn.metrics"))
				for _, want := range tc.metrics {
					if !strings.Contains(text, want) {
						t.Errorf("metrics missing %q:\n%s", want, text)
					}
				}
				for _, name := range tc.nonzero {
					if samples[name] <= 0 {
						t.Errorf("metric %s = %v, want > 0:\n%s", name, samples[name], text)
					}
				}
			}
		})
	}
}

// requireVotePairs checks that the coordinator's trace shows a vote round
// trip to each site: a votereq.send answered by a vote.recv.
func requireVotePairs(t *testing.T, events []trace.Event, sites ...string) {
	t.Helper()
	sent, recv := make(map[string]int), make(map[string]int)
	for _, e := range events {
		if e.Type == trace.EvVoteReqSend {
			sent[e.Peer]++
		} else if e.Type == trace.EvVoteRecv {
			recv[e.Peer]++
		}
	}
	for _, site := range sites {
		if sent[site] == 0 || sent[site] != recv[site] {
			t.Errorf("%s: %d votereq.send, %d vote.recv; want a matching nonzero pair", site, sent[site], recv[site])
		}
	}
}

// committedID runs one -txn transfer and returns the transaction ID from
// its "ID: committed" line, failing the test if it did not commit.
func committedID(t *testing.T, args ...string) string {
	t.Helper()
	out := &syncBuffer{}
	args = append([]string{"-listen", "127.0.0.1:0", "-txn", "s0:addmin:acct:-40:0 / s1:add:acct:40"}, args...)
	if err := run(context.Background(), args, out); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	for _, line := range strings.Split(out.String(), "\n") {
		if id, rest, ok := strings.Cut(line, ": "); ok && strings.HasPrefix(rest, "committed") {
			return id
		}
	}
	t.Fatalf("transaction did not commit:\n%s", out.String())
	return ""
}

// TestRunTwiceAgainstSameSites pins distinct transaction IDs across
// coordinator runs: long-lived sites fence IDs they have seen decided, so
// a second run that restarted its IDs at T1 would be aborted as stale.
func TestRunTwiceAgainstSameSites(t *testing.T) {
	s0 := startTestSite(t, "s0")
	s1 := startTestSite(t, "s1")
	first := committedID(t, "-site", s0, "-site", s1)
	second := committedID(t, "-site", s0, "-site", s1)
	if first == second {
		t.Fatalf("both runs used transaction ID %q", first)
	}
}

// Gate modes of startGatedSite.
const (
	gateHold int32 = iota // hold each decision until the mode changes
	gateFail              // refuse decisions, as an unreachable site would
	gatePass              // handle decisions
)

// startGatedSite is startTestSite with the site's decisions passed through
// a gate set by mode: each Decision is counted and its transaction ID
// published on held before the gate applies.
func startGatedSite(t *testing.T, name string, mode, decisions *atomic.Int32, held chan<- string) string {
	t.Helper()
	s := site.NewSite(site.Config{Name: name})
	s.SeedInt64(storage.Key("acct"), 1000)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	handle := func(ctx context.Context, from string, req any) (any, error) {
		if d, ok := req.(proto.Decision); ok {
			decisions.Add(1)
			select {
			case held <- d.TxnID:
			default:
			}
			for m := mode.Load(); m != gatePass; m = mode.Load() {
				if m == gateFail {
					return nil, errors.New("site unreachable")
				}
				time.Sleep(time.Millisecond)
			}
		}
		return s.Handle(ctx, from, req)
	}
	go rpc.NewServer(name, handle).Serve(ln)
	return name + "=" + ln.Addr().String()
}

// serveCoord starts a coordinator run with args and returns the address it
// serves Resolve on, the channel its exit error arrives on, and its output.
func serveCoord(ctx context.Context, t *testing.T, args ...string) (string, <-chan error, *syncBuffer) {
	t.Helper()
	out := &syncBuffer{}
	done := make(chan error, 1)
	go func() { done <- run(ctx, append([]string{"-listen", "127.0.0.1:0"}, args...), out) }()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if _, rest, ok := strings.Cut(out.String(), "serving on "); ok {
			addr, _, _ := strings.Cut(rest, "\n")
			return addr, done, out
		}
		if time.Now().After(deadline) {
			t.Fatalf("coordinator never served:\n%s", out.String())
		}
	}
}

// resolveAt asks the coordinator at addr about id the way a participant
// blocked in doubt would.
func resolveAt(ctx context.Context, t *testing.T, addr, id string) proto.ResolveReply {
	t.Helper()
	client := rpc.NewTCPClient(map[string]string{"c0": addr})
	defer client.Close()
	raw, err := client.Call(ctx, "s0", "c0", proto.ResolveRequest{TxnID: id})
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	rep, ok := raw.(proto.ResolveReply)
	if !ok {
		t.Fatalf("resolve %s = %#v", id, raw)
	}
	return rep
}

// TestWALRestartAnswersResolve follows a -wal coordinator's decision
// across a restart. While a participant has not acked it, the coordinator
// answers a Resolve inquiry for the transaction. A coordinator restarted
// serve-only over the log re-delivers the decision, and once every
// participant has acked it the transaction is forgotten: the log ends with
// its END, and the inquiry is answered Known:false.
func TestWALRestartAnswersResolve(t *testing.T) {
	s0 := startTestSite(t, "s0")
	held := make(chan string, 1)
	var mode, decisions atomic.Int32
	s1 := startGatedSite(t, "s1", &mode, &decisions, held)
	walPath := filepath.Join(t.TempDir(), "c0.wal")

	ctx, cancel := context.WithCancel(context.Background())
	addr, done, out := serveCoord(ctx, t, "-site", s0, "-site", s1, "-wal", walPath,
		"-txn", "s0:addmin:acct:-40:0 / s1:add:acct:40", "-protocol", "2pc")
	var id string
	select {
	case id = <-held:
	case <-time.After(5 * time.Second):
		t.Fatalf("s1 never received the decision:\n%s", out.String())
	}
	if rep := resolveAt(ctx, t, addr, id); !rep.Known || !rep.Commit {
		t.Fatalf("resolve %s while s1's ack is pending = %+v, want Known=true Commit=true", id, rep)
	}
	// The coordinator stops before s1 acks: its log holds the decision
	// without an END.
	cancel()
	mode.Store(gateFail)
	if err := <-done; err != nil {
		t.Fatalf("first run: %v\noutput:\n%s", err, out.String())
	}

	mode.Store(gatePass)
	sent := decisions.Load()
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	addr, done, out = serveCoord(ctx, t, "-site", s0, "-site", s1, "-wal", walPath)
	if got := decisions.Load(); got <= sent {
		t.Fatalf("restarted coordinator did not re-deliver the decision to s1")
	}
	if rep := resolveAt(ctx, t, addr, id); rep.Known {
		t.Fatalf("resolve %s after every ack = %+v, want Known=false", id, rep)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("serve-only run: %v\noutput:\n%s", err, out.String())
	}
	log, err := wal.OpenFileLog(walPath)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	records, err := log.Records()
	if err != nil {
		t.Fatal(err)
	}
	if last := records[len(records)-1]; last.Type != wal.RecEnd || last.TxnID != id {
		t.Fatalf("log ends with %v %s, want END %s", last.Type, last.TxnID, id)
	}
}

// TestLoadgenRun drives load mode against two live TCP sites: a mixed
// one-shot/session workload with dooms, self-scraping through the
// coordinator's own ops plane, and a BENCH-style summary whose scraped
// view must agree with the client-measured one.
func TestLoadgenRun(t *testing.T) {
	s0 := startTestSite(t, "s0")
	s1 := startTestSite(t, "s1")
	out := &syncBuffer{}
	summaryPath := filepath.Join(t.TempDir(), "summary.json")

	err := run(context.Background(), []string{
		"-name", "lg", "-listen", "127.0.0.1:0",
		"-site", s0, "-site", s1,
		"-clients", "4", "-n", "60",
		"-session-frac", "0.4", "-rounds", "2",
		"-doom", "0.2", "-seed", "1",
		"-scrape-interval", "20ms", "-table", "25ms",
		"-ops-addr", "127.0.0.1:0",
		"-out", summaryPath,
	}, out)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}

	text := out.String()
	if strings.Contains(text, "serve:") {
		t.Errorf("resolve server reported an error:\n%s", text)
	}
	for _, want := range []string{
		"coordinator lg serving on",
		"funded 4 account(s) x 2 site(s)",
		"ops plane on http://",
		"load: 60 txns",
		"committed",
		"client latency(ms):",
		"scraped self:",
		"summary written to",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}

	raw, err := os.ReadFile(summaryPath)
	if err != nil {
		t.Fatalf("summary: %v", err)
	}
	var summary struct {
		Benchmarks map[string]map[string]float64 `json:"benchmarks"`
	}
	if err := json.Unmarshal(raw, &summary); err != nil {
		t.Fatalf("summary parse: %v\n%s", err, raw)
	}
	total := summary.Benchmarks["Loadgen/total"]
	if total == nil {
		t.Fatalf("summary missing Loadgen/total: %s", raw)
	}
	if total["iterations"] != 60 {
		t.Errorf("iterations = %v, want 60", total["iterations"])
	}
	if total["txn_per_s"] <= 0 || total["p50_ms"] <= 0 || total["p99_ms"] <= 0 {
		t.Errorf("degenerate totals: %+v", total)
	}
	// With site-ordered transfer subtxns and funded accounts, the only
	// systematic aborts are the 20% dooms — the run must commit well over
	// half its transactions rather than collapsing into lock-timeout churn.
	if total["pct_commit"] < 50 {
		t.Errorf("pct_commit = %.1f, want > 50 (deadlock/funding regression?)\n%s", total["pct_commit"], text)
	}
	scraped := summary.Benchmarks["Loadgen/scraped"]
	if scraped == nil {
		t.Fatalf("summary missing Loadgen/scraped: %s", raw)
	}
	// The scraped coordinator counted exactly the transactions the clients
	// issued, so the two throughput numbers must agree well inside the 10%
	// acceptance band.
	if rel := math.Abs(scraped["txn_per_s"]-total["txn_per_s"]) / total["txn_per_s"]; rel > 0.10 {
		t.Errorf("scraped txn/s %.2f vs client %.2f: off by %.1f%%",
			scraped["txn_per_s"], total["txn_per_s"], 100*rel)
	}
	if scraped["iterations"] != 60 {
		t.Errorf("scraped iterations = %v, want 60", scraped["iterations"])
	}
	// Latency is measured at two points of the same call path (around
	// c.Run vs inside it); on loopback they track closely, but leave slack
	// for scheduler noise under -race.
	if total["p50_ms"] > 0 && scraped["p50_ms"] > 0 {
		if ratio := scraped["p50_ms"] / total["p50_ms"]; ratio < 0.5 || ratio > 1.5 {
			t.Errorf("scraped p50 %.3fms vs client %.3fms: ratio %.2f", scraped["p50_ms"], total["p50_ms"], ratio)
		}
	}
	if oneshot := summary.Benchmarks["Loadgen/oneshot"]; oneshot["iterations"]+summary.Benchmarks["Loadgen/session"]["iterations"] != 60 {
		t.Errorf("one-shot (%v) + session (%v) iterations != 60",
			oneshot["iterations"], summary.Benchmarks["Loadgen/session"]["iterations"])
	}
}

// countingListener counts the connections it accepted that are still open.
type countingListener struct {
	net.Listener
	open atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.open.Add(1)
	return &countedConn{Conn: conn, l: l}, nil
}

type countedConn struct {
	net.Conn
	l    *countingListener
	once sync.Once
}

func (c *countedConn) Close() error {
	c.once.Do(func() { c.l.open.Add(-1) })
	return c.Conn.Close()
}

// TestRunClosesClients: once run returns, every connection it opened to a
// site is closed — the coordinator's, the seeder's in load mode, and the
// replica client's under Paxos Commit — so the site's server sees each
// one end and closes its side within a second.
func TestRunClosesClients(t *testing.T) {
	s1 := startTestSite(t, "s1")
	s := site.NewSite(site.Config{Name: "s0"})
	s.SeedInt64(storage.Key("acct"), 1000)
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &countingListener{Listener: inner}
	t.Cleanup(func() { ln.Close() })
	go rpc.NewServer("s0", s.Handle).Serve(ln)
	s0 := "s0=" + inner.Addr().String()

	for _, args := range [][]string{
		{"-txn", "s0:add:acct:-1 / s1:add:acct:1"},
		{"-n", "20", "-clients", "2", "-table", "0", "-protocol", "paxos"},
	} {
		out := &syncBuffer{}
		args = append([]string{"-listen", "127.0.0.1:0", "-site", s0, "-site", s1}, args...)
		if err := run(context.Background(), args, out); err != nil {
			t.Fatalf("run %v: %v\noutput:\n%s", args, err, out.String())
		}
		deadline := time.Now().Add(time.Second)
		for ln.open.Load() != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("run %v returned with %d connection(s) to s0 still open after 1s", args, ln.open.Load())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// TestLoadgenStopsResolveServer pins the shutdown order on an error path
// taken after the resolve server is up: run closes the server and waits
// for its accept loop before returning, so no "serve:" line reaches the
// output, then or later.
func TestLoadgenStopsResolveServer(t *testing.T) {
	s0 := startTestSite(t, "s0")
	s1 := startTestSite(t, "s1")
	out := &syncBuffer{}
	err := run(context.Background(), []string{
		"-listen", "127.0.0.1:0", "-site", s0, "-site", s1, "-n", "1",
		"-ops-addr", "127.0.0.1:-1", // fails after the resolve server is up
	}, out)
	if err == nil {
		t.Fatalf("run with an unusable -ops-addr succeeded:\n%s", out.String())
	}
	time.Sleep(20 * time.Millisecond) // a leaked accept loop would report by now
	if strings.Contains(out.String(), "serve:") {
		t.Fatalf("accept loop outlived run:\n%s", out.String())
	}
}

// TestLoadgenFlagValidation exercises the fail-fast paths.
func TestLoadgenFlagValidation(t *testing.T) {
	two := []string{"-site", "s0=127.0.0.1:1", "-site", "s1=127.0.0.1:2"}
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"no sites", []string{"-n", "5"}, "two -site"},
		{"one site", []string{"-n", "5", "-site", "s0=127.0.0.1:1"}, "two -site"},
		{"bad rounds", append([]string{"-n", "5", "-rounds", "0"}, two...), "-rounds"},
		{"bad keys", append([]string{"-n", "5", "-keys", "0"}, two...), "-keys"},
		{"bad site flag", []string{"-site", "s0"}, "name=value"},
		{"txn with n", append([]string{"-txn", "s0:add:acct:1", "-n", "5"}, two...), "-txn conflicts"},
		{"txn with duration", append([]string{"-txn", "s0:add:acct:1", "-duration", "1s"}, two...), "-txn conflicts"},
		{"bad protocol", append([]string{"-n", "5", "-protocol", "3pc"}, two...), "want 2pc, o2pc or paxos"},
		{"bad marking", append([]string{"-n", "5", "-marking", "p3"}, two...), "want none, p1, p2 or simple"},
		{"bad comp", append([]string{"-txn", "s0:add:acct:1", "-comp", "foo"}, two...), "want semantic, before-image or none"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(context.Background(), tc.args, &syncBuffer{})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestNormalizeScrapeURL(t *testing.T) {
	cases := map[string]string{
		"127.0.0.1:9100":                "http://127.0.0.1:9100/metrics",
		"127.0.0.1:9100/metrics":        "http://127.0.0.1:9100/metrics",
		"http://h:1/metrics":            "http://h:1/metrics",
		"http://h:1":                    "http://h:1/metrics",
		"https://h:1/custom/path":       "https://h:1/custom/path",
		"h.example.com:9100/other/path": "http://h.example.com:9100/other/path",
	}
	for in, want := range cases {
		if got := normalizeScrapeURL(in); got != want {
			t.Errorf("normalizeScrapeURL(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestParsePromText(t *testing.T) {
	in := `# HELP m_total things
# TYPE m_total counter
m_total 41
m_ms{quantile="0.5"} 1.25
m_ms{site="a b",quantile="0.99"} 7
malformed line without number trailing
`
	got, err := parsePromText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if got["m_total"] != 41 {
		t.Errorf("m_total = %v", got["m_total"])
	}
	if got[`m_ms{quantile="0.5"}`] != 1.25 {
		t.Errorf("quantile sample = %v", got[`m_ms{quantile="0.5"}`])
	}
	// Label values may contain spaces; the split is at the LAST space.
	if got[`m_ms{site="a b",quantile="0.99"}`] != 7 {
		t.Errorf("labeled sample = %v", got)
	}
	if _, ok := got["malformed line without number"]; ok {
		t.Errorf("malformed line parsed: %v", got)
	}
}

func TestParseTxnSingleOps(t *testing.T) {
	subs, err := parseTxn("s0:addmin:acct:-40:0 / s1:add:acct:40 / s1:read:acct", proto.CompSemantic)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(subs) != 2 {
		t.Fatalf("subs = %+v", subs)
	}
	if subs[0].Site != "s0" || len(subs[0].Ops) != 1 {
		t.Fatalf("sub0 = %+v", subs[0])
	}
	op := subs[0].Ops[0]
	if op.Kind != proto.OpAdd || op.Delta != -40 || !op.HasMin || op.Min != 0 {
		t.Fatalf("op0 = %+v", op)
	}
	// Ops for the same site merge into one subtransaction, in order.
	if len(subs[1].Ops) != 2 || subs[1].Ops[0].Kind != proto.OpAdd || subs[1].Ops[1].Kind != proto.OpRead {
		t.Fatalf("sub1 = %+v", subs[1])
	}
	if subs[0].Comp != proto.CompSemantic {
		t.Fatalf("comp = %v", subs[0].Comp)
	}
}

func TestParseTxnWriteAndDelete(t *testing.T) {
	subs, err := parseTxn("s0:write:name:alice", proto.CompBeforeImage)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if string(subs[0].Ops[0].Value) != "alice" {
		t.Fatalf("value = %q", subs[0].Ops[0].Value)
	}
}

func TestParseTxnErrors(t *testing.T) {
	for _, bad := range []string{
		"",
		"s0",
		"s0:frobnicate:k",
		"s0:write:k",      // missing value
		"s0:add:k",        // missing delta
		"s0:add:k:notnum", // bad delta
		"s0:addmin:k:-1",  // missing min
	} {
		if _, err := parseTxn(bad, proto.CompSemantic); err == nil {
			t.Errorf("parseTxn(%q) accepted", bad)
		}
	}
}

func TestParseComp(t *testing.T) {
	for name, want := range map[string]proto.CompMode{
		"semantic":     proto.CompSemantic,
		"before-image": proto.CompBeforeImage,
		"none":         proto.CompNone,
	} {
		if got, err := parseComp(name); err != nil || got != want {
			t.Errorf("parseComp(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := parseComp("anything-else"); err == nil || !strings.Contains(err.Error(), "semantic, before-image or none") {
		t.Errorf("parseComp(anything-else) err = %v, want the accepted names", err)
	}
}
