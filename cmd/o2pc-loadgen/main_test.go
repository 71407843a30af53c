package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"o2pc/internal/rpc"
	"o2pc/internal/site"
)

// syncBuffer is a goroutine-safe stdout sink: the live table and scrape
// goroutines write concurrently with the main run.
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

// startTestSite serves a real site over TCP loopback. Accounts start
// empty: the loadgen's own -fund seeding pass must make them usable.
func startTestSite(t *testing.T, name string) string {
	t.Helper()
	s := site.NewSite(site.Config{Name: name})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go rpc.NewServer(name, s.Handle).Serve(ln)
	return name + "=" + ln.Addr().String()
}

// TestLoadgenRun drives the full loadgen against two live TCP sites: a
// mixed one-shot/session workload with dooms, self-scraping through its
// own ops plane, and a BENCH-style summary whose scraped view must agree
// with the client-measured one.
func TestLoadgenRun(t *testing.T) {
	s0 := startTestSite(t, "s0")
	s1 := startTestSite(t, "s1")
	out := &syncBuffer{}
	summaryPath := filepath.Join(t.TempDir(), "summary.json")

	err := run(context.Background(), []string{
		"-listen", "127.0.0.1:0",
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
		"resolve server on",
		"funded 4 account(s) x 2 site(s)",
		"ops plane on http://",
		"loadgen: 60 txns",
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
		"-ops-addr", "127.0.0.1:-1", // fails after funding
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
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"no sites", []string{"-n", "5"}, "two -site"},
		{"one site", []string{"-n", "5", "-site", "s0=127.0.0.1:1"}, "two -site"},
		{"unbounded", []string{"-n", "0", "-site", "s0=127.0.0.1:1", "-site", "s1=127.0.0.1:2"}, "-n or -duration"},
		{"bad rounds", []string{"-rounds", "0", "-site", "s0=127.0.0.1:1", "-site", "s1=127.0.0.1:2"}, "-rounds"},
		{"bad keys", []string{"-keys", "0", "-site", "s0=127.0.0.1:1", "-site", "s1=127.0.0.1:2"}, "-keys"},
		{"bad site flag", []string{"-site", "s0"}, "name=value"},
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
