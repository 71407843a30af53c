package ops

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"o2pc/internal/metrics"
	"o2pc/internal/sim"
	"o2pc/internal/site"
	"o2pc/internal/trace"
	"o2pc/internal/wal"
)

// get serves one request through the ops handler and returns the recorder.
func get(t *testing.T, s *Server, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec
}

func TestMetricsEndpoint(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("static_total").Add(7)
	collected := 0
	s := NewServer(Config{
		Node:     "n0",
		Registry: reg,
		Collect: func(r *metrics.Registry) {
			collected++
			// Lazily appearing series must show up on the scrape that
			// collected them — the per-site vote-RTT pattern.
			r.Counter(metrics.Label("late_total", "site", fmt.Sprintf("s%d", collected))).Inc()
		},
	})
	rec := get(t, s, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{"static_total 7", `late_total{site="s1"} 1`} {
		if !strings.Contains(body, want) {
			t.Fatalf("scrape missing %q:\n%s", want, body)
		}
	}
	if collected != 1 {
		t.Fatalf("collect ran %d times, want 1", collected)
	}
	if got := get(t, s, "/metrics").Body.String(); !strings.Contains(got, `late_total{site="s2"}`) {
		t.Fatalf("second scrape did not re-collect:\n%s", got)
	}
}

func TestHealthAndReadyEndpoints(t *testing.T) {
	var health, ready error
	s := NewServer(Config{
		Registry: metrics.NewRegistry(),
		Health:   func() error { return health },
		Ready:    func() error { return ready },
	})
	if rec := get(t, s, "/healthz"); rec.Code != 200 || rec.Body.String() != "ok\n" {
		t.Fatalf("healthy: %d %q", rec.Code, rec.Body.String())
	}
	health = fmt.Errorf("site: crashed")
	if rec := get(t, s, "/healthz"); rec.Code != 503 || !strings.Contains(rec.Body.String(), "crashed") {
		t.Fatalf("unhealthy: %d %q", rec.Code, rec.Body.String())
	}
	if rec := get(t, s, "/readyz"); rec.Code != 200 {
		t.Fatalf("ready while unhealthy should still consult Ready only: %d", rec.Code)
	}
	ready = fmt.Errorf("wal: disk full")
	if rec := get(t, s, "/readyz"); rec.Code != 503 {
		t.Fatalf("unready: %d", rec.Code)
	}
}

func TestReadyFallsBackToHealth(t *testing.T) {
	s := NewServer(Config{
		Registry: metrics.NewRegistry(),
		Health:   func() error { return fmt.Errorf("down") },
	})
	if rec := get(t, s, "/readyz"); rec.Code != 503 {
		t.Fatalf("readyz without Ready func should fall back to Health: %d", rec.Code)
	}
}

func TestVarsEndpoint(t *testing.T) {
	s := NewServer(Config{
		Node:     "s0",
		Registry: metrics.NewRegistry(),
		Vars:     map[string]any{"listen": "127.0.0.1:7101", "wal": "memory"},
	})
	rec := get(t, s, "/debug/vars")
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	var vars map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &vars); err != nil {
		t.Fatalf("vars not JSON: %v\n%s", err, rec.Body.String())
	}
	if vars["node"] != "s0" {
		t.Fatalf("node = %v", vars["node"])
	}
	cfg, ok := vars["config"].(map[string]any)
	if !ok || cfg["wal"] != "memory" {
		t.Fatalf("config = %v", vars["config"])
	}
}

func TestPprofEndpoints(t *testing.T) {
	s := NewServer(Config{Registry: metrics.NewRegistry()})
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/heap", "/debug/pprof/goroutine"} {
		if rec := get(t, s, path); rec.Code != 200 || rec.Body.Len() == 0 {
			t.Fatalf("%s: %d (%d bytes)", path, rec.Code, rec.Body.Len())
		}
	}
}

// emitScript replays a fixed protocol-shaped event sequence under a fresh
// virtual clock. Two invocations must produce byte-identical traces.
func emitScript(t *testing.T) *trace.Tracer {
	t.Helper()
	clk := sim.NewVirtualClock()
	tr := trace.New(clk, 64)
	g := sim.NewGroup(clk)
	g.Go(func() {
		ctx := context.Background()
		tr.Emit("c0", trace.EvTxnBegin, "T1", "", "")
		tr.Emit("c0", trace.EvVoteReqSend, "T1", "s0", "")
		_ = clk.Sleep(ctx, 3*time.Millisecond)
		tr.Emit("s0", trace.EvVoteYes, "T1", "c0", "")
		tr.Emit("s0", trace.EvExposed, "T1", "", "")
		_ = clk.Sleep(ctx, 2*time.Millisecond)
		tr.Emit("c0", trace.EvVoteRecv, "T1", "s0", "yes")
		tr.Emit("c0", trace.EvDecisionReached, "T1", "", "commit")
		_ = clk.Sleep(ctx, time.Millisecond)
		tr.Emit("s0", trace.EvDecisionRecv, "T1", "", "commit")
	})
	g.Wait()
	return tr
}

func TestTraceRecentByteStable(t *testing.T) {
	serve := func(tr *trace.Tracer, path string) *httptest.ResponseRecorder {
		s := NewServer(Config{Registry: metrics.NewRegistry(), Tracer: tr})
		return get(t, s, path)
	}
	a := serve(emitScript(t), "/trace/recent")
	b := serve(emitScript(t), "/trace/recent")
	if a.Code != 200 || b.Code != 200 {
		t.Fatalf("status = %d / %d", a.Code, b.Code)
	}
	if a.Body.String() != b.Body.String() {
		t.Fatalf("seeded virtual-time traces differ:\n%s\n---\n%s", a.Body.String(), b.Body.String())
	}
	if lines := strings.Count(a.Body.String(), "\n"); lines != 7 {
		t.Fatalf("got %d JSONL lines, want 7:\n%s", lines, a.Body.String())
	}
	// Every line parses back to an event.
	events, err := trace.ReadJSONL(strings.NewReader(a.Body.String()))
	if err != nil || len(events) != 7 {
		t.Fatalf("re-read: %v (%d events)", err, len(events))
	}
}

func TestTraceRecentDrain(t *testing.T) {
	tr := emitScript(t)
	s := NewServer(Config{Registry: metrics.NewRegistry(), Tracer: tr})
	first := get(t, s, "/trace/recent?drain=1")
	if strings.Count(first.Body.String(), "\n") != 7 {
		t.Fatalf("drain returned:\n%s", first.Body.String())
	}
	if second := get(t, s, "/trace/recent?drain=1"); second.Body.Len() != 0 {
		t.Fatalf("second drain not empty:\n%s", second.Body.String())
	}
}

func TestTraceRecentWithoutTracer(t *testing.T) {
	s := NewServer(Config{Registry: metrics.NewRegistry()})
	if rec := get(t, s, "/trace/recent"); rec.Code != 404 {
		t.Fatalf("status = %d, want 404", rec.Code)
	}
}

// gatedLog wraps a wal.Log and blocks Records until released — it holds a
// Site inside Recover's WAL replay so the test can observe health there.
type gatedLog struct {
	wal.Log
	gate <-chan struct{}
}

func (g *gatedLog) Records() ([]wal.Record, error) {
	<-g.gate
	return g.Log.Records()
}

// TestHealthzDuringRecover drives the satellite requirement end to end:
// /healthz is 200 on a fresh site, 503 (recovering) while Site.Recover
// replays the WAL, and 200 again once the site reopens.
func TestHealthzDuringRecover(t *testing.T) {
	gate := make(chan struct{})
	st := site.NewSite(site.Config{Name: "s0", Log: &gatedLog{Log: wal.NewMemoryLog(), gate: gate}})
	s := NewServer(Config{Node: "s0", Registry: metrics.NewRegistry(), Health: st.Health, Ready: st.Ready})

	if rec := get(t, s, "/healthz"); rec.Code != 200 {
		t.Fatalf("fresh site: %d %s", rec.Code, rec.Body.String())
	}

	done := make(chan error, 1)
	go func() {
		_, err := st.Recover(context.Background())
		done <- err
	}()
	// Recover is parked on the gated WAL; wait for the flag to flip.
	deadline := time.Now().Add(5 * time.Second)
	for {
		rec := get(t, s, "/healthz")
		if rec.Code == http.StatusServiceUnavailable {
			if !strings.Contains(rec.Body.String(), "recovering") {
				t.Fatalf("503 reason = %q, want recovering", rec.Body.String())
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthz never went 503 during recovery")
		}
		time.Sleep(time.Millisecond)
	}

	close(gate)
	if err := <-done; err != nil {
		t.Fatalf("recover: %v", err)
	}
	if rec := get(t, s, "/healthz"); rec.Code != 200 {
		t.Fatalf("after recovery: %d %s", rec.Code, rec.Body.String())
	}
	if rec := get(t, s, "/readyz"); rec.Code != 200 {
		t.Fatalf("readyz after recovery: %d %s", rec.Code, rec.Body.String())
	}
}

func TestStartServeShutdown(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("up_total").Inc()
	s := NewServer(Config{Node: "n0", Registry: reg})
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if _, err := fmt.Fprint(&sb, readAll(t, resp)); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"up_total 1", "ops_goroutines", "ops_heap_alloc_bytes"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("live scrape missing %q:\n%s", want, sb.String())
		}
	}
	if s.Addr() != addr {
		t.Fatalf("Addr() = %q, want %q", s.Addr(), addr)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Fatalf("server still serving after shutdown")
	}
	// Second shutdown is a no-op.
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("double shutdown: %v", err)
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			return sb.String()
		}
	}
}
