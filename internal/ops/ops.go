// Package ops is the live operations plane of the cluster binaries: a
// stdlib net/http server exposing the Prometheus text rendering of a
// metrics.Registry, liveness/readiness probes wired to the node's
// crash/recover epoch, the runtime's pprof profiles, build/config vars,
// and a JSONL tail of the bounded trace ring.
//
// Endpoints:
//
//	GET /metrics        Prometheus text exposition (Registry.WriteText)
//	GET /healthz        200 "ok" while the node is up, 503 + reason otherwise
//	GET /readyz         healthz plus a WAL-writability probe
//	GET /debug/pprof/*  CPU, heap, goroutine, block, mutex profiles
//	GET /debug/vars     build info, node config vars as JSON
//	GET /trace/recent   retained trace events as JSONL; ?drain=1 empties
//	                    the ring so repeated calls tail the live stream
//
// The package is the one place outside internal/sim, examples/ and
// cmd/o2pc-bench where wall-clock time is legal (the o2pcvet walltime
// analyzer allowlists it): the live sampler and uptime reporting are
// meaningful only in wall time, and nothing here runs under the virtual
// clock. Protocol metrics themselves are observed by coord/site through
// the injected sim.Clock, so deterministic virtual-time runs never touch
// this package.
package ops

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"o2pc/internal/metrics"
	"o2pc/internal/trace"
)

// CheckFunc probes one aspect of node health; nil means healthy.
type CheckFunc func() error

// Config wires a Server to its node.
type Config struct {
	// Node names the node for /debug/vars and log lines.
	Node string
	// Registry is rendered by /metrics. Required.
	Registry *metrics.Registry
	// Collect, when non-nil, runs before every /metrics render — the hook
	// where a node re-Publishes its Stats so lazily created series (e.g.
	// per-site vote-RTT histograms) appear on the next scrape.
	Collect func(*metrics.Registry)
	// Health backs /healthz; a nil func means always healthy.
	Health CheckFunc
	// Ready backs /readyz; a nil func falls back to Health.
	Ready CheckFunc
	// Tracer, when non-nil, backs /trace/recent.
	Tracer *trace.Tracer
	// Vars is merged into /debug/vars (flag values, seeds, config).
	Vars map[string]any
}

// Server serves the operations plane for one node. Create with NewServer,
// then either Start (own listener, background goroutine) or mount
// Handler on an existing server.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	start   time.Time
	sampler *sampler

	mu      sync.Mutex
	httpSrv *http.Server
	addr    string
}

// NewServer builds the ops plane for a node. cfg.Registry must be set; the
// live runtime gauges (ops_* names) are registered in it and refreshed on
// every /metrics scrape.
func NewServer(cfg Config) *Server {
	if cfg.Registry == nil {
		panic("ops: Config.Registry is required")
	}
	s := &Server{cfg: cfg, mux: http.NewServeMux(), start: time.Now(), sampler: newSampler(cfg.Registry)}
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", checkHandler(cfg.Health))
	ready := cfg.Ready
	if ready == nil {
		ready = cfg.Health
	}
	s.mux.HandleFunc("GET /readyz", checkHandler(ready))
	s.mux.HandleFunc("GET /debug/vars", s.handleVars)
	s.mux.HandleFunc("GET /trace/recent", s.handleTrace)
	// pprof.Index dispatches /debug/pprof/<name> to every runtime profile
	// (heap, goroutine, block, mutex, allocs, threadcreate); the four
	// below need their own handlers.
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return s
}

// Handler returns the ops plane as an http.Handler (tests, embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Start listens on addr ("host:port", port 0 for ephemeral) and serves in
// a background goroutine until Shutdown. It returns the bound address.
// Block/mutex profiling rates are switched on for the server's lifetime.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("ops: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: s.mux}
	s.mu.Lock()
	s.httpSrv = srv
	s.addr = ln.Addr().String()
	s.mu.Unlock()
	go func() {
		// ErrServerClosed is the normal Shutdown path; anything else has
		// already surfaced to clients as failed scrapes.
		_ = srv.Serve(ln)
	}()
	enableProfiles()
	return s.addr, nil
}

// Addr returns the bound address after Start ("" before).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.addr
}

// Shutdown gracefully stops the server: in-flight scrapes finish and
// profiling rates are restored. Safe to call without a prior Start (no-op)
// and more than once after one.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	srv := s.httpSrv
	s.httpSrv = nil
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	disableProfiles()
	return srv.Shutdown(ctx)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Collect != nil {
		s.cfg.Collect(s.cfg.Registry)
	}
	s.sampler.sample(time.Since(s.start))
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	// Write errors mean the scraper went away mid-response; there is no
	// one left to report them to.
	_ = s.cfg.Registry.WriteText(w)
}

// checkHandler renders a CheckFunc as 200 "ok" / 503 + reason.
func checkHandler(check CheckFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if check != nil {
			if err := check(); err != nil {
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
				return
			}
		}
		fmt.Fprintln(w, "ok")
	}
}

func (s *Server) handleVars(w http.ResponseWriter, r *http.Request) {
	vars := map[string]any{
		"node":     s.cfg.Node,
		"pid":      os.Getpid(),
		"go":       runtime.Version(),
		"uptime_s": time.Since(s.start).Seconds(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		build := map[string]string{"path": bi.Path}
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision", "vcs.time", "vcs.modified", "GOARCH", "GOOS":
				build[kv.Key] = kv.Value
			}
		}
		vars["build"] = build
	}
	if len(s.cfg.Vars) > 0 {
		vars["config"] = s.cfg.Vars
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// encoding/json sorts map keys, so the rendering is deterministic.
	_ = enc.Encode(vars)
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Tracer == nil {
		http.Error(w, "no tracer configured", http.StatusNotFound)
		return
	}
	var events []trace.Event
	if r.URL.Query().Get("drain") == "1" {
		events = s.cfg.Tracer.Drain()
	} else {
		events = s.cfg.Tracer.Events()
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	_ = trace.WriteJSONL(w, events)
}
