// Command o2pc-site runs one participant DBMS as a standalone process
// serving the commit-protocol messages over TCP. Together with o2pc-coord
// it deploys the system as a real multi-process multidatabase.
//
// Example (three shells):
//
//	o2pc-site -name s0 -listen 127.0.0.1:7101 -coord c0=127.0.0.1:7001 -seed acct=100
//	o2pc-site -name s1 -listen 127.0.0.1:7102 -coord c0=127.0.0.1:7001 -seed acct=100
//	o2pc-coord -name c0 -listen 127.0.0.1:7001 \
//	    -site s0=127.0.0.1:7101 -site s1=127.0.0.1:7102 \
//	    -txn "s0:addmin:acct:-40:0 / s1:add:acct:40" -protocol o2pc -marking p1
//
// With -ops-addr the site also serves the live operations plane
// (Prometheus /metrics, /healthz, /readyz, /debug/pprof, /trace/recent);
// /healthz tracks the site's crash/recover epoch, so a scraper watching
// it sees 503 while -recover replays the WAL. SIGINT/SIGTERM shut both
// servers down gracefully.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"maps"
	"net"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"o2pc/internal/metrics"
	"o2pc/internal/ops"
	"o2pc/internal/rpc"
	"o2pc/internal/sim"
	"o2pc/internal/site"
	"o2pc/internal/storage"
	"o2pc/internal/trace"
	"o2pc/internal/wal"
)

// addrList collects repeated name=addr flags.
type addrList map[string]string

func (a addrList) String() string { return fmt.Sprint(map[string]string(a)) }
func (a addrList) Set(v string) error {
	name, addr, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("want name=host:port, got %q", v)
	}
	a[name] = addr
	return nil
}

// seedList collects repeated key=int64 flags.
type seedList map[string]int64

func (s seedList) String() string { return fmt.Sprint(map[string]int64(s)) }
func (s seedList) Set(v string) error {
	key, val, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("want key=int, got %q", v)
	}
	n, err := strconv.ParseInt(val, 10, 64)
	if err != nil {
		return err
	}
	s[key] = n
	return nil
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "o2pc-site:", err)
		os.Exit(1)
	}
}

// run is the testable entrypoint: it serves until ctx is cancelled (the
// signal handler in main), then shuts both servers down gracefully.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("o2pc-site", flag.ContinueOnError)
	name := fs.String("name", "s0", "site node name")
	listen := fs.String("listen", "127.0.0.1:7101", "listen address")
	walPath := fs.String("wal", "", "write-ahead log file (default: in-memory)")
	recover := fs.Bool("recover", false, "recover state from the WAL before serving")
	opsAddr := fs.String("ops-addr", "", "serve the operations HTTP plane (metrics, health, pprof, trace) on this address")
	coords := addrList{}
	fs.Var(coords, "coord", "coordinator address as name=host:port (repeatable)")
	seeds := seedList{}
	fs.Var(seeds, "seed", "initial integer value as key=value (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := site.Config{Name: *name}
	if *walPath != "" {
		fl, err := wal.OpenFileLog(*walPath)
		if err != nil {
			return fmt.Errorf("open wal: %w", err)
		}
		//o2pcvet:ignore errflow -- process-exit close; every append the protocol relies on was synced when it was logged
		defer fl.Close()
		cfg.Log = fl
	}
	var tracer *trace.Tracer
	if *opsAddr != "" {
		// The ops plane's /trace/recent tails this ring.
		tracer = trace.New(sim.Real(), trace.DefaultNodeCapacity)
		cfg.Tracer = tracer
	}
	s := site.NewSite(cfg)
	if len(coords) > 0 {
		s.SetCaller(rpc.NewTCPClient(coords))
	}

	// Start the ops plane before recovery: /healthz reports 503
	// (recovering) while the WAL replays, exactly the window an operator
	// watches on a restarting site.
	var opsSrv *ops.Server
	if *opsAddr != "" {
		reg := metrics.NewRegistry()
		opsSrv = ops.NewServer(ops.Config{
			Node:     *name,
			Registry: reg,
			Collect:  func(r *metrics.Registry) { s.Stats().Publish(r, "o2pc_site_") },
			Health:   s.Health,
			Ready:    s.Ready,
			Tracer:   tracer,
			Vars: map[string]any{
				"name":   *name,
				"listen": *listen,
				"wal":    walOrMemory(*walPath),
				"coords": map[string]string(coords),
				"seeds":  map[string]int64(seeds),
			},
		})
		bound, err := opsSrv.Start(*opsAddr)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "site %s ops plane on http://%s\n", *name, bound)
	}

	if *recover {
		res, err := s.Recover(ctx)
		if err != nil {
			return fmt.Errorf("recover: %w", err)
		}
		log.Printf("recovered: %d redone, %d undone, %d in doubt",
			len(res.Redone), len(res.Undone), len(res.InDoubt))
	}
	// Seed in sorted key order: SeedInt64 appends to the WAL, and the log
	// must not depend on map iteration order. A key the recovered store
	// already holds keeps its value: re-seeding it on restart would log a
	// committed overwrite that creates or destroys money.
	for _, key := range slices.Sorted(maps.Keys(seeds)) {
		if _, err := s.ReadKey(storage.Key(key)); err == nil {
			fmt.Fprintf(stdout, "seed %s skipped: recovered value kept\n", key)
			continue
		}
		s.SeedInt64(storage.Key(key), seeds[key])
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	fmt.Fprintf(stdout, "site %s serving on %s (wal=%s)\n", *name, ln.Addr(), walOrMemory(*walPath))
	srv := rpc.NewServer(*name, s.Handle)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	select {
	case <-ctx.Done():
		// Graceful shutdown: stop accepting protocol traffic, then drain
		// the ops plane so a final scrape can finish.
		err = srv.Close()
		<-done
	case err = <-done:
	}
	if opsSrv != nil {
		sctx, cancel := sim.Real().WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		if serr := opsSrv.Shutdown(sctx); serr != nil && err == nil {
			err = serr
		}
	}
	return err
}

func walOrMemory(p string) string {
	if p == "" {
		return "memory"
	}
	return p
}
