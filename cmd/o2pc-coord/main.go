// Command o2pc-coord runs a coordinator process over TCP: it serves
// Resolve inquiries from blocked participants and executes global
// transactions against o2pc-site processes.
//
// A transaction is described with -txn as slash-separated subtransactions,
// each "site:op:key[:arg[:arg]]" with ops:
//
//	read:key              read a key
//	write:key:value       write a string value
//	add:key:delta         int64 increment
//	addmin:key:delta:min  increment that votes NO below min
//
// Example:
//
//	o2pc-coord -name c0 -listen 127.0.0.1:7001 \
//	    -site s0=127.0.0.1:7101 -site s1=127.0.0.1:7102 \
//	    -txn "s0:addmin:acct:-40:0 / s1:add:acct:40" -protocol o2pc -marking p1
//
// With -repeat N the transaction runs N times and a latency summary is
// printed. Without -txn the coordinator just serves Resolve requests.
//
// With -protocol paxos (or an explicit -replog-replicas N) the coordinator
// replicates every commit decision through Paxos Commit: N in-process
// acceptor replicas are served over loopback TCP and a DECISION is only
// delivered once a majority has acked its ballot, so the decision survives
// the coordinator's own WAL. /readyz on the ops plane then reflects
// leadership over the replica group.
//
// Observability: -trace FILE writes the coordinator's protocol event log
// as JSONL on exit, -trace-chrome FILE writes the same log as Chrome
// trace-event JSON (loadable in Perfetto or chrome://tracing), and
// -metrics FILE writes the coordinator's counters, gauges, and latency
// histograms in Prometheus text exposition form.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"o2pc/internal/coord"
	"o2pc/internal/metrics"
	"o2pc/internal/ops"
	"o2pc/internal/proto"
	"o2pc/internal/replog"
	"o2pc/internal/rpc"
	"o2pc/internal/sim"
	"o2pc/internal/trace"
	"o2pc/internal/wal"
)

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

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		log.Fatalf("o2pc-coord: %v", err)
	}
}

// run is the whole command, factored so tests can drive every path: flags
// are parsed from args, output goes to stdout, and the serve-only path
// (no -txn, no -demo) blocks until ctx is cancelled instead of forever.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("o2pc-coord", flag.ContinueOnError)
	name := fs.String("name", "c0", "coordinator node name")
	listen := fs.String("listen", "127.0.0.1:7001", "listen address for Resolve inquiries")
	walPath := fs.String("wal", "", "decision log file (default: in-memory)")
	txnSpec := fs.String("txn", "", "transaction description (see package docs)")
	protocolName := fs.String("protocol", "o2pc", "commit protocol: 2pc | o2pc | paxos")
	markingName := fs.String("marking", "p1", "marking protocol: none | p1 | p2")
	repeat := fs.Int("repeat", 1, "run the transaction N times")
	demo := fs.Int("demo", 0, "run N random transfers of key 'acct' across the sites and report")
	demoDoom := fs.Float64("demo-doom", 0.1, "fraction of demo transfers that attempt an over-withdrawal (aborted by the AddMin constraint)")
	demoSeed := fs.Int64("demo-seed", 1, "seed for the demo's transfer choices (same seed, same transfer sequence)")
	comp := fs.String("comp", "semantic", "compensation mode: semantic | before-image | none")
	tracePath := fs.String("trace", "", "write the protocol event log as JSONL to this file on exit")
	chromePath := fs.String("trace-chrome", "", "write the protocol event log as Chrome trace-event JSON (Perfetto-loadable) to this file on exit")
	metricsPath := fs.String("metrics", "", "write coordinator metrics in Prometheus text form to this file on exit")
	opsAddr := fs.String("ops-addr", "", "serve the operations HTTP plane (metrics, health, pprof, trace) on this address")
	replicas := fs.Int("replog-replicas", 0, "run N in-process decision-log replicas and log decisions through Paxos Commit ballots (0 = local WAL; defaults to 3 under -protocol paxos)")
	sites := addrList{}
	fs.Var(sites, "site", "site address as name=host:port (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var tracer *trace.Tracer
	if *tracePath != "" || *chromePath != "" || *opsAddr != "" {
		tracer = trace.New(sim.Real(), trace.DefaultNodeCapacity)
	}
	cfg := coord.Config{Name: *name, Tracer: tracer}
	if *walPath != "" {
		fl, err := wal.OpenFileLog(*walPath)
		if err != nil {
			return fmt.Errorf("open wal: %w", err)
		}
		//o2pcvet:ignore errflow -- process-exit close of a read-side handle; appends were already synced
		defer fl.Close()
		cfg.Log = fl
	}
	if strings.EqualFold(*protocolName, "paxos") && *replicas == 0 {
		*replicas = 3
	}
	var leader *replog.Leader
	if *replicas > 0 {
		// The replicated decision log: N acceptor replicas served over
		// loopback TCP (file-backed next to -wal when set, else in-memory),
		// with this coordinator as the group's Paxos Commit leader. The
		// DECISION for every transaction is majority-acked before delivery.
		repAddrs := map[string]string{}
		repNames := make([]string, 0, *replicas)
		for i := 0; i < *replicas; i++ {
			rcfg := replog.ReplicaConfig{Name: fmt.Sprintf("r%d", i), Tracer: tracer}
			if *walPath != "" {
				fl, err := wal.OpenFileLog(fmt.Sprintf("%s.r%d", *walPath, i))
				if err != nil {
					return fmt.Errorf("open replica wal: %w", err)
				}
				//o2pcvet:ignore errflow -- process-exit close of a read-side handle; appends were already synced
				defer fl.Close()
				rcfg.Log = fl
			}
			rep, err := replog.NewReplica(rcfg)
			if err != nil {
				return fmt.Errorf("replica %s: %w", rcfg.Name, err)
			}
			rln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return fmt.Errorf("replica listen: %w", err)
			}
			defer stopServer(rpc.NewServer(rep.Name(), rep.Handle).Start(rln), stdout, "replica serve")
			repAddrs[rep.Name()] = rln.Addr().String()
			repNames = append(repNames, rep.Name())
		}
		leader = replog.NewLeader(replog.Config{
			Group:    *name,
			Replicas: repNames,
			Caller:   rpc.NewTCPClient(repAddrs),
			Clock:    sim.Real(),
			Tracer:   tracer,
		})
		cfg.DecisionLog = leader
		fmt.Fprintf(stdout, "coordinator %s replicating decisions to %d replicas\n", *name, *replicas)
	}
	c := coord.New(cfg, rpc.NewTCPClient(sites))
	defer c.Close()

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	defer stopServer(rpc.NewServer(*name, c.Handle).Start(ln), stdout, "serve")
	fmt.Fprintf(stdout, "coordinator %s serving on %s\n", *name, ln.Addr())

	if *opsAddr != "" {
		opsSrv := ops.NewServer(ops.Config{
			Node:     *name,
			Registry: metrics.NewRegistry(),
			Collect: func(r *metrics.Registry) {
				c.Stats().Publish(r, "o2pc_coord_")
				if leader != nil {
					leader.Stats().Publish(r, "o2pc_coord_replog_")
				}
			},
			Health: c.Health,
			Ready:  c.Ready,
			Tracer: tracer,
			Vars: map[string]any{
				"name":     *name,
				"listen":   *listen,
				"sites":    map[string]string(sites),
				"protocol": *protocolName,
				"marking":  *markingName,
				"replicas": *replicas,
			},
			Sample: true,
		})
		bound, err := opsSrv.Start(*opsAddr)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "coordinator %s ops plane on http://%s\n", *name, bound)
		defer func() {
			sctx, cancel := sim.Real().WithTimeout(context.Background(), 3*time.Second)
			defer cancel()
			//o2pcvet:ignore errflow -- process-exit drain; a failed ops shutdown must not mask the run's result
			_ = opsSrv.Shutdown(sctx)
		}()
	}

	switch {
	case *demo > 0:
		err = runDemo(stdout, c, sites, *demo, *demoDoom, *demoSeed, protocolOf(*protocolName), markingOf(*markingName))
	case *txnSpec != "":
		err = runTxn(ctx, stdout, c, *txnSpec, parseComp(*comp), protocolOf(*protocolName), markingOf(*markingName), *repeat)
	default:
		<-ctx.Done() // serve Resolve inquiries until cancelled
	}
	if err != nil {
		return err
	}
	return writeArtifacts(c, leader, tracer, *tracePath, *chromePath, *metricsPath)
}

// stopServer runs a server's stop function and reports a failed accept
// loop; a clean close reports nothing.
func stopServer(stop func() error, stdout io.Writer, what string) {
	if err := stop(); err != nil {
		fmt.Fprintf(stdout, "o2pc-coord: %s: %v\n", what, err)
	}
}

// writeArtifacts dumps the trace and metrics files requested by flags.
func writeArtifacts(c *coord.Coordinator, leader *replog.Leader, tracer *trace.Tracer, tracePath, chromePath, metricsPath string) error {
	writeFile := func(path string, write func(io.Writer) error) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := write(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if tracePath != "" {
		events := tracer.Events()
		if err := writeFile(tracePath, func(w io.Writer) error { return trace.WriteJSONL(w, events) }); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
	}
	if chromePath != "" {
		events := tracer.Events()
		if err := writeFile(chromePath, func(w io.Writer) error { return trace.WriteChrome(w, events) }); err != nil {
			return fmt.Errorf("write chrome trace: %w", err)
		}
	}
	if metricsPath != "" {
		reg := metrics.NewRegistry()
		c.Stats().Publish(reg, "o2pc_coord_")
		if leader != nil {
			leader.Stats().Publish(reg, "o2pc_coord_replog_")
		}
		if err := writeFile(metricsPath, reg.WriteText); err != nil {
			return fmt.Errorf("write metrics: %w", err)
		}
	}
	return nil
}

// runTxn parses and executes the -txn transaction -repeat times.
func runTxn(ctx context.Context, stdout io.Writer, c *coord.Coordinator, txnSpec string, comp proto.CompMode, protocol proto.Protocol, marking proto.MarkProtocol, repeat int) error {
	subtxns, err := parseTxn(txnSpec, comp)
	if err != nil {
		return err
	}
	lat := metrics.NewHistogram()
	committed := 0
	for i := 0; i < repeat; i++ {
		res := c.Run(ctx, coord.TxnSpec{
			Protocol: protocol,
			Marking:  marking,
			Subtxns:  subtxns,
		})
		if res.Committed() {
			committed++
			lat.ObserveDuration(res.Latency)
		}
		if repeat == 1 {
			fmt.Fprintf(stdout, "%s: %v (latency %v)\n", res.ID, res.Outcome, res.Latency.Round(time.Microsecond))
			if res.Err != nil {
				fmt.Fprintln(stdout, "  error:", res.Err)
			}
			for site, reads := range res.Reads {
				for key, val := range reads {
					fmt.Fprintf(stdout, "  read %s@%s = %q\n", key, site, val)
				}
			}
		}
	}
	if repeat > 1 {
		fmt.Fprintf(stdout, "%d/%d committed; latency(ms): %s\n", committed, repeat, lat.Snapshot())
	}
	return nil
}

func protocolOf(name string) proto.Protocol {
	switch {
	case strings.EqualFold(name, "2pc"):
		return proto.TwoPC
	case strings.EqualFold(name, "paxos"):
		return proto.Paxos
	}
	return proto.O2PC
}

func markingOf(name string) proto.MarkProtocol {
	switch strings.ToLower(name) {
	case "p1":
		return proto.MarkP1
	case "p2":
		return proto.MarkP2
	case "simple":
		return proto.MarkSimple
	default:
		return proto.MarkNone
	}
}

// runDemo drives random transfers of the key "acct" between the configured
// sites, with a fraction refused at vote time, and prints outcome counts
// and a latency summary — a self-contained way to exercise a TCP
// deployment (seed the sites with -seed acct=<amount> first).
func runDemo(stdout io.Writer, c *coord.Coordinator, sites addrList, n int, doom float64, seed int64, protocol proto.Protocol, marking proto.MarkProtocol) error {
	names := make([]string, 0, len(sites))
	for name := range sites {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) < 2 {
		return fmt.Errorf("-demo needs at least two -site entries")
	}
	rng := rand.New(rand.NewSource(seed))
	lat := metrics.NewHistogram()
	committed, refused, failed := 0, 0, 0
	for i := 0; i < n; i++ {
		from := names[rng.Intn(len(names))]
		to := names[rng.Intn(len(names))]
		for to == from {
			to = names[rng.Intn(len(names))]
		}
		amount := int64(1 + rng.Intn(25))
		if rng.Float64() < doom {
			amount = 1 << 40 // guaranteed over-withdrawal: the source site aborts the transaction
		}
		spec := coord.TxnSpec{
			Protocol: protocol,
			Marking:  marking,
			Subtxns: []coord.SubtxnSpec{
				{Site: from, Ops: []proto.Operation{proto.AddMin("acct", -amount, 0)}, Comp: proto.CompSemantic},
				{Site: to, Ops: []proto.Operation{proto.Add("acct", amount)}, Comp: proto.CompSemantic},
			},
		}
		res := c.Run(context.Background(), spec)
		switch {
		case res.Committed():
			committed++
			lat.ObserveDuration(res.Latency)
		case res.Outcome == coord.AbortedExec:
			failed++
		default:
			refused++
		}
	}
	fmt.Fprintf(stdout, "demo: %d committed, %d insufficient-funds, %d other aborts\n", committed, failed, refused)
	fmt.Fprintf(stdout, "latency(ms): %s\n", lat.Snapshot())
	return nil
}

func parseComp(s string) proto.CompMode {
	switch strings.ToLower(s) {
	case "before-image":
		return proto.CompBeforeImage
	case "none":
		return proto.CompNone
	default:
		return proto.CompSemantic
	}
}

// parseTxn parses "site:op:key[:arg[:arg]] / site:op:..." descriptions.
func parseTxn(s string, comp proto.CompMode) ([]coord.SubtxnSpec, error) {
	bySite := make(map[string]*coord.SubtxnSpec)
	var order []string
	for _, part := range strings.Split(s, "/") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		if len(fields) < 3 {
			return nil, fmt.Errorf("bad subtransaction %q", part)
		}
		site, opName, key := fields[0], fields[1], fields[2]
		var op proto.Operation
		switch strings.ToLower(opName) {
		case "read":
			op = proto.Read(key)
		case "write":
			if len(fields) < 4 {
				return nil, fmt.Errorf("write needs a value: %q", part)
			}
			op = proto.Write(key, []byte(fields[3]))
		case "add":
			if len(fields) < 4 {
				return nil, fmt.Errorf("add needs a delta: %q", part)
			}
			d, err := strconv.ParseInt(fields[3], 10, 64)
			if err != nil {
				return nil, err
			}
			op = proto.Add(key, d)
		case "addmin":
			if len(fields) < 5 {
				return nil, fmt.Errorf("addmin needs delta and min: %q", part)
			}
			d, err := strconv.ParseInt(fields[3], 10, 64)
			if err != nil {
				return nil, err
			}
			m, err := strconv.ParseInt(fields[4], 10, 64)
			if err != nil {
				return nil, err
			}
			op = proto.AddMin(key, d, m)
		default:
			return nil, fmt.Errorf("unknown op %q", opName)
		}
		st, ok := bySite[site]
		if !ok {
			st = &coord.SubtxnSpec{Site: site, Comp: comp}
			bySite[site] = st
			order = append(order, site)
		}
		st.Ops = append(st.Ops, op)
	}
	if len(order) == 0 {
		return nil, fmt.Errorf("empty transaction")
	}
	out := make([]coord.SubtxnSpec, 0, len(order))
	for _, site := range order {
		out = append(out, *bySite[site])
	}
	return out, nil
}
