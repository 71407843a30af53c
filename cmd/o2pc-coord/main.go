// Command o2pc-coord runs a coordinator process over TCP: it serves
// Resolve inquiries from blocked participants and executes global
// transactions against o2pc-site processes. It runs in one of three modes:
//
//   - -txn runs one fixed transaction (-repeat N times, with a latency
//     summary);
//   - -n N and/or -duration D drive generated load: -clients workers
//     issue one-shot transfers and multi-shot sessions, scrape /metrics
//     endpoints, print a live table and write a BENCH-style summary (see
//     load.go);
//   - with neither, the process only serves Resolve requests until
//     SIGINT/SIGTERM. This is the default.
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
// Transaction IDs are "<name>-<start instant in base36>-T<seq>", so a
// restarted coordinator never re-issues an ID that long-lived sites have
// already seen decided (sites fence those as stale).
//
// On start the coordinator recovers from its decision log before serving:
// undecided transactions are presumed aborted and every logged decision not
// yet ended is re-delivered. A transaction ends, and is forgotten, once
// every participant has acked its decision, so with -wal FILE a restarted
// coordinator re-sends only the decisions some participant may still await.
//
// With -protocol paxos (or an explicit -replog-replicas N) the coordinator
// replicates every commit decision through Paxos Commit: N in-process
// acceptor replicas are served over loopback TCP and a DECISION is only
// delivered once a majority has acked its ballot, so the decision survives
// the coordinator's own WAL. /readyz on the ops plane then reflects
// leadership over the replica group, and recovery is leader takeover.
//
// Observability: -trace FILE writes the coordinator's protocol event log
// as JSONL on exit, -trace-chrome FILE writes the same log as Chrome
// trace-event JSON (loadable in Perfetto or chrome://tracing), and
// -metrics FILE writes the coordinator's counters, gauges, and latency
// histograms in Prometheus text exposition form. -ops-addr serves them
// live (see internal/ops).
package main

import (
	"context"
	"errors"
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

// addrList collects repeated name=value flags.
type addrList map[string]string

func (a addrList) String() string { return fmt.Sprint(map[string]string(a)) }
func (a addrList) Set(v string) error {
	name, addr, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("want name=value, got %q", v)
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
// blocks until ctx is cancelled instead of forever.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("o2pc-coord", flag.ContinueOnError)
	name := fs.String("name", "c0", "coordinator node name (sites route Resolve inquiries to it with -coord <name>=<listen>)")
	listen := fs.String("listen", "127.0.0.1:7001", "listen address for Resolve inquiries")
	walPath := fs.String("wal", "", "decision log file (default: in-memory)")
	txnSpec := fs.String("txn", "", "run this transaction (see package docs)")
	protocolName := fs.String("protocol", "o2pc", "commit protocol: 2pc | o2pc | paxos")
	markingName := fs.String("marking", "p1", "marking protocol: none | p1 | p2 | simple")
	repeat := fs.Int("repeat", 1, "run the -txn transaction N times")
	compName := fs.String("comp", "semantic", "compensation mode: semantic | before-image | none")
	tracePath := fs.String("trace", "", "write the protocol event log as JSONL to this file on exit")
	chromePath := fs.String("trace-chrome", "", "write the protocol event log as Chrome trace-event JSON (Perfetto-loadable) to this file on exit")
	metricsPath := fs.String("metrics", "", "write coordinator metrics in Prometheus text form to this file on exit")
	opsAddr := fs.String("ops-addr", "", "serve the operations HTTP plane (metrics, health, pprof, trace) on this address; load mode also scrapes it as target \"self\"")
	replicas := fs.Int("replog-replicas", 0, "run N in-process decision-log replicas and log decisions through Paxos Commit ballots (0 = local WAL; defaults to 3 under -protocol paxos)")
	sites := addrList{}
	fs.Var(sites, "site", "site address as name=host:port (repeatable)")
	var load loadConfig
	load.bindFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case load.enabled() && *txnSpec != "":
		return errors.New("-txn conflicts with -n/-duration: pick one mode")
	case load.enabled() && len(sites) < 2:
		return errors.New("load mode needs at least two -site entries to transfer between")
	case load.rounds < 1:
		return errors.New("-rounds must be at least 1")
	case load.nkeys < 1:
		return errors.New("-keys must be at least 1")
	}
	protocol, err := protocolOf(*protocolName)
	if err != nil {
		return err
	}
	marking, err := markingOf(*markingName)
	if err != nil {
		return err
	}
	comp, err := parseComp(*compName)
	if err != nil {
		return err
	}

	// One ID prefix per process start: sites fence IDs of transactions
	// they have seen decided, so a counter restarting at T1 would collide
	// with the previous run's transactions.
	idPrefix := *name + "-" + strconv.FormatInt(sim.Real().Now().UnixNano(), 36) + "-"
	var tracer *trace.Tracer
	if *tracePath != "" || *chromePath != "" || *opsAddr != "" {
		tracer = trace.New(sim.Real(), trace.DefaultNodeCapacity)
	}
	cfg := coord.Config{Name: *name, IDPrefix: idPrefix, Tracer: tracer}
	if *walPath != "" {
		fl, err := wal.OpenFileLog(*walPath)
		if err != nil {
			return fmt.Errorf("open wal: %w", err)
		}
		//o2pcvet:ignore errflow -- process-exit close of a read-side handle; appends were already synced
		defer fl.Close()
		cfg.Log = fl
		// The log outlives the process, so recovery may ask the sites for
		// the transactions it has no record of; with an in-memory log (and
		// in-memory replicas) a restart cannot tell those from decided ones
		// it lost.
		cfg.Sites = slices.Sorted(maps.Keys(sites))
	}
	if protocol == proto.Paxos && *replicas == 0 {
		*replicas = 3
	}
	var leader *replog.Leader
	var reps []*replog.Replica
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
			reps = append(reps, rep)
		}
		repClient := rpc.NewTCPClient(repAddrs)
		//o2pcvet:ignore errflow -- TCPClient.Close only closes sockets and always returns nil
		defer repClient.Close()
		leader = replog.NewLeader(replog.Config{
			Group:    *name,
			Replicas: repNames,
			Caller:   repClient,
			Clock:    sim.Real(),
			Tracer:   tracer,
		})
		cfg.DecisionLog = leader
		fmt.Fprintf(stdout, "coordinator %s replicating decisions to %d replicas\n", *name, *replicas)
	}
	siteClient := rpc.NewTCPClient(sites)
	//o2pcvet:ignore errflow -- TCPClient.Close only closes sockets and always returns nil
	defer siteClient.Close()
	c := coord.New(cfg, siteClient)
	defer c.Close()
	// Recover before serving: Resolve answers come from the decided set the
	// log rebuilds. An empty log recovers nothing; under Paxos this is the
	// leader's takeover of its replica group.
	if err := c.Recover(ctx); err != nil {
		return fmt.Errorf("recover: %w", err)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	defer stopServer(rpc.NewServer(*name, c.Handle).Start(ln), stdout, "serve")
	fmt.Fprintf(stdout, "coordinator %s serving on %s\n", *name, ln.Addr())

	selfMetrics := ""
	if *opsAddr != "" {
		opsSrv := ops.NewServer(ops.Config{
			Node:     *name,
			Registry: metrics.NewRegistry(),
			Collect:  func(r *metrics.Registry) { publish(r, c, leader, reps) },
			Health:   c.Health,
			Ready:    c.Ready,
			Tracer:   tracer,
			Vars: map[string]any{
				"name":     *name,
				"listen":   *listen,
				"sites":    map[string]string(sites),
				"protocol": *protocolName,
				"marking":  *markingName,
				"replicas": *replicas,
				"clients":  load.clients,
				"n":        load.n,
				"duration": load.duration.String(),
			},
		})
		bound, err := opsSrv.Start(*opsAddr)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "coordinator %s ops plane on http://%s\n", *name, bound)
		selfMetrics = "http://" + bound + "/metrics"
		defer func() {
			sctx, cancel := sim.Real().WithTimeout(context.Background(), 3*time.Second)
			defer cancel()
			//o2pcvet:ignore errflow -- process-exit drain; a failed ops shutdown must not mask the run's result
			_ = opsSrv.Shutdown(sctx)
		}()
	}

	switch {
	case load.enabled():
		load.protocol, load.marking, load.comp = protocol, marking, comp
		err = runLoad(ctx, stdout, c, &load, *name, idPrefix, sites, selfMetrics)
	case *txnSpec != "":
		err = runTxn(ctx, stdout, c, *txnSpec, comp, protocol, marking, *repeat)
	default:
		<-ctx.Done() // serve Resolve inquiries until cancelled
	}
	if err != nil {
		return err
	}
	return writeArtifacts(c, leader, reps, tracer, *tracePath, *chromePath, *metricsPath)
}

// stopServer runs a server's stop function and reports a failed accept
// loop; a clean close reports nothing.
func stopServer(stop func() error, stdout io.Writer, what string) {
	if err := stop(); err != nil {
		fmt.Fprintf(stdout, "o2pc-coord: %s: %v\n", what, err)
	}
}

// publish exposes the coordinator's stats, and its replica group leader's
// and replicas' when decisions are replicated, under the o2pc_coord_
// prefix.
func publish(r *metrics.Registry, c *coord.Coordinator, leader *replog.Leader, reps []*replog.Replica) {
	c.Stats().Publish(r, "o2pc_coord_")
	if leader != nil {
		leader.Stats().Publish(r, "o2pc_coord_replog_")
	}
	for _, rep := range reps {
		rep.Stats().Publish(r, "o2pc_coord_replica_", rep.Name())
	}
}

// writeArtifacts dumps the trace and metrics files requested by flags.
func writeArtifacts(c *coord.Coordinator, leader *replog.Leader, reps []*replog.Replica, tracer *trace.Tracer, tracePath, chromePath, metricsPath string) error {
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
		publish(reg, c, leader, reps)
		if err := writeFile(metricsPath, reg.WriteText); err != nil {
			return fmt.Errorf("write metrics: %w", err)
		}
	}
	return nil
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
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

// protocolOf, markingOf and parseComp map flag values to protocol settings.
// An unknown name is an error that lists the accepted ones: a typo must not
// silently run a different protocol than the one asked for.
func protocolOf(name string) (proto.Protocol, error) {
	switch strings.ToLower(name) {
	case "2pc":
		return proto.TwoPC, nil
	case "o2pc":
		return proto.O2PC, nil
	case "paxos":
		return proto.Paxos, nil
	}
	return 0, fmt.Errorf("-protocol %q: want 2pc, o2pc or paxos", name)
}

func markingOf(name string) (proto.MarkProtocol, error) {
	switch strings.ToLower(name) {
	case "none":
		return proto.MarkNone, nil
	case "p1":
		return proto.MarkP1, nil
	case "p2":
		return proto.MarkP2, nil
	case "simple":
		return proto.MarkSimple, nil
	}
	return 0, fmt.Errorf("-marking %q: want none, p1, p2 or simple", name)
}

func parseComp(name string) (proto.CompMode, error) {
	switch strings.ToLower(name) {
	case "semantic":
		return proto.CompSemantic, nil
	case "before-image":
		return proto.CompBeforeImage, nil
	case "none":
		return proto.CompNone, nil
	}
	return 0, fmt.Errorf("-comp %q: want semantic, before-image or none", name)
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
