package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sync"

	"o2pc/internal/coord"
	"o2pc/internal/proto"
	"o2pc/internal/replog"
	"o2pc/internal/rpc"
	"o2pc/internal/wal"
)

// coordName is the embedded coordinator's node name.
const coordName = "lg"

// nodeProc is the driver's handle on one node process: commands go down its
// stdin, one JSON line per reply comes back on its stdout.
type nodeProc struct {
	proc  string
	cmd   *exec.Cmd
	in    io.WriteCloser
	out   *bufio.Reader
	addrs map[string]string
}

// spawnNode re-executes this binary in the node role and waits until it
// reports its listen addresses.
func spawnNode(cfg nodeConfig) (*nodeProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cfgJSON, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), nodeEnv+"="+string(cfgJSON))
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("spawn node %s: %w", cfg.Proc, err)
	}
	n := &nodeProc{proc: cfg.Proc, cmd: cmd, in: in, out: bufio.NewReader(out)}
	if err := n.reply(&n.addrs); err != nil {
		n.kill()
		return nil, err
	}
	return n, nil
}

func (n *nodeProc) reply(into any) error {
	line, err := n.out.ReadBytes('\n')
	if err != nil {
		return fmt.Errorf("node %s: reading reply: %w", n.proc, err)
	}
	if err := json.Unmarshal(line, into); err != nil {
		return fmt.Errorf("node %s: reply %q: %w", n.proc, line, err)
	}
	return nil
}

func (n *nodeProc) ask(cmd string, into any) error {
	if _, err := io.WriteString(n.in, cmd+"\n"); err != nil {
		return fmt.Errorf("node %s: sending %s: %w", n.proc, cmd, err)
	}
	return n.reply(into)
}

func (n *nodeProc) snapshot() (snap, error) {
	var s snap
	err := n.ask("snap", &s)
	return s, err
}

// quit asks the node to stop and waits until the process has ended.
func (n *nodeProc) quit() error {
	var bye string
	err := n.ask("quit", &bye)
	n.in.Close()
	return errors.Join(err, n.cmd.Wait())
}

// kill ends a node that cannot be asked to quit, and waits for it.
func (n *nodeProc) kill() {
	n.in.Close()
	//o2pcvet:ignore errflow -- already on a failure path; the process may have exited on its own
	_ = n.cmd.Process.Kill()
	//o2pcvet:ignore errflow -- Wait reports the kill itself; the first error is the one returned
	_ = n.cmd.Wait()
}

// cluster is one live deployment: the node processes plus, in this process,
// the coordinator and its transport.
type cluster struct {
	w     workload
	dir   string
	nodes []*nodeProc

	coord    *coord.Coordinator
	client   *rpc.TCPClient // to the sites and, under Paxos Commit, the replicas
	leader   *replog.Leader // nil without a replicated decision log
	dlogFile *wal.FileLog   // nil unless the decision log is a local file WAL

	rec    *recorder     // nil unless tracing
	caller *tracedCaller // nil unless tracing
}

// startCluster spawns the workload's topology under dir and wires the
// driver's coordinator to it as cmd/o2pc-loadgen does. On error everything
// already started is stopped.
func startCluster(w workload, dir string, trace bool) (c *cluster, err error) {
	c = &cluster{w: w, dir: dir}
	defer func() {
		if err != nil {
			c.abandon()
		}
	}()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cfgs := make([]nodeConfig, 0, 3)
	for _, name := range siteNames {
		cfgs = append(cfgs, nodeConfig{Proc: name, Site: name})
	}
	if w.replicas > 0 {
		cfgs = append(cfgs, nodeConfig{Proc: "rep", Replicas: w.replicas})
	}
	type spawned struct {
		n   *nodeProc
		err error
	}
	results := make([]spawned, len(cfgs))
	var wg sync.WaitGroup
	for i := range cfgs {
		cfgs[i].ProcIndex, cfgs[i].Dir, cfgs[i].FileWAL, cfgs[i].Trace = i+1, dir, w.fileWAL, trace
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i].n, results[i].err = spawnNode(cfgs[i])
		}()
	}
	wg.Wait()
	addrs := make(map[string]string)
	for _, r := range results {
		if r.err != nil {
			err = errors.Join(err, r.err)
			continue
		}
		c.nodes = append(c.nodes, r.n)
		for name, addr := range r.n.addrs {
			addrs[name] = addr
		}
	}
	if err != nil {
		return nil, err
	}

	c.client = rpc.NewTCPClient(addrs)
	var caller rpc.Caller = c.client
	if trace {
		c.rec = newRecorder("driver", 0)
		c.caller = newTracedCaller(c.client, c.rec)
		caller = c.caller
	}
	cfg := coord.Config{Name: coordName}
	switch {
	case w.replicas > 0:
		names := make([]string, w.replicas)
		for i := range names {
			names[i] = fmt.Sprintf("r%d", i)
		}
		c.leader = replog.NewLeader(replog.Config{Group: coordName, Replicas: names, Caller: caller})
		cfg.DecisionLog = c.leader
	case w.fileWAL:
		c.dlogFile, err = wal.OpenFileLog(filepath.Join(dir, coordName+".wal"))
		if err != nil {
			return nil, fmt.Errorf("open decision log: %w", err)
		}
		cfg.Log = c.dlogFile
	}
	if trace {
		// Spell out the default the coordinator would build itself — a
		// LocalLog over cfg.Log or a memory log — to get the decorators in.
		if cfg.DecisionLog == nil {
			var log wal.Log = wal.NewMemoryLog()
			if c.dlogFile != nil {
				log = c.dlogFile
			}
			cfg.DecisionLog = coord.NewLocalLog(coordName, &tracedLog{Log: log, rec: c.rec})
		}
		cfg.DecisionLog = &tracedDecisionLog{DecisionLog: cfg.DecisionLog, rec: c.rec}
	}
	c.coord = coord.New(cfg, caller)
	return c, nil
}

// fund credits every account at both sites in one transaction, through a
// throwaway coordinator so the workload coordinator's Stats count only the
// workload (as cmd/o2pc-loadgen does).
func (c *cluster) fund(ctx context.Context) error {
	ops := make([]proto.Operation, c.w.mix.accounts)
	for i := range ops {
		ops[i] = proto.Add(accountKey(i), fundPerAccount)
	}
	spec := coord.TxnSpec{Protocol: proto.TwoPC, Marking: proto.MarkNone}
	for _, name := range siteNames {
		spec.Subtxns = append(spec.Subtxns, coord.SubtxnSpec{Site: name, Ops: ops, Comp: proto.CompSemantic})
	}
	seeder := coord.New(coord.Config{Name: coordName, IDPrefix: "seed-"}, c.client)
	defer seeder.Close()
	if res := seeder.Run(ctx, spec); !res.Committed() {
		return fmt.Errorf("funding: %s: %w", res.Outcome, res.Err)
	}
	return nil
}

// funded is the money the cluster holds after fund, and forever after.
func (c *cluster) funded() int64 {
	return int64(len(siteNames)) * int64(c.w.mix.accounts) * fundPerAccount
}

// snapshots returns one snap per process, the driver's first.
func (c *cluster) snapshots() ([]snap, error) {
	out := []snap{runtimeSnap()}
	if c.leader != nil {
		out[0]["replog.ballots"] = float64(c.leader.Stats().MajorityAcks.Value())
		out[0].putHist("replog.ballot_ms", c.leader.Stats().BallotMs)
	}
	if c.dlogFile != nil {
		if fi, err := os.Stat(filepath.Join(c.dir, coordName+".wal")); err == nil {
			out[0]["wal.file_bytes"] = float64(fi.Size())
		}
	}
	for _, n := range c.nodes {
		s, err := n.snapshot()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// stop shuts the whole cluster down and waits for every process. When
// tracing it returns the merged spans of all processes.
func (c *cluster) stop() ([]span, error) {
	var errs []error
	c.coord.Close()
	for _, n := range c.nodes {
		errs = append(errs, n.quit())
	}
	errs = append(errs, c.closeLocal())
	var spans []span
	if c.rec != nil {
		spans = c.rec.take()
		for _, n := range c.nodes {
			more, err := readSpans(spanFile(c.dir, n.proc))
			errs = append(errs, err)
			spans = append(spans, more...)
		}
	}
	return spans, errors.Join(errs...)
}

// closeLocal releases what the driver process itself holds.
func (c *cluster) closeLocal() error {
	var errs []error
	if c.client != nil {
		errs = append(errs, c.client.Close())
	}
	if c.dlogFile != nil {
		errs = append(errs, c.dlogFile.Close())
	}
	return errors.Join(errs...)
}

// abandon tears down a cluster that failed: nodes are killed, not asked.
func (c *cluster) abandon() {
	for _, n := range c.nodes {
		n.kill()
	}
	//o2pcvet:ignore errflow -- already reporting the failure that led here
	_ = c.closeLocal()
}
