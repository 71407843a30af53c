package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"

	"o2pc/internal/replog"
	"o2pc/internal/rpc"
	"o2pc/internal/site"
	"o2pc/internal/storage"
	"o2pc/internal/wal"
)

// nodeEnv carries a nodeConfig to a re-executed benchmark binary. Its
// presence is what selects the node role, so the same binary (and, in the
// tests, the test binary) is both driver and node host.
const nodeEnv = "O2PC_BENCHMARK_NODE"

// nodeConfig describes what one node process hosts: one site, or the
// decision-log replicas.
type nodeConfig struct {
	Proc      string // process label and span-file stem: "s0", "s1", "rep"
	ProcIndex int    // span ID namespace, unique per process of a cluster
	Site      string // site to host ("" for the replica host)
	Replicas  int    // decision-log replicas to host (r0..)
	Dir       string // run directory: WAL files and the span file
	FileWAL   bool   // file WALs with real fsync instead of memory logs
	Trace     bool
}

// snap is a flat bag of readings from one process. Every key is either a
// monotone counter (count, sum of a histogram) or a gauge; the driver adds
// snaps across processes and subtracts window start from window end.
type snap map[string]float64

// gauges are the snap keys that are levels, not running totals: they are
// read at window end rather than differenced.
var gauges = map[string]bool{"site.pending": true, "site.marks": true, "site.balance": true}

func (a snap) plus(b snap) snap {
	out := make(snap, len(a))
	for k, v := range a {
		out[k] = v
	}
	for k, v := range b {
		out[k] += v
	}
	return out
}

// since returns the change from start to a; gauges keep a's value.
func (a snap) since(start snap) snap {
	out := make(snap, len(a))
	for k, v := range a {
		if gauges[k] {
			out[k] = v
		} else {
			out[k] = v - start[k]
		}
	}
	return out
}

// mean returns sum/n for a histogram recorded under name.sum and name.n.
func (a snap) mean(name string) float64 {
	if a[name+".n"] == 0 {
		return 0
	}
	return a[name+".sum"] / a[name+".n"]
}

// runtimeSnap collects garbage first, so heap_alloc is what the process
// retains rather than what it has not yet swept.
func runtimeSnap() snap {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(samples)
	return snap{
		"rt.heap_alloc": float64(ms.HeapAlloc),
		"rt.mallocs":    float64(ms.Mallocs),
		"rt.gc_cpu_s":   samples[0].Value.Float64(),
		"rt.busy_cpu_s": samples[1].Value.Float64() - samples[2].Value.Float64(),
	}
}

type histogram interface {
	Count() int
	Sum() float64
}

func (a snap) putHist(name string, h histogram) {
	a[name+".n"] = float64(h.Count())
	a[name+".sum"] = h.Sum()
}

// siteSnap reads the public Stats() of a site and its lock manager, the
// marking-set size and the money the site holds.
func siteSnap(s *site.Site) snap {
	st, ls := s.Stats(), s.Manager().Locks().Stats()
	out := snap{
		"site.commits":       float64(st.Commits.Value()),
		"site.compensations": float64(st.Compensations.Value()),
		"site.rejects_retry": float64(st.RejectsRetry.Value()),
		"site.rejects_fatal": float64(st.RejectsFatal.Value()),
		"site.execs":         float64(st.Execs.Value()),
		"site.pending":       float64(st.PendingGlobal.Value()),
		"site.marks":         float64(s.Marks().Len()),
		"lock.acquisitions":  float64(ls.Acquisitions.Value()),
		"lock.waits":         float64(ls.Waits.Value()),
		"lock.deadlocks":     float64(ls.Deadlocks.Value()),
	}
	out.putHist("site.compensation_ms", st.CompensationDuration)
	out.putHist("site.exposure_ms", st.ExposureDuration)
	out.putHist("lock.wait_ms", ls.WaitTime)
	out.putHist("lock.hold_x_ms", ls.HoldTimeX)
	out.putHist("lock.hold_s_ms", ls.HoldTimeS)
	var balance int64
	for key, rec := range s.Manager().Store().Snapshot() {
		if key != site.MarkKey && !rec.Deleted {
			balance += storage.MustDecodeInt64(rec.Value)
		}
	}
	out["site.balance"] = float64(balance)
	return out
}

// hostedNode is what a node process runs.
type hostedNode struct {
	cfg     nodeConfig
	rec     *recorder // nil unless tracing
	site    *site.Site
	addrs   map[string]string
	servers []*rpc.Server
	served  chan error
	files   []string // WAL file paths, for wal.file_bytes
	logs    []*wal.FileLog
}

// openLog returns the WAL for one hosted component: a file log when the
// workload asks for durability, else a memory log; wrapped when tracing.
func (n *hostedNode) openLog(name string) (wal.Log, error) {
	var log wal.Log = wal.NewMemoryLog()
	if n.cfg.FileWAL {
		path := filepath.Join(n.cfg.Dir, name+".wal")
		fl, err := wal.OpenFileLog(path)
		if err != nil {
			return nil, fmt.Errorf("open wal %s: %w", path, err)
		}
		n.files = append(n.files, path)
		n.logs = append(n.logs, fl)
		log = fl
	}
	if n.rec != nil {
		log = &tracedLog{Log: log, rec: n.rec}
	}
	return log, nil
}

// serve starts an rpc server for name on a loopback port of the OS's choice.
func (n *hostedNode) serve(name string, h rpc.Handler) error {
	if n.rec != nil {
		h = tracedHandler(name, h, n.rec)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen for %s: %w", name, err)
	}
	srv := rpc.NewServer(name, h)
	n.servers = append(n.servers, srv)
	n.addrs[name] = ln.Addr().String()
	go func() { n.served <- srv.Serve(ln) }()
	return nil
}

// startHosted builds the node as cmd/o2pc-site and cmd/o2pc-coord wire a
// site and the decision-log replicas (the fifth copy of that wiring; the
// ROADMAP's stack builder is meant to replace it).
func startHosted(cfg nodeConfig) (*hostedNode, error) {
	n := &hostedNode{cfg: cfg, addrs: make(map[string]string)}
	n.served = make(chan error, 1+cfg.Replicas) // one send per server, never blocking
	if cfg.Trace {
		n.rec = newRecorder(cfg.Proc, cfg.ProcIndex)
	}
	if cfg.Site != "" {
		log, err := n.openLog(cfg.Site)
		if err != nil {
			return nil, err
		}
		n.site = site.NewSite(site.Config{Name: cfg.Site, Log: log})
		// cmd/o2pc-site also gives the site a caller for Resolve inquiries to
		// the coordinator. Left out here: the coordinator never crashes in a
		// run, and an inquiry that races the coordinator's own abort DECISION
		// makes the site ack Marked=false while its compensation is still
		// running, so the UDUM1 board never unmarks the site and every later
		// transaction is R1-rejected for good (see README.md, "Limits").
		suffix := doomSuffix(cfg.Site)
		n.site.SetVoteAbortInjector(func(txnID string) bool { return strings.HasSuffix(txnID, suffix) })
		if err := n.serve(cfg.Site, rpc.BatchHandler(n.site.Handle, nil)); err != nil {
			return nil, err
		}
	}
	for i := 0; i < cfg.Replicas; i++ {
		name := fmt.Sprintf("r%d", i)
		log, err := n.openLog(name)
		if err != nil {
			return nil, err
		}
		rep, err := replog.NewReplica(replog.ReplicaConfig{Name: name, Log: log})
		if err != nil {
			return nil, fmt.Errorf("replica %s: %w", name, err)
		}
		if err := n.serve(name, rep.Handle); err != nil {
			return nil, err
		}
	}
	return n, nil
}

func (n *hostedNode) snapshot() snap {
	out := runtimeSnap()
	if n.site != nil {
		out = out.plus(siteSnap(n.site))
	}
	for _, path := range n.files {
		if fi, err := os.Stat(path); err == nil {
			out["wal.file_bytes"] += float64(fi.Size())
		}
	}
	return out
}

// stop closes the servers and logs and, when tracing, writes the span file.
func (n *hostedNode) stop() error {
	var errs []error
	for _, srv := range n.servers {
		errs = append(errs, srv.Close())
	}
	for range n.servers {
		errs = append(errs, <-n.served)
	}
	for _, fl := range n.logs {
		errs = append(errs, fl.Close())
	}
	if n.rec != nil {
		errs = append(errs, writeSpans(spanFile(n.cfg.Dir, n.cfg.Proc), n.rec.take()))
	}
	return errors.Join(errs...)
}

func spanFile(dir, proc string) string { return filepath.Join(dir, "spans-"+proc+".gob") }

// nodeMain is the node role: host what the config names, report the listen
// addresses, then answer the driver's commands until told to quit (or until
// the driver goes away and stdin closes). One JSON line per reply.
func nodeMain(cfgJSON string, stdin io.Reader, stdout io.Writer) error {
	var cfg nodeConfig
	if err := json.Unmarshal([]byte(cfgJSON), &cfg); err != nil {
		return fmt.Errorf("node config: %w", err)
	}
	n, err := startHosted(cfg)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(n.addrs); err != nil {
		return err
	}
	in := bufio.NewScanner(stdin)
	for in.Scan() {
		switch cmd := in.Text(); cmd {
		case "snap":
			if err := enc.Encode(n.snapshot()); err != nil {
				return err
			}
		case "quit":
			if err := n.stop(); err != nil {
				return err
			}
			return enc.Encode("bye")
		default:
			return fmt.Errorf("node %s: unknown command %q", cfg.Proc, cmd)
		}
	}
	return errors.Join(in.Err(), n.stop())
}
