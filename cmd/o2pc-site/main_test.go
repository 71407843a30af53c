package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"o2pc/internal/coord"
	"o2pc/internal/proto"
	"o2pc/internal/rpc"
	"o2pc/internal/storage"
	"o2pc/internal/wal"
)

// childArgsEnv, when set, makes the test binary serve as the site binary
// with these newline-separated arguments (see startSiteProcess).
const childArgsEnv = "O2PC_SITE_CHILD_ARGS"

func TestMain(m *testing.M) {
	if args := os.Getenv(childArgsEnv); args != "" {
		if err := run(context.Background(), strings.Split(args, "\n"), os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

var servingRe = regexp.MustCompile(`serving on (\S+)`)

// startSiteProcess runs the site binary's run() with args in a child
// process, so that it can be killed without a graceful shutdown, and
// returns the process and its protocol address.
func startSiteProcess(t *testing.T, args ...string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), childArgsEnv+"="+strings.Join(args, "\n"))
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	lines := bufio.NewScanner(stdout)
	for lines.Scan() {
		if m := servingRe.FindStringSubmatch(lines.Text()); m != nil {
			go io.Copy(io.Discard, stdout)
			return cmd, m[1]
		}
	}
	t.Fatalf("site process never served: %v", lines.Err())
	return nil, ""
}

// TestKilledSiteKeepsDecisionCoordinatorForgot: a site over a file WAL acks
// a 2PC commit, the coordinator forgets the transaction, and the site's
// process is killed without a graceful shutdown. The restarted site must
// find the decision in its log: a site left in doubt would ask a
// coordinator that can only answer that it does not know, and would hold
// the transaction's locks for ever.
func TestKilledSiteKeepsDecisionCoordinatorForgot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s0.wal")
	child, addr := startSiteProcess(t, "-name", "s0", "-listen", "127.0.0.1:0", "-wal", path, "-seed", "acct=100")

	client := rpc.NewTCPClient(map[string]string{"s0": addr})
	defer client.Close()
	c := coord.New(coord.Config{Name: "c0"}, client)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res := c.Run(ctx, coord.TxnSpec{ID: "Tk", Protocol: proto.TwoPC, Subtxns: []coord.SubtxnSpec{
		{Site: "s0", Ops: []proto.Operation{proto.Add("acct", 5)}},
	}})
	if !res.Committed() {
		t.Fatalf("Tk: %v %v", res.Outcome, res.Err)
	}
	for c.Stats().Decided.Value() != 0 {
		if ctx.Err() != nil {
			t.Fatal("the coordinator never forgot Tk")
		}
		time.Sleep(time.Millisecond)
	}
	if err := child.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	child.Wait()

	l, err := wal.OpenFileLog(path)
	if err != nil {
		t.Fatalf("open wal: %v", err)
	}
	store := storage.NewStore()
	rr, err := wal.Recover(store, l)
	l.Close()
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if len(rr.InDoubt) != 0 {
		t.Fatalf("restart finds %v in doubt after the coordinator forgot it", rr.InDoubt)
	}
	rec, err := store.Get("acct")
	if err != nil {
		t.Fatalf("acct: %v", err)
	}
	if got := storage.MustDecodeInt64(rec.Value); got != 105 {
		t.Fatalf("acct = %d after restart, want the committed 105", got)
	}
	runUntilServing(t, "-listen", "127.0.0.1:0", "-wal", path, "-recover")
}

// syncBuffer is a goroutine-safe stdout sink for run().
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

var opsAddrRe = regexp.MustCompile(`ops plane on http://(\S+)`)

// TestRunServesOpsPlane boots the site binary's run() with an ephemeral
// ops address, scrapes the live endpoints, and shuts down via context
// cancel — the SIGTERM path.
func TestRunServesOpsPlane(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-name", "s9", "-listen", "127.0.0.1:0",
			"-ops-addr", "127.0.0.1:0", "-seed", "acct=500",
		}, &out)
	}()

	var opsAddr string
	deadline := time.Now().Add(5 * time.Second)
	for opsAddr == "" {
		if m := opsAddrRe.FindStringSubmatch(out.String()); m != nil {
			opsAddr = m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("ops address never printed; stdout:\n%s", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	fetch := func(path string) (int, string) {
		resp, err := http.Get("http://" + opsAddr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		return resp.StatusCode, string(body)
	}

	if code, body := fetch("/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("healthz: %d %q", code, body)
	}
	if code, _ := fetch("/readyz"); code != 200 {
		t.Fatalf("readyz: %d", code)
	}
	code, body := fetch("/metrics")
	if code != 200 {
		t.Fatalf("metrics: %d", code)
	}
	for _, want := range []string{
		"o2pc_site_execs_total",
		`o2pc_site_exposure_duration_ms{outcome="commit",quantile="0.5"}`,
		"o2pc_site_compensation_duration_ms",
		"o2pc_site_readmit_rejects_total",
		"o2pc_site_fence_txns",
		"ops_goroutines",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
	if code, body := fetch("/debug/vars"); code != 200 || !strings.Contains(body, `"node": "s9"`) {
		t.Fatalf("vars: %d %s", code, body)
	}
	if code, _ := fetch("/trace/recent"); code != 200 {
		t.Fatalf("trace/recent: %d", code)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v, want nil on graceful shutdown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("run did not return after cancel")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out syncBuffer
	err := run(context.Background(), []string{"-seed", "acct"}, &out)
	if err == nil {
		t.Fatalf("malformed -seed accepted")
	}
	if !strings.Contains(fmt.Sprint(err), "key=int") {
		t.Fatalf("err = %v", err)
	}
}

// runUntilServing runs the site with args until it reports serving, then
// cancels it and returns its stdout.
func runUntilServing(t *testing.T, args ...string) string {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out syncBuffer
	done := make(chan error, 1)
	go func() { done <- run(ctx, args, &out) }()
	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(out.String(), "serving on") {
		if time.Now().After(deadline) {
			t.Fatalf("site never served; stdout:\n%s", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return out.String()
}

// TestRecoverKeepsRecoveredOverSeed restarts a site with -recover and a
// different -seed for a key its WAL already holds: the recovered value
// must survive, or every restart would reset the balance.
func TestRecoverKeepsRecoveredOverSeed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s0.wal")
	runUntilServing(t, "-listen", "127.0.0.1:0", "-wal", path, "-seed", "acct=500")
	out := runUntilServing(t, "-listen", "127.0.0.1:0", "-wal", path, "-recover", "-seed", "acct=700")

	l, err := wal.OpenFileLog(path)
	if err != nil {
		t.Fatalf("open wal: %v", err)
	}
	defer l.Close()
	store := storage.NewStore()
	if _, err := wal.Recover(store, l); err != nil {
		t.Fatalf("replay: %v", err)
	}
	rec, err := store.Get("acct")
	if err != nil {
		t.Fatalf("acct: %v", err)
	}
	if got := storage.MustDecodeInt64(rec.Value); got != 500 {
		t.Fatalf("acct = %d after restart, want the recovered 500", got)
	}
	if !strings.Contains(out, "seed acct skipped") {
		t.Fatalf("no skip reported; stdout:\n%s", out)
	}
}
