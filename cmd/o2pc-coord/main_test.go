package main

import (
	"bytes"
	"context"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"o2pc/internal/proto"
	"o2pc/internal/rpc"
	"o2pc/internal/site"
	"o2pc/internal/storage"
	"o2pc/internal/trace"
)

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

// TestRunPaths drives the run() entrypoint end to end over TCP loopback:
// the single-transaction, repeat, demo, and serve paths, each with and
// without trace/metrics artifacts.
func TestRunPaths(t *testing.T) {
	dir := t.TempDir()

	// Each case gets fresh sites: a coordinator's generated transaction IDs
	// restart at T1 per run() invocation, and sites fence IDs they have
	// already resolved.
	cases := []struct {
		name      string
		args      func(s0, s1 string) []string
		cancelCtx bool     // cancel the context before run (serve path exits immediately)
		wantOut   []string // substrings of stdout
		wantErr   string   // substring of the error, "" for success
		jsonl     string   // expect a JSONL trace at this path containing a txn.begin
		chrome    string   // expect Chrome trace JSON at this path
		metrics   []string // expect these substrings in the -metrics file
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
			name: "demo with trace",
			args: func(s0, s1 string) []string {
				return []string{
					"-listen", "127.0.0.1:0", "-site", s0, "-site", s1,
					"-demo", "6", "-demo-seed", "1", "-demo-doom", "0.5",
					"-trace", filepath.Join(dir, "demo.jsonl"),
				}
			},
			wantOut: []string{"demo: ", "insufficient-funds"},
			jsonl:   filepath.Join(dir, "demo.jsonl"),
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
			name: "demo needs two sites",
			args: func(s0, s1 string) []string {
				return []string{"-listen", "127.0.0.1:0", "-site", s0, "-demo", "3"}
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
			var out bytes.Buffer
			err := run(ctx, tc.args(s0, s1), &out)
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
			for _, want := range tc.metrics {
				b, err := os.ReadFile(filepath.Join(dir, "txn.metrics"))
				if err != nil {
					t.Fatalf("metrics file: %v", err)
				}
				if !strings.Contains(string(b), want) {
					t.Errorf("metrics missing %q:\n%s", want, b)
				}
			}
		})
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
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
	if parseComp("before-image") != proto.CompBeforeImage {
		t.Fatalf("before-image")
	}
	if parseComp("none") != proto.CompNone {
		t.Fatalf("none")
	}
	if parseComp("anything-else") != proto.CompSemantic {
		t.Fatalf("default")
	}
}
