package main

import (
	"bytes"
	"strings"
	"testing"
)

// statsGoldenJSONL is a two-transaction commit trace with hand-picked
// timestamps, so every span below is checkable by arithmetic:
//
//	T1 (s0+s1): votereq@1ms; s0 votes back at 3ms (RTT 2.0), s1 at 3.4ms
//	(RTT 2.4); decision at 4ms (collect window 3.0); s0 exposed 2ms→5ms
//	(3.0), s1 exposed 2.4ms→5.4ms (3.0).
//	T2 (s0 only): votereq@10ms, vote back 11ms (RTT 1.0), decision
//	11.5ms (window 1.5), exposed 10.5ms→12ms (1.5).
const statsGoldenJSONL = `{"t":1000000,"node":"c0","seq":1,"type":"votereq.send","txn":"T1","peer":"s0"}
{"t":1000000,"node":"c0","seq":2,"type":"votereq.send","txn":"T1","peer":"s1"}
{"t":2000000,"node":"s0","seq":1,"type":"exposed","txn":"T1","peer":"c0"}
{"t":2400000,"node":"s1","seq":1,"type":"exposed","txn":"T1","peer":"c0"}
{"t":3000000,"node":"c0","seq":3,"type":"vote.recv","txn":"T1","peer":"s0","detail":"yes"}
{"t":3400000,"node":"c0","seq":4,"type":"vote.recv","txn":"T1","peer":"s1","detail":"yes"}
{"t":4000000,"node":"c0","seq":5,"type":"decision.reached","txn":"T1","detail":"commit"}
{"t":5000000,"node":"s0","seq":2,"type":"decision.recv","txn":"T1","detail":"commit"}
{"t":5400000,"node":"s1","seq":2,"type":"decision.recv","txn":"T1","detail":"commit"}
{"t":10000000,"node":"c0","seq":6,"type":"votereq.send","txn":"T2","peer":"s0"}
{"t":10500000,"node":"s0","seq":3,"type":"exposed","txn":"T2","peer":"c0"}
{"t":11000000,"node":"c0","seq":7,"type":"vote.recv","txn":"T2","peer":"s0","detail":"yes"}
{"t":11500000,"node":"c0","seq":8,"type":"decision.reached","txn":"T2","detail":"commit"}
{"t":12000000,"node":"s0","seq":4,"type":"decision.recv","txn":"T2","detail":"commit"}
`

// statsGoldenOut is the byte-exact rendering of the trace above. The
// quantiles follow the histogram's linear interpolation between ranks: e.g.
// s0's vote RTTs [1.0, 2.0] give p50 = 1.5, p90 = 1.9, p99 = 1.99. A rank
// other than the first and last reads its bucket's midpoint (within 1/128):
// the middle of the three RTTs in "all", 2.0, reads 2.016.
const statsGoldenOut = `prepare->vote (votereq.send -> vote.recv):
  site   count    p50ms    p90ms    p99ms    maxms
  s0         2    1.500    1.900    1.990    2.000
  s1         1    2.400    2.400    2.400    2.400
  all        3    2.016    2.323    2.392    2.400
vote->decision (first votereq.send -> decision.reached):
  all        2    2.250    2.850    2.985    3.000
exposure window (exposed -> decision.recv):
  site   count    p50ms    p90ms    p99ms    maxms
  s0         2    2.250    2.850    2.985    3.000
  s1         1    3.000    3.000    3.000    3.000
  all        3    3.000    3.000    3.000    3.000
per-txn (ms):
  T1: vote->decision=3.000
    s0: prepare->vote=2.000 exposure=3.000
    s1: prepare->vote=2.400 exposure=3.000
  T2: vote->decision=1.500
    s0: prepare->vote=1.000 exposure=1.500
`

// TestStatsGolden pins the stats subcommand's full output for the golden
// trace, byte for byte.
func TestStatsGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"stats", "-per-txn"}, strings.NewReader(statsGoldenJSONL), &out); err != nil {
		t.Fatalf("stats: %v", err)
	}
	if out.String() != statsGoldenOut {
		t.Errorf("stats output differs from golden:\n--- got ---\n%s--- want ---\n%s", out.String(), statsGoldenOut)
	}
}

// TestStatsTxnFilter keeps only one transaction's spans.
func TestStatsTxnFilter(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"stats", "-txn", "T2"}, strings.NewReader(statsGoldenJSONL), &out); err != nil {
		t.Fatalf("stats: %v", err)
	}
	text := out.String()
	for _, want := range []string{
		"  s0         1    1.000",
		"  all        1    1.500    1.500    1.500    1.500",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("filtered output missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "s1") {
		t.Errorf("filtered output leaked T1's site s1:\n%s", text)
	}
}

// TestStatsNoSpans reports traces without commit-phase pairs instead of
// printing empty tables (sampleJSONL has votes but no votereq.send).
func TestStatsNoSpans(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"stats"}, strings.NewReader(sampleJSONL), &out); err != nil {
		t.Fatalf("stats: %v", err)
	}
	if !strings.Contains(out.String(), "(no commit-phase spans in trace)") {
		t.Errorf("output = %q", out.String())
	}
}

// TestStatsRevotePairsFresh pins the session-retry pairing rule: a second
// votereq.send for the same (txn, site) after the first vote landed opens
// a fresh span rather than stretching the first.
func TestStatsRevotePairsFresh(t *testing.T) {
	const revote = `{"t":1000000,"node":"c0","seq":1,"type":"votereq.send","txn":"T1","peer":"s0"}
{"t":2000000,"node":"c0","seq":2,"type":"vote.recv","txn":"T1","peer":"s0","detail":"retry"}
{"t":8000000,"node":"c0","seq":3,"type":"votereq.send","txn":"T1","peer":"s0"}
{"t":9000000,"node":"c0","seq":4,"type":"vote.recv","txn":"T1","peer":"s0","detail":"yes"}
`
	var out bytes.Buffer
	if err := run([]string{"stats"}, strings.NewReader(revote), &out); err != nil {
		t.Fatalf("stats: %v", err)
	}
	// Two spans of 1.0ms each — NOT one span of 8ms.
	if !strings.Contains(out.String(), "  s0         2    1.000    1.000    1.000    1.000") {
		t.Errorf("revote spans wrong:\n%s", out.String())
	}
}
