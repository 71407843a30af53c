package explore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"strings"
	"testing"
	"time"

	"o2pc/internal/proto"
	"o2pc/internal/trace"
)

var (
	simSeed = flag.Int64("sim.seed", 0,
		"replay one explorer run (the 'everything' fault schedule) with this seed and print its trace")
	simSmoke = flag.Duration("sim.smoke", 0,
		"run the explorer smoke loop for this wall-clock duration")
)

// matrix is the fault schedule sweep: each entry is explored under several
// seeds, and the smoke loop cycles through all of them indefinitely.
func matrix() []struct {
	name string
	cfg  Config
} {
	return []struct {
		name string
		cfg  Config
	}{
		{"clean", Config{Marking: proto.MarkP1}},
		{"drops", Config{Marking: proto.MarkP2, Faults: Faults{DropProb: 0.05}}},
		{"doom", Config{Marking: proto.MarkSimple, Faults: Faults{DoomRate: 0.3}}},
		{"coord-crash", Config{Marking: proto.MarkP1, Faults: Faults{CoordCrashCycles: 3}}},
		{"site-crash", Config{Marking: proto.MarkP1, Faults: Faults{SiteCrashCycles: 2}}},
		{"partition", Config{Marking: proto.MarkP1, Faults: Faults{PartitionCycles: 2}}},
		{"everything", Config{Marking: proto.MarkP1, Faults: Faults{
			DropProb:         0.03,
			DoomRate:         0.15,
			CoordCrashCycles: 2,
			SiteCrashCycles:  2,
			PartitionCycles:  1,
		}}},
		// Multi-shot sessions under the fault classes that stress them most:
		// sites crashing while sessions hold open subtransactions across
		// think times, the coordinator dying between rounds, and slow links
		// stretching every round's RPC exchange.
		{"multishot-site-crash", Config{Marking: proto.MarkP1, MultiShot: true,
			Faults: Faults{SiteCrashCycles: 2, DoomRate: 0.15}}},
		{"multishot-coord-crash", Config{Marking: proto.MarkP1, MultiShot: true,
			Faults: Faults{CoordCrashCycles: 2, DoomRate: 0.15}}},
		{"multishot-delay", Config{Marking: proto.MarkP2, MultiShot: true,
			MaxLatency: 4 * time.Millisecond,
			Faults:     Faults{DropProb: 0.03, DoomRate: 0.2}}},
		// Read-only jobs beside the transfers: their participants leave at
		// the vote, so an all-read-only commit is decided with nobody to
		// deliver to and nothing logged, while a lost read-only vote or a
		// doomed sibling aborts a transaction whose reader already left.
		// Under P2 a participant that left must hold no locally-committed
		// mark, since no decision will clear it.
		{"readonly-everything", Config{Marking: proto.MarkP1, ReadOnlyShare: 0.5, Faults: Faults{
			DropProb:         0.03,
			DoomRate:         0.15,
			CoordCrashCycles: 2,
			SiteCrashCycles:  2,
			PartitionCycles:  1,
		}}},
		{"readonly-coord-crash", Config{Marking: proto.MarkP2, ReadOnlyShare: 0.5,
			Faults: Faults{CoordCrashCycles: 3, DoomRate: 0.15}}},
		// Paxos Commit entries: every transaction's decision goes through
		// the replicated log, under the fault classes that distinguish it
		// from a local WAL — leader (coordinator) crashes mid-ballot,
		// minority replica loss (ballots keep reaching quorum), and
		// majority replica loss (ballots stall until recovery).
		{"paxos-clean", Config{Marking: proto.MarkP1, PaxosShare: 1}},
		{"paxos-mixed", Config{Marking: proto.MarkP1, PaxosShare: 0.4,
			Faults: Faults{DropProb: 0.03, DoomRate: 0.15}}},
		{"paxos-leader-crash", Config{Marking: proto.MarkP1, PaxosShare: 1,
			Faults: Faults{CoordCrashCycles: 2, DoomRate: 0.15}}},
		{"paxos-replica-minority", Config{Marking: proto.MarkP1, PaxosShare: 1,
			Faults: Faults{ReplicaCrashCycles: 2}}},
		{"paxos-replica-majority", Config{Marking: proto.MarkP1, PaxosShare: 1,
			Faults: Faults{ReplicaCrashCycles: 2, ReplicaCrashMajority: true}}},
		// No replica hears of a transaction before its decision, so a
		// takeover learns the undecided ones from the sites' scan. These
		// entries orphan every kind of participant a dead leader leaves:
		// under 2PC and O2PC over replicas, executed subtransactions that
		// never got their VOTE-REQ and prepared or exposed ones that never
		// got their decision; multi-shot sessions open between rounds; and
		// a site that is down across the leader's recovery (its crash
		// outlasts the coordinator's downtime), scanned in the background.
		{"replog-2pc-leader-crash", Config{Marking: proto.MarkP1, TwoPCShare: 1, Replicas: 3,
			Faults: Faults{CoordCrashCycles: 2, DoomRate: 0.15}}},
		{"replog-o2pc-leader-crash", Config{Marking: proto.MarkP1, Replicas: 3,
			Faults: Faults{CoordCrashCycles: 2, DoomRate: 0.15}}},
		{"replog-multishot-leader-crash", Config{Marking: proto.MarkP1, MultiShot: true, PaxosShare: 1,
			Faults: Faults{CoordCrashCycles: 2, DoomRate: 0.15}}},
		{"replog-site-down-across-recovery", Config{Marking: proto.MarkP1, PaxosShare: 1,
			Faults: Faults{CoordCrashCycles: 2, SiteCrashCycles: 2, SiteCrashDowntime: 100 * time.Millisecond,
				DoomRate: 0.15}}},
		// WAL checkpoints between site crashes, so restarts recover from
		// checkpointed logs: under O2PC+P1 with doomed jobs (exposed
		// undecided subtransactions and unfinished compensations are
		// carried), under 2PC with a crashing coordinator (in-doubt
		// participants are carried), and with multi-shot sessions.
		{"checkpoint-o2pc-doom", Config{Marking: proto.MarkP1,
			Faults: Faults{SiteCrashCycles: 3, DoomRate: 0.3, Checkpoints: 6}}},
		{"checkpoint-2pc-in-doubt", Config{Marking: proto.MarkP1, TwoPCShare: 1,
			Faults: Faults{CoordCrashCycles: 2, SiteCrashCycles: 3, Checkpoints: 6}}},
		{"checkpoint-multishot", Config{Marking: proto.MarkP1, MultiShot: true,
			Faults: Faults{SiteCrashCycles: 3, DoomRate: 0.15, Checkpoints: 6}}},
	}
}

// report fails the test with everything needed to reproduce: the seed, a
// minimized configuration, and the event trace.
func report(t *testing.T, res *Result) {
	t.Helper()
	min := Minimize(res.Config)
	t.Fatalf("oracle violation at seed %d (replay: -sim.seed=%d)\nminimized config: %+v\n%s",
		res.Config.Seed, res.Config.Seed, min, Trace(res))
}

// TestExplorerMatrix sweeps every fault schedule across several seeds.
func TestExplorerMatrix(t *testing.T) {
	for _, entry := range matrix() {
		entry := entry
		t.Run(entry.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				cfg := entry.cfg
				cfg.Seed = seed
				res := Run(cfg)
				if res.Failed() {
					report(t, res)
				}
				if res.Committed == 0 {
					t.Errorf("seed %d: degenerate run, nothing committed", seed)
				}
				if cfg.ReadOnlyShare > 0 && !readOnlyExit(res) {
					t.Errorf("seed %d: no participant left at a read-only vote", seed)
				}
				if cfg.Faults.Checkpoints > 0 && res.CheckpointedCrashes == 0 {
					t.Errorf("seed %d: no site crashed after a checkpoint", seed)
				}
				if entry.name == "replog-site-down-across-recovery" && !rescanned(res) {
					t.Errorf("seed %d: no recovery scanned a site in the background", seed)
				}
			}
		})
	}
}

// TestExplorerCheckpointExposedKeySeed replays the checkpoint-o2pc-doom
// seed on which a restart once redid a carried exposed subtransaction's
// after-image over a later committed write of the same account, the lost
// update breaking conservation.
func TestExplorerCheckpointExposedKeySeed(t *testing.T) {
	for _, entry := range matrix() {
		if entry.name != "checkpoint-o2pc-doom" {
			continue
		}
		cfg := entry.cfg
		cfg.Seed = 83
		res := Run(cfg)
		if res.Failed() {
			report(t, res)
		}
		if res.CheckpointedCrashes == 0 {
			t.Fatal("no site crashed after a checkpoint")
		}
		return
	}
	t.Fatal("no checkpoint-o2pc-doom matrix entry")
}

// rescanned reports whether a coordinator's recovery scan of some site
// failed and a later scan of it answered: the site was down across the
// recovery and was scanned in the background.
func rescanned(res *Result) bool {
	missed := make(map[string]bool)
	for _, ev := range res.Events {
		if ev.Type != trace.EvRecoverScan {
			continue
		}
		key := ev.Node + ">" + ev.Peer
		if ev.Detail == "unreachable" {
			missed[key] = true
		} else if missed[key] {
			return true
		}
	}
	return false
}

// readOnlyExit reports whether any participant of the run left at its
// read-only vote.
func readOnlyExit(res *Result) bool {
	for _, ev := range res.Events {
		if ev.Type == trace.EvVoteYes && ev.Detail == "read-only" {
			return true
		}
	}
	return false
}

// Digests of the golden runs below, taken at the parent of every change
// that must leave traces byte-identical. A refactor that claims "same
// behaviour" leaves them alone; a change that is meant to move a trace
// pastes the digest the failing test prints, in a commit of its own.
const (
	goldenHistoryDigest   = "9314e2a840668d719c273333418f1f74777e2f21febb5136697030906ac02295"
	goldenTraceDigest     = "4c7bc60c9e1cbbcfe2d31d913a8944e6dbf77baa42c71330e03dca3e1a138078"
	goldenMultiShotDigest = "56956f80940993e4e6a985827cbc2c9b5a5eba01f5653482cc63a4a4903eac2e"
	goldenPaxosDigest     = "e32b36144c6a5769bf501c1b6c67ff3ca8a6aa145dffd8a1ba65c396060bd911"
	goldenSiteCrashDigest = "f677d763a7a7c1d6106d0bb39f43912c0083735951808a185a7d82dad82157e9"
)

// pinDigest fails unless the SHA-256 of data is want. A mismatch is either
// nondeterminism (run the test twice) or a behaviour change.
func pinDigest(t *testing.T, what string, data []byte, want string) {
	t.Helper()
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("%s digest moved:\n got %s\nwant %s", what, got, want)
	}
}

// goldenTrace runs cfg once, checks the oracles, and pins the SHA-256 of
// its JSONL event log — every virtual timestamp, node sequence number and
// detail string included. It returns the log for content checks.
func goldenTrace(t *testing.T, cfg Config, want string) []byte {
	t.Helper()
	res := Run(cfg)
	if res.Failed() {
		report(t, res)
	}
	if len(res.Events) == 0 {
		t.Fatal("run captured no trace events")
	}
	jsonl, err := EventsJSONL(res)
	if err != nil {
		t.Fatal(err)
	}
	pinDigest(t, "trace JSONL", jsonl, want)
	return jsonl
}

// TestExplorerDeterministic is the determinism contract: a seed and fault
// schedule fix the recorded history, pinned by digest.
func TestExplorerDeterministic(t *testing.T) {
	res := Run(Config{
		Seed:    7,
		Marking: proto.MarkP1,
		Faults: Faults{
			DropProb:         0.03,
			DoomRate:         0.15,
			CoordCrashCycles: 2,
			PartitionCycles:  1,
		},
	})
	if res.Failed() {
		report(t, res)
	}
	h, err := CanonicalJSON(res.History)
	if err != nil {
		t.Fatal(err)
	}
	pinDigest(t, "canonical history", h, goldenHistoryDigest)
}

// TestExplorerTraceGolden is the tracing determinism contract under drops,
// dooms, coordinator crashes and a partition.
func TestExplorerTraceGolden(t *testing.T) {
	goldenTrace(t, Config{
		Seed:    11,
		Marking: proto.MarkP1,
		Faults: Faults{
			DropProb:         0.03,
			DoomRate:         0.15,
			CoordCrashCycles: 2,
			PartitionCycles:  1,
		},
	}, goldenTraceDigest)
}

// TestExplorerTraceInFailureReport checks that an oracle-failure report
// carries the protocol event log, so every explorer failure arrives with
// its trace dump attached.
func TestExplorerTraceInFailureReport(t *testing.T) {
	res := Run(Config{Seed: 2, Marking: proto.MarkP1, Txns: 2, Clients: 1})
	if len(res.Events) == 0 {
		t.Fatal("run captured no trace events")
	}
	res.fail("synthetic oracle failure")
	out := Trace(res)
	if !strings.Contains(out, "FAIL: synthetic oracle failure") {
		t.Errorf("report lost the failure line:\n%s", out)
	}
	if !strings.Contains(out, "protocol events:") || !strings.Contains(out, "txn.begin") {
		t.Errorf("report has no protocol event dump:\n%s", out)
	}
}

// TestExplorerSeedReplay replays one seed on demand:
//
//	go test ./internal/sim/explore -run SeedReplay -v -sim.seed=12345
func TestExplorerSeedReplay(t *testing.T) {
	if *simSeed == 0 {
		t.Skip("pass -sim.seed=N to replay a seed")
	}
	var cfg Config
	for _, entry := range matrix() {
		if entry.name == "everything" {
			cfg = entry.cfg
			break
		}
	}
	cfg.Seed = *simSeed
	res := Run(cfg)
	t.Logf("replay:\n%s", Trace(res))
	if res.Failed() {
		report(t, res)
	}
}

// TestExplorerSmoke runs fresh seeds through the whole matrix until the
// -sim.smoke budget is spent (CI runs this for 30s per push).
func TestExplorerSmoke(t *testing.T) {
	if *simSmoke == 0 {
		t.Skip("pass -sim.smoke=duration to run the smoke loop")
	}
	deadline := time.Now().Add(*simSmoke)
	seed := int64(100)
	runs := 0
	for time.Now().Before(deadline) {
		for _, entry := range matrix() {
			seed++
			cfg := entry.cfg
			cfg.Seed = seed
			res := Run(cfg)
			runs++
			if res.Failed() {
				t.Logf("schedule %q failed", entry.name)
				report(t, res)
			}
		}
	}
	t.Logf("smoke: %d runs, %s per run", runs, (*simSmoke / time.Duration(max(runs, 1))).Round(time.Microsecond))
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// TestExplorerTraceGoldenMultiShot is the determinism contract over the
// multi-shot session workload with site crashes in the schedule:
// session.open and session.round events, think-time jitter and crash
// recovery all land in the pinned trace. This is the replayability
// guarantee for the hostile multi-shot matrix entries.
func TestExplorerTraceGoldenMultiShot(t *testing.T) {
	jsonl := goldenTrace(t, Config{
		Seed:      11,
		Marking:   proto.MarkP1,
		MultiShot: true,
		Faults: Faults{
			SiteCrashCycles: 2,
			DoomRate:        0.15,
		},
	}, goldenMultiShotDigest)
	if !bytes.Contains(jsonl, []byte(`"session.open"`)) {
		t.Error("no session.open event in trace: multi-shot sessions never engaged")
	}
	if !bytes.Contains(jsonl, []byte(`"session.round"`)) {
		t.Error("no session.round event in trace")
	}
}

// TestExplorerTraceGoldenPaxos is the determinism contract over the
// replicated decision log: with every commit decision going through Paxos
// Commit ballots — leader election, replica accepts, majority acks, all in
// virtual time — the trace is pinned like any other, so a failing Paxos
// seed can be replayed and shrunk. No BEGIN is replicated: the decision's
// accept is the only ballot a transaction runs.
func TestExplorerTraceGoldenPaxos(t *testing.T) {
	jsonl := goldenTrace(t, Config{
		Seed:       11,
		Marking:    proto.MarkP1,
		PaxosShare: 1,
		Faults: Faults{
			DropProb:           0.03,
			DoomRate:           0.15,
			ReplicaCrashCycles: 1,
		},
	}, goldenPaxosDigest)
	if bytes.Contains(jsonl, []byte(`"proto.RepBegin"`)) {
		t.Error("a RepBegin was sent: the BEGIN is replicated again")
	}
	if !bytes.Contains(jsonl, []byte(`"replog.accept"`)) {
		t.Error("no replog.accept event in trace: no decision ballot ran")
	}
}

// TestExplorerPaxosLeaderTakeover pins the non-blocking property the
// replicated log buys: the coordinator (the Paxos Commit leader) crashes
// mid-run — including between a decision reaching a replica majority and
// its delivery to the sites — and recovery must finish every in-flight
// transaction by reading the replica majority, never leaving a
// YES-voting participant blocked. The recovering leader's majority read
// shows up as replog.takeover grants at a term above 1; the marking-
// hygiene and conservation oracles then prove no participant stayed in
// doubt. CI runs this under -race -count=5.
func TestExplorerPaxosLeaderTakeover(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		cfg := Config{
			Seed:       seed,
			Marking:    proto.MarkP1,
			PaxosShare: 1,
			Faults: Faults{
				CoordCrashCycles: 2,
				DoomRate:         0.15,
			},
		}
		res := Run(cfg)
		if res.Failed() {
			report(t, res)
		}
		if res.Committed == 0 {
			t.Errorf("seed %d: degenerate run, nothing committed", seed)
		}
		takeover := false
		for _, ev := range res.Events {
			if ev.Type.String() == "replog.takeover" && strings.Contains(ev.Detail, "grant term=") &&
				!strings.Contains(ev.Detail, "grant term=1 ") && ev.Detail != "grant term=1" {
				takeover = true
				break
			}
		}
		if !takeover {
			t.Errorf("seed %d: no post-crash takeover grant (term > 1) in trace", seed)
		}
	}
}

// TestExplorerConfigDefaults pins the documented defaults.
func TestExplorerConfigDefaults(t *testing.T) {
	cfg := withDefaults(Config{})
	want := fmt.Sprintf("%+v", Config{
		Seed: 1, Sites: 3, Coordinators: 2, Clients: 3, Txns: 24, Accounts: 4,
		InitialBalance: 1000, Marking: proto.MarkP1, TwoPCShare: 0.2,
		MinLatency: 100 * time.Microsecond, MaxLatency: 2 * time.Millisecond,
		LockTimeout: 5 * time.Millisecond,
	})
	if got := fmt.Sprintf("%+v", cfg); got != want {
		t.Errorf("defaults drifted:\n got %s\nwant %s", got, want)
	}
}

// TestExplorerTraceGoldenSiteCrash is the determinism contract over a
// schedule that includes site crash/recover cycles: recovery events
// (recover.pending, recover.marks, resumed compensation) land in the
// pinned trace, so a failing site-crash seed can be replayed and shrunk.
func TestExplorerTraceGoldenSiteCrash(t *testing.T) {
	jsonl := goldenTrace(t, Config{
		Seed:    11,
		Marking: proto.MarkP1,
		Faults: Faults{
			DropProb:        0.03,
			SiteCrashCycles: 2,
		},
	}, goldenSiteCrashDigest)
	if !bytes.Contains(jsonl, []byte(`"recover"`)) {
		t.Error("no site recovery event in trace: crash cycles never engaged")
	}
}
