package site

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"o2pc/internal/proto"
	"o2pc/internal/storage"
	"o2pc/internal/wal"
)

// mixedLog drives s1 through every recovery class: committed, exposed
// undecided, in-doubt, loser, compensated abort, an exposed P2
// subtransaction with its lc mark, and an abort decided before the vote.
func mixedLog(t *testing.T, s1 *Site) {
	t.Helper()
	for _, key := range []storage.Key{"a", "b", "c", "d", "e", "f"} {
		s1.SeedInt64(key, 100)
	}
	exec(t, s1, o2pcReq("T1", proto.Add("a", 1)))
	vote(t, s1, "T1")
	decide(t, s1, "T1", true)
	exec(t, s1, o2pcReq("T2", proto.Add("b", 2)))
	vote(t, s1, "T2")
	req := o2pcReq("T3", proto.Add("c", 3))
	req.Protocol = proto.TwoPC
	req.Marking = proto.MarkNone
	exec(t, s1, req)
	vote(t, s1, "T3")
	exec(t, s1, o2pcReq("T4", proto.Add("d", 4)))
	exec(t, s1, o2pcReq("T5", proto.Add("e", 5)))
	vote(t, s1, "T5")
	decide(t, s1, "T5", false)
	p2 := o2pcReq("T6", proto.Add("f", 6))
	p2.Marking = proto.MarkP2
	exec(t, s1, p2)
	vote(t, s1, "T6")
	exec(t, s1, o2pcReq("T7", proto.Add("a", 7)))
	decide(t, s1, "T7", false)
}

// fenceFingerprint adds the stale-exec fence to recoveryFingerprint.
func fenceFingerprint(s *Site) map[string]string {
	fp := recoveryFingerprint(s)
	s.mu.Lock()
	for id := range s.resolved {
		fp["fence:"+id] = "resolved"
	}
	s.mu.Unlock()
	return fp
}

func sameFingerprint(t *testing.T, got, want map[string]string) {
	t.Helper()
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if got[k] != want[k] {
			t.Errorf("%s = %q after the checkpoint, %q from the untruncated log", k, got[k], want[k])
		}
	}
	for k, v := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s = %q after the checkpoint, absent from the untruncated log", k, v)
		}
	}
}

// TestCheckpointRecoversSameState: a crash after a checkpoint recovers the
// same store, pending table, marks and fence as a crash at the same
// instant over the untruncated log, for both log kinds.
func TestCheckpointRecoversSameState(t *testing.T) {
	t.Run("memory", func(t *testing.T) {
		log := wal.NewMemoryLog()
		s1 := newTestSite(t, Config{Log: log})
		mixedLog(t, s1)
		records, err := log.Records()
		if err != nil {
			t.Fatal(err)
		}
		untruncated := wal.NewMemoryLog()
		for _, rec := range records {
			if _, err := untruncated.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := s1.Checkpoint(bg()); err != nil {
			t.Fatalf("checkpoint: %v", err)
		}
		if log.Len() >= len(records) {
			t.Fatalf("checkpoint kept %d of %d records", log.Len(), len(records))
		}
		compareRecovered(t, log, untruncated)
	})
	t.Run("file", func(t *testing.T) {
		dir := t.TempDir()
		path := filepath.Join(dir, "s0.wal")
		log, err := wal.OpenFileLog(path)
		if err != nil {
			t.Fatal(err)
		}
		s1 := newTestSite(t, Config{Log: log})
		mixedLog(t, s1)
		if err := log.Sync(); err != nil {
			t.Fatal(err)
		}
		copyFile(t, path, filepath.Join(dir, "untruncated.wal"))
		if err := s1.Checkpoint(bg()); err != nil {
			t.Fatalf("checkpoint: %v", err)
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
		reopened, err := wal.OpenFileLog(path)
		if err != nil {
			t.Fatal(err)
		}
		defer reopened.Close()
		untruncated, err := wal.OpenFileLog(filepath.Join(dir, "untruncated.wal"))
		if err != nil {
			t.Fatal(err)
		}
		defer untruncated.Close()
		compareRecovered(t, reopened, untruncated)
	})
}

// compareRecovered restarts one site over each log and compares what
// Recover rebuilt.
func compareRecovered(t *testing.T, checkpointed, untruncated wal.Log) {
	t.Helper()
	want := restart(t, untruncated, Config{ResolvePeriod: time.Hour})
	if _, err := want.Recover(bg()); err != nil {
		t.Fatalf("recover untruncated: %v", err)
	}
	got := restart(t, checkpointed, Config{ResolvePeriod: time.Hour})
	if _, err := got.Recover(bg()); err != nil {
		t.Fatalf("recover checkpointed: %v", err)
	}
	fp := fenceFingerprint(want)
	for _, k := range []string{"pend:T2", "pend:T3", "pend:T6", "mark:T5", "lc:T6", "fence:T1", "fence:T5", "fence:T7"} {
		if fp[k] == "" {
			t.Fatalf("scenario lost %s: %v", k, fp)
		}
	}
	sameFingerprint(t, fenceFingerprint(got), fp)
}

func copyFile(t *testing.T, from, to string) {
	t.Helper()
	src, err := os.Open(from)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	dst, err := os.Create(to)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(dst, src); err != nil {
		t.Fatal(err)
	}
	if err := dst.Close(); err != nil {
		t.Fatal(err)
	}
}

// checkpointAroundUpdate checkpoints the log right before and right after
// target's first UPDATE record is appended, and keeps a copy of the log as
// a crash right after each checkpoint would leave it. The second
// checkpoint falls between the append and the store install; the first
// would capture a dirty value with no undo record if the install came
// first.
type checkpointAroundUpdate struct {
	wal.Log
	store   *storage.Store
	target  string
	done    bool
	crashes []*wal.MemoryLog
}

func (l *checkpointAroundUpdate) Append(rec wal.Record) (uint64, error) {
	if l.done || rec.Type != wal.RecUpdate || rec.TxnID != l.target {
		return l.Log.Append(rec)
	}
	l.done = true
	if err := l.checkpointAndCopy(); err != nil {
		return 0, err
	}
	lsn, err := l.Log.Append(rec)
	if err != nil {
		return 0, err
	}
	return lsn, l.checkpointAndCopy()
}

func (l *checkpointAroundUpdate) checkpointAndCopy() error {
	if _, _, err := l.Log.Checkpoint(l.store); err != nil {
		return err
	}
	records, err := l.Log.Records()
	if err != nil {
		return err
	}
	crash := wal.NewMemoryLog()
	for _, rec := range records {
		if _, err := crash.Append(rec); err != nil {
			return err
		}
	}
	l.crashes = append(l.crashes, crash)
	return nil
}

// TestCheckpointUnderTraffic: eight goroutines commit and abort transfers
// under 2PC and O2PC while checkpoints run. A restart then recovers the
// committed projection, money conserved — including transactions
// checkpointed between their UPDATE's append and its install.
func TestCheckpointUnderTraffic(t *testing.T) {
	const (
		workers  = 8
		accounts = 8
		perTxn   = 60
		initial  = 1000
	)
	mem := wal.NewMemoryLog()
	log := &checkpointAroundUpdate{Log: mem, target: "Tcaught"}
	s1 := newTestSite(t, Config{Log: log, LockTimeout: 20 * time.Millisecond})
	log.store = s1.Manager().Store()
	acct := func(i int) string { return fmt.Sprintf("a%d", i) }
	for i := 0; i < accounts; i++ {
		s1.SeedInt64(storage.Key(acct(i)), initial)
	}

	stop := make(chan struct{})
	var ckpts sync.WaitGroup
	ckpts.Add(1)
	go func() {
		defer ckpts.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := s1.Checkpoint(bg()); err != nil {
				t.Errorf("checkpoint: %v", err)
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perTxn; i++ {
				id := fmt.Sprintf("w%d-%d", w, i)
				from, to := rng.Intn(accounts), rng.Intn(accounts-1)
				if to >= from {
					to++
				}
				req := o2pcReq(id, proto.Add(acct(from), -7), proto.Add(acct(to), 7))
				req.Marking = proto.MarkNone
				if w%2 == 0 {
					req.Protocol = proto.TwoPC
				}
				raw, err := s1.Handle(bg(), "c0", req)
				if err != nil || !raw.(proto.ExecReply).OK {
					continue // a lock timeout rolled it back
				}
				raw, err = s1.Handle(bg(), "c0", proto.VoteRequest{TxnID: id})
				if err != nil || !raw.(proto.VoteReply).Commit {
					continue
				}
				if _, err := s1.Handle(bg(), "c0", proto.Decision{TxnID: id, Commit: rng.Intn(4) != 0}); err != nil {
					t.Errorf("decide %s: %v", id, err)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	ckpts.Wait()
	if n := s1.Stats().Checkpoints.Value(); n == 0 {
		t.Fatal("no checkpoint ran under traffic")
	}

	// Checkpoints land around Tcaught's first UPDATE; it commits. They land
	// around Tloser's too, and it never decides.
	caught := o2pcReq("Tcaught", proto.Add(acct(0), -100), proto.Add(acct(1), 100))
	caught.Marking = proto.MarkNone
	exec(t, s1, caught)
	vote(t, s1, "Tcaught")
	decide(t, s1, "Tcaught", true)
	log.target, log.done = "Tloser", false
	loser := o2pcReq("Tloser", proto.Add(acct(2), -500), proto.Add(acct(3), 500))
	loser.Protocol = proto.TwoPC
	loser.Marking = proto.MarkNone
	exec(t, s1, loser)
	if !log.done {
		t.Fatal("no checkpoint around Tloser's append")
	}

	committed := map[string]int64{}
	var total int64
	for i := 0; i < accounts; i++ {
		v := s1.ReadInt64(storage.Key(acct(i)))
		if i == 2 {
			v += 500 // Tloser is undone by recovery
		}
		if i == 3 {
			v -= 500
		}
		committed[acct(i)] = v
		total += v
	}
	if total != accounts*initial {
		t.Fatalf("live total %d, want %d", total, accounts*initial)
	}

	s2 := restart(t, mem, Config{ResolvePeriod: time.Hour})
	if _, err := s2.Recover(bg()); err != nil {
		t.Fatalf("recover: %v", err)
	}
	for i := 0; i < accounts; i++ {
		if got := s2.ReadInt64(storage.Key(acct(i))); got != committed[acct(i)] {
			t.Errorf("%s = %d after recovery, want %d (the committed projection)", acct(i), got, committed[acct(i)])
		}
	}

	// A crash right after any of the four checkpoints around the two
	// appends recovers with money conserved too.
	if len(log.crashes) != 4 {
		t.Fatalf("%d crash copies, want 4", len(log.crashes))
	}
	for c, crash := range log.crashes {
		s3 := restart(t, crash, Config{ResolvePeriod: time.Hour})
		if _, err := s3.Recover(bg()); err != nil {
			t.Fatalf("recover crash copy %d: %v", c, err)
		}
		var sum int64
		for i := 0; i < accounts; i++ {
			sum += s3.ReadInt64(storage.Key(acct(i)))
		}
		if sum != accounts*initial {
			t.Errorf("crash after checkpoint %d: total %d, want %d", c, sum, accounts*initial)
		}
	}
}

// TestCheckpointKeepsLaterWriteOverExposedKey: an exposed-undecided T1
// released its lock on k at the vote, so T2 wrote k after it and
// committed. The checkpoint's image of k holds T2's value and T1's records
// are carried; recovery must not redo T1's after-image over it, and
// compensating T1 after its ABORT must conserve money.
func TestCheckpointKeepsLaterWriteOverExposedKey(t *testing.T) {
	for _, kind := range []string{"memory", "file"} {
		t.Run(kind, func(t *testing.T) {
			var log wal.Log = wal.NewMemoryLog()
			if kind == "file" {
				fl, err := wal.OpenFileLog(filepath.Join(t.TempDir(), "s0.wal"))
				if err != nil {
					t.Fatal(err)
				}
				defer fl.Close()
				log = fl
			}
			s1 := newTestSite(t, Config{Log: log})
			for _, key := range []storage.Key{"k", "x", "y"} {
				s1.SeedInt64(key, 100)
			}
			exec(t, s1, o2pcReq("T1", proto.Add("k", -10), proto.Add("x", 10)))
			vote(t, s1, "T1") // exposed: locally committed, lock-free, undecided
			exec(t, s1, o2pcReq("T2", proto.Add("k", -5), proto.Add("y", 5)))
			vote(t, s1, "T2")
			decide(t, s1, "T2", true)
			if err := s1.Checkpoint(bg()); err != nil {
				t.Fatalf("checkpoint: %v", err)
			}

			s2 := restart(t, log, Config{ResolvePeriod: time.Hour})
			if _, err := s2.Recover(bg()); err != nil {
				t.Fatalf("recover: %v", err)
			}
			want := map[storage.Key]int64{"k": 85, "x": 110, "y": 105}
			for key, v := range want {
				if got := s2.ReadInt64(key); got != v {
					t.Errorf("%s = %d after recovery, want %d", key, got, v)
				}
			}
			decide(t, s2, "T1", false)
			var total int64
			for _, key := range []storage.Key{"k", "x", "y"} {
				total += s2.ReadInt64(key)
			}
			if got := s2.ReadInt64("k"); got != 95 || total != 300 {
				t.Fatalf("after compensating T1: k = %d, total = %d; want 95, 300", got, total)
			}
		})
	}
}

// TestStaleExecRefusedAfterCheckpointAndRestart: the decisions a
// checkpoint carries keep fencing a delayed ExecRequest of a decided
// transaction after a restart.
func TestStaleExecRefusedAfterCheckpointAndRestart(t *testing.T) {
	log := wal.NewMemoryLog()
	s1 := newTestSite(t, Config{Log: log})
	s1.SeedInt64("n", 0)
	exec(t, s1, o2pcReq("Tdone", proto.Add("n", 1)))
	vote(t, s1, "Tdone")
	decide(t, s1, "Tdone", true)
	exec(t, s1, o2pcReq("Taborted", proto.Add("n", 1)))
	decide(t, s1, "Taborted", false) // aborted before its vote
	if err := s1.Checkpoint(bg()); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}

	s2 := restart(t, log, Config{ResolvePeriod: time.Hour})
	if _, err := s2.Recover(bg()); err != nil {
		t.Fatalf("recover: %v", err)
	}
	for _, id := range []string{"Tdone", "Taborted"} {
		if reply := exec(t, s2, o2pcReq(id, proto.Add("n", 10))); reply.OK {
			t.Fatalf("stale exec of %s ran after checkpoint and restart: %+v", id, reply)
		}
	}
	if got := s2.ReadInt64("n"); got != 1 {
		t.Fatalf("n = %d, want 1", got)
	}
}

// TestLogBoundedUnderTraffic: over 100k transactions the site's own
// trigger keeps its memory log within the threshold plus one checkpoint.
// The loop waits out each background checkpoint, so the bound leaves no
// room for appends that race one.
func TestLogBoundedUnderTraffic(t *testing.T) {
	const (
		txns     = 100_000
		accounts = 16
		slack    = 6 // the transaction whose decision fired the trigger
	)
	log := wal.NewMemoryLog()
	s := newTestSite(t, Config{Log: log})
	for i := 0; i < accounts; i++ {
		s.SeedInt64(storage.Key(fmt.Sprintf("a%d", i)), 1000)
	}
	maxLen, ckpt := 0, 0 // the longest log and the largest checkpoint seen
	for i := 0; i < txns; i++ {
		id := fmt.Sprintf("T%d", i)
		req := o2pcReq(id, proto.Add(fmt.Sprintf("a%d", i%accounts), -1), proto.Add(fmt.Sprintf("a%d", (i+1)%accounts), 1))
		req.Protocol = proto.TwoPC
		req.Marking = proto.MarkNone
		req.Vote, req.Last = true, true
		if reply := exec(t, s, req); !reply.OK || !reply.Vote.Commit {
			t.Fatalf("exec %s: %+v", id, reply)
		}
		decide(t, s, id, i%10 != 0)
		maxLen = max(maxLen, log.Len())
		for s.checkpointing() {
			time.Sleep(10 * time.Microsecond)
		}
		s.mu.Lock()
		ckpt = max(ckpt, int(s.ckptSize))
		s.mu.Unlock()
	}
	bound := max(checkpointMinRecords, checkpointGrowth*ckpt) + ckpt + slack
	if maxLen > bound {
		t.Fatalf("memory log reached %d records, bound %d (checkpoint of %d)", maxLen, bound, ckpt)
	}
	// Six records per transaction; the trigger fires about every
	// threshold records.
	if n, want := s.Stats().Checkpoints.Value(), int64(txns*6/bound); n < want {
		t.Fatalf("%d checkpoints over %d transactions, want at least %d", n, txns, want)
	}
	if got := s.Stats().WALRecords.Value(); got <= 0 || got > int64(bound) {
		t.Fatalf("wal_records gauge %d, bound %d", got, bound)
	}
}

func (s *Site) checkpointing() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ckptBusy
}
