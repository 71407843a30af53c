package site

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"o2pc/internal/lock"
	"o2pc/internal/proto"
	"o2pc/internal/storage"
	"o2pc/internal/wal"
)

// restart models a true site restart: a second Site constructed over the
// same WAL, with none of the first incarnation's volatile state.
func restart(t *testing.T, log wal.Log, cfg Config) *Site {
	t.Helper()
	cfg.Log = log
	if cfg.Name == "" {
		cfg.Name = "s0"
	}
	return NewSite(cfg)
}

// TestSiteCrashRecoversExposureAndCompensates is the PR's headline
// scenario: an O2PC participant votes YES, locally commits and releases
// its locks (exposure), then the whole site crashes. The restarted site —
// a fresh Site over the same WAL, nothing else — must rediscover the
// exposed subtransaction from its RecExposed record, resume the decision
// inquiry, and on learning the global ABORT compensate the exposed write
// and set the undone mark. Everything it needs is in its own log.
func TestSiteCrashRecoversExposureAndCompensates(t *testing.T) {
	log := wal.NewMemoryLog()
	s1 := newTestSite(t, Config{Log: log})
	s1.SeedInt64("n", 100)
	reply := exec(t, s1, o2pcReq("T1", proto.Add("n", -10)))
	if !reply.OK {
		t.Fatalf("exec: %+v", reply)
	}
	if v := vote(t, s1, "T1"); !v.Commit {
		t.Fatalf("vote: %+v", v)
	}
	if got := s1.ReadInt64("n"); got != 90 {
		t.Fatalf("n = %d before crash, want 90 (exposed)", got)
	}

	// Crash: s1 is abandoned, its volatile state gone. The coordinator's
	// decision never arrived.
	s2 := restart(t, log, Config{ResolvePeriod: 2 * time.Millisecond})
	caller := &stubCaller{known: true, commit: false} // c0 decided ABORT
	s2.SetCaller(caller)
	res, err := s2.Recover(bg())
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if len(res.InDoubt) != 0 {
		t.Fatalf("O2PC exposure misclassified as in-doubt: %v", res.InDoubt)
	}
	// The exposed commit survives the restart, still lock-free.
	if got := s2.ReadInt64("n"); got != 90 {
		t.Fatalf("n = %d after recovery, want 90 (exposure redone)", got)
	}
	if s2.Manager().Locks().HoldsAny("T1") {
		t.Fatalf("recovered exposed subtransaction holds locks — exposure means lock-free")
	}
	if got := s2.Stats().RecoveredExposed.Value(); got != 1 {
		t.Fatalf("RecoveredExposed = %d, want 1", got)
	}

	// The re-armed resolver asks c0, learns ABORT, and compensates.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if s2.ReadInt64("n") == 100 && s2.Marks().Contains("T1") {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("recovered site never compensated: n=%d marked=%v calls=%d",
		s2.ReadInt64("n"), s2.Marks().Contains("T1"), func() int { caller.mu.Lock(); defer caller.mu.Unlock(); return caller.calls }())
}

// TestRecoverRejectsLegacyJSONExposure pins the loud failure that replaced
// the legacy-JSON sniff: a RecExposed record whose Aux is the JSON form
// earlier builds wrote, not the magic-tagged binary form, makes Recover
// return an error instead of rebuilding the exposed entry.
func TestRecoverRejectsLegacyJSONExposure(t *testing.T) {
	log := wal.NewMemoryLog()
	s1 := newTestSite(t, Config{Log: log})
	s1.SeedInt64("n", 100)
	exec(t, s1, o2pcReq("T1", proto.Add("n", -10)))
	if v := vote(t, s1, "T1"); !v.Commit {
		t.Fatalf("vote: %+v", v)
	}

	recs, err := log.Records()
	if err != nil {
		t.Fatal(err)
	}
	legacy := wal.NewMemoryLog()
	rewritten := false
	for _, rec := range recs {
		if rec.Type == wal.RecExposed {
			e, err := decodeExposure(rec.Aux)
			if err != nil {
				t.Fatal(err)
			}
			js, err := json.Marshal(struct {
				Coord string            `json:"coord"`
				Req   proto.ExecRequest `json:"req"`
			}{e.Coord, e.Req})
			if err != nil {
				t.Fatal(err)
			}
			rec.Aux = string(js)
			rewritten = true
		}
		if _, err := legacy.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if !rewritten {
		t.Fatal("the YES vote logged no RecExposed record")
	}

	_, err = restart(t, legacy, Config{}).Recover(bg())
	if err == nil || !strings.Contains(err.Error(), "exposure record") {
		t.Fatalf("Recover over a JSON exposure record: err = %v, want a decode error", err)
	}
}

// TestSiteCrashRecoversExposureAndCommits is the happy twin: the
// coordinator decided COMMIT, so the restarted site's inquiry simply
// confirms the exposed state and retires the entry — no compensation, no
// mark.
func TestSiteCrashRecoversExposureAndCommits(t *testing.T) {
	log := wal.NewMemoryLog()
	s1 := newTestSite(t, Config{Log: log})
	s1.SeedInt64("n", 100)
	exec(t, s1, o2pcReq("T1", proto.Add("n", -10)))
	vote(t, s1, "T1")

	s2 := restart(t, log, Config{ResolvePeriod: 2 * time.Millisecond})
	s2.SetCaller(&stubCaller{known: true, commit: true})
	if _, err := s2.Recover(bg()); err != nil {
		t.Fatalf("recover: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		s2.mu.Lock()
		_, pending := s2.pend["T1"]
		s2.mu.Unlock()
		if !pending {
			if got := s2.ReadInt64("n"); got != 90 {
				t.Fatalf("n = %d after confirmed commit, want 90", got)
			}
			if s2.Marks().Contains("T1") {
				t.Fatalf("committed transaction marked undone")
			}
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("recovered exposure never resolved")
}

// TestRecoverResumesInterruptedCompensation: the ABORT decision made it to
// the log but the crash preempted the compensating transaction. Recover
// must re-run it before the site reopens — no coordinator contact needed,
// the decision is already local.
func TestRecoverResumesInterruptedCompensation(t *testing.T) {
	log := wal.NewMemoryLog()
	s1 := newTestSite(t, Config{Log: log})
	s1.SeedInt64("n", 100)
	exec(t, s1, o2pcReq("T1", proto.Add("n", -10)))
	vote(t, s1, "T1")
	// The decision record lands; the crash hits before compensation.
	if _, err := log.Append(wal.Record{Type: wal.RecDecision, TxnID: "T1", Aux: "abort"}); err != nil {
		t.Fatalf("append decision: %v", err)
	}

	s2 := restart(t, log, Config{})
	if _, err := s2.Recover(bg()); err != nil {
		t.Fatalf("recover: %v", err)
	}
	// Compensation re-ran inside Recover: balance restored, mark set,
	// nothing left pending.
	if got := s2.ReadInt64("n"); got != 100 {
		t.Fatalf("n = %d after resumed compensation, want 100", got)
	}
	if !s2.Marks().Contains("T1") {
		t.Fatalf("resumed compensation did not set the undone mark")
	}
	if got := s2.Stats().ResumedCompensations.Value(); got != 1 {
		t.Fatalf("ResumedCompensations = %d, want 1", got)
	}
	s2.mu.Lock()
	_, pending := s2.pend["T1"]
	s2.mu.Unlock()
	if pending {
		t.Fatalf("compensated transaction still pending after recovery")
	}
}

// TestRecoverInDoubtReacquiresLocks: a 2PC participant prepared and
// undecided at crash time must come back blocked — exclusive locks on its
// write set, awaiting the decision — which is exactly the window O2PC
// exists to remove.
func TestRecoverInDoubtReacquiresLocks(t *testing.T) {
	log := wal.NewMemoryLog()
	s1 := newTestSite(t, Config{Log: log})
	s1.SeedInt64("n", 100)
	req := o2pcReq("T1", proto.Add("n", -10))
	req.Protocol = proto.TwoPC
	req.Marking = proto.MarkNone
	exec(t, s1, req)
	vote(t, s1, "T1")

	s2 := restart(t, log, Config{})
	res, err := s2.Recover(bg())
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if len(res.InDoubt) != 1 || res.InDoubt[0] != "T1" {
		t.Fatalf("in-doubt = %v, want [T1]", res.InDoubt)
	}
	if !s2.Manager().Locks().HoldsAny("T1") {
		t.Fatalf("recovered in-doubt participant holds no locks — 2PC demands it stays blocked")
	}
	// The prepared update stays applied in place, shielded from other
	// transactions by the re-acquired exclusive locks, and a late ABORT
	// decision undoes it from the logged before-images.
	if got := s2.ReadInt64("n"); got != 90 {
		t.Fatalf("n = %d, want 90 (prepared update applied, lock-protected)", got)
	}
	if _, err := s2.Handle(bg(), "c0", proto.Decision{TxnID: "T1", Commit: false}); err != nil {
		t.Fatalf("decision after recovery: %v", err)
	}
	if got := s2.ReadInt64("n"); got != 100 {
		t.Fatalf("n = %d after abort decision, want 100", got)
	}
	if s2.Manager().Locks().HoldsAny("T1") {
		t.Fatalf("locks held after decision")
	}
}

// TestLateAbortUndoSurvivesNextCrash pins the replay ordering of a late
// abort: a recovered in-doubt participant receives ABORT (undo applied in
// place, ABORT record logged, locks released), a later transaction then
// writes the same key and commits, and the site crashes again. The next
// recovery must replay the first transaction's undo at its ABORT record's
// log position — undoing it after the redo pass would re-install the
// stale before-image on top of the later committed write (the explorer's
// seed-107 conservation violation).
func TestLateAbortUndoSurvivesNextCrash(t *testing.T) {
	log := wal.NewMemoryLog()
	s1 := newTestSite(t, Config{Log: log})
	s1.SeedInt64("n", 100)
	req := o2pcReq("T1", proto.Add("n", -10))
	req.Protocol = proto.TwoPC
	req.Marking = proto.MarkNone
	exec(t, s1, req)
	vote(t, s1, "T1")

	// First crash: T1 comes back in-doubt, then the coordinator aborts it.
	s2 := restart(t, log, Config{})
	if _, err := s2.Recover(bg()); err != nil {
		t.Fatalf("recover: %v", err)
	}
	if _, err := s2.Handle(bg(), "c0", proto.Decision{TxnID: "T1", Commit: false}); err != nil {
		t.Fatalf("late abort: %v", err)
	}
	if got := s2.ReadInt64("n"); got != 100 {
		t.Fatalf("n = %d after late abort, want 100", got)
	}

	// T9 now writes the same key and commits durably.
	exec(t, s2, o2pcReq("T9", proto.Add("n", -5)))
	vote(t, s2, "T9")
	decide(t, s2, "T9", true)
	if got := s2.ReadInt64("n"); got != 95 {
		t.Fatalf("n = %d after T9, want 95", got)
	}

	// Second crash: T9's committed write must survive T1's replayed undo.
	s3 := restart(t, log, Config{})
	if _, err := s3.Recover(bg()); err != nil {
		t.Fatalf("second recover: %v", err)
	}
	if got := s3.ReadInt64("n"); got != 95 {
		t.Fatalf("n = %d after second recovery, want 95 (T1's stale undo clobbered T9's committed write)", got)
	}
}

// TestCrashUnwedgesBlockedCompensation: a decision handler whose
// compensation is parked behind a held data lock must unwind when the
// site crashes — a real crash kills the process's threads, and Recover's
// handler drain would otherwise spin against a retry loop whose lock
// holder may itself be waiting for a decision the closed site cannot
// take. The restarted site re-runs the interrupted compensation from the
// WAL.
func TestCrashUnwedgesBlockedCompensation(t *testing.T) {
	log := wal.NewMemoryLog()
	s1 := newTestSite(t, Config{Log: log, LockTimeout: 2 * time.Millisecond})
	s1.SeedInt64("n", 100)
	exec(t, s1, o2pcReq("T1", proto.Add("n", -10)))
	vote(t, s1, "T1")

	// A foreign holder keeps an exclusive lock on T1's write set, so the
	// abort decision's compensation cannot finish.
	if err := s1.Manager().Locks().Acquire(bg(), "blocker", "n", lock.Exclusive); err != nil {
		t.Fatalf("blocker lock: %v", err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = s1.Handle(bg(), "c0", proto.Decision{TxnID: "T1", Commit: false})
	}()
	deadline := time.Now().Add(2 * time.Second)
	for s1.Stats().Compensations.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("compensation never started")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(5 * time.Millisecond) // let the retry loop park on the lock

	s1.SetCrashed(true)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatalf("decision handler did not unwind after crash — Recover's drain would wedge")
	}

	// The restarted site owes the compensation (DECISION abort logged, no
	// CompEnd) and completes it from the WAL alone.
	s2 := restart(t, log, Config{})
	if _, err := s2.Recover(bg()); err != nil {
		t.Fatalf("recover: %v", err)
	}
	if got := s2.ReadInt64("n"); got != 100 {
		t.Fatalf("n = %d after recovery, want 100 (compensation re-run)", got)
	}
	if !s2.Marks().Contains("T1") {
		t.Fatalf("undone mark missing after resumed compensation")
	}
	if got := s2.Stats().ResumedCompensations.Value(); got != 1 {
		t.Fatalf("ResumedCompensations = %d, want 1", got)
	}
}

// recoveryFingerprint summarizes everything Recover rebuilds, for
// idempotence comparison: store contents, pending states, marking sets.
func recoveryFingerprint(s *Site) map[string]string {
	fp := make(map[string]string)
	store := s.Manager().Store()
	for key, rec := range store.Snapshot() {
		fp["store:"+string(key)] = string(rec.Value) + "/" + rec.Writer
	}
	s.mu.Lock()
	for id, p := range s.pend {
		fp["pend:"+id] = fmt.Sprintf("%d@%s", p.state, p.coord)
	}
	s.mu.Unlock()
	undone := s.Marks().Snapshot()
	sort.Strings(undone)
	for _, ti := range undone {
		fp["mark:"+ti] = "undone"
	}
	lc := s.LCMarks().Snapshot()
	sort.Strings(lc)
	for _, ti := range lc {
		fp["lc:"+ti] = "lc"
	}
	return fp
}

// TestRecoverIdempotent is the WAL-replay idempotence property: recovering
// twice from the same log yields the same store, pending table, and
// marking sets as recovering once. The log mixes every recovery class —
// committed, exposed-undecided, in-doubt, loser, and compensated-abort.
func TestRecoverIdempotent(t *testing.T) {
	log := wal.NewMemoryLog()
	s1 := newTestSite(t, Config{Log: log})
	for _, key := range []storage.Key{"a", "b", "c", "d", "e"} {
		s1.SeedInt64(key, 100)
	}
	// T1: exposed, decided COMMIT — fully resolved.
	exec(t, s1, o2pcReq("T1", proto.Add("a", 1)))
	vote(t, s1, "T1")
	decide(t, s1, "T1", true)
	// T2: exposed, undecided at crash time.
	exec(t, s1, o2pcReq("T2", proto.Add("b", 2)))
	vote(t, s1, "T2")
	// T3: 2PC prepared, in-doubt.
	req := o2pcReq("T3", proto.Add("c", 3))
	req.Protocol = proto.TwoPC
	req.Marking = proto.MarkNone
	exec(t, s1, req)
	vote(t, s1, "T3")
	// T4: loser — executed, never voted.
	exec(t, s1, o2pcReq("T4", proto.Add("d", 4)))
	// T5: exposed, decided ABORT, fully compensated (undone mark set).
	exec(t, s1, o2pcReq("T5", proto.Add("e", 5)))
	vote(t, s1, "T5")
	decide(t, s1, "T5", false)

	s2 := restart(t, log, Config{})
	if _, err := s2.Recover(bg()); err != nil {
		t.Fatalf("first recover: %v", err)
	}
	once := recoveryFingerprint(s2)
	if _, err := s2.Recover(bg()); err != nil {
		t.Fatalf("second recover: %v", err)
	}
	twice := recoveryFingerprint(s2)

	if len(once) != len(twice) {
		t.Fatalf("fingerprint size changed: %d -> %d\nonce:  %v\ntwice: %v", len(once), len(twice), once, twice)
	}
	for k, v := range once {
		if twice[k] != v {
			t.Fatalf("recovery not idempotent at %q: %q -> %q", k, v, twice[k])
		}
	}
	// Spot-check the classes landed where they should.
	if once["store:b"] != "" && s2.ReadInt64("b") != 102 {
		t.Fatalf("b = %d, want 102 (exposed commit)", s2.ReadInt64("b"))
	}
	if got := s2.ReadInt64("d"); got != 100 {
		t.Fatalf("d = %d, want 100 (loser undone)", got)
	}
	if got := s2.ReadInt64("e"); got != 100 {
		t.Fatalf("e = %d, want 100 (compensated abort)", got)
	}
	if !s2.Marks().Contains("T5") {
		t.Fatalf("T5's undone mark lost across recovery")
	}
}
