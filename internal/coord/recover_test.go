package coord

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"o2pc/internal/history"
	"o2pc/internal/proto"
	"o2pc/internal/sim"
	"o2pc/internal/wal"
)

// TestLostBeginLearnedFromSites: a coordinator over a FileLog dies with a
// transaction's BEGIN still in its write buffer — LocalLog does not force
// it — after both 2PC participants voted YES. The restarted coordinator
// reads a log without the transaction, so without asking the sites it
// would answer the participants' inquiries Known:false for ever, and they
// would hold their locks in doubt. Its recovery scan learns the
// transaction from them and presumes abort.
func TestLostBeginLearnedFromSites(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c0.wal")
	log, err := wal.OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	r := newRigResolve(t, 2, 2*time.Millisecond)
	sites := []string{siteName(0), siteName(1)}
	r.coord = New(Config{Name: "c0", Recorder: r.rec, Log: log, Sites: sites}, r.net)
	r.net.Register("c0", r.coord.Handle)
	r.seed("acct", 100)
	r.coord.SetCrashInjector(func(_ string, phase CrashPhase) bool { return phase == CrashAfterVotes })
	if res := r.coord.Run(bg(), transfer(r, proto.TwoPC, proto.MarkNone, "Tlost", 30)); res.Outcome != AbortedCoordinator {
		t.Fatalf("outcome = %v (%v), want the crash after the votes", res.Outcome, res.Err)
	}
	for _, s := range r.sites {
		if !s.Manager().Locks().HoldsAny("Tlost") {
			t.Fatalf("%s does not hold Tlost's locks in doubt", s.Name())
		}
	}

	// The "killed" process's log is what reached the file: nothing was
	// synced, so the BEGIN is lost.
	image, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	copyPath := filepath.Join(dir, "c0-killed.wal")
	if err := os.WriteFile(copyPath, image, 0o644); err != nil {
		t.Fatal(err)
	}
	reopened, err := wal.OpenFileLog(copyPath)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if recs, err := reopened.Records(); err != nil || len(recs) != 0 {
		t.Fatalf("killed log holds %d records (%v), want none", len(recs), err)
	}

	r.coord.Close()
	restarted := New(Config{Name: "c0", Recorder: r.rec, Log: reopened, Sites: sites}, r.net)
	defer restarted.Close()
	r.net.Register("c0", restarted.Handle)
	if err := restarted.Recover(bg()); err != nil {
		t.Fatalf("recover: %v", err)
	}
	waitQuiesce(t, r)
	for _, s := range r.sites {
		if s.Manager().Locks().HoldsAny("Tlost") {
			t.Fatalf("%s still holds Tlost's locks", s.Name())
		}
		if got := s.ReadInt64("acct"); got != 100 {
			t.Fatalf("%s acct = %d, want 100 after the presumed abort", s.Name(), got)
		}
	}
	if got := r.rec.Snapshot().FateOf("Tlost"); got != history.FateAborted {
		t.Fatalf("Tlost fate = %v, want aborted", got)
	}
	if n := restarted.Stats().RecoveryOrphans.Value(); n != 1 {
		t.Fatalf("recovery orphans = %d, want 1", n)
	}
	if n := restarted.Stats().UnscannedSites.Value(); n != 0 {
		t.Fatalf("unscanned sites = %d, want 0", n)
	}
}

// TestUnreachableSiteScannedInBackground: a site that is down while the
// coordinator recovers is scanned once it is back, and its orphan is
// presumed aborted then; meanwhile the unscanned-sites gauge counts it.
func TestUnreachableSiteScannedInBackground(t *testing.T) {
	r := newRigResolve(t, 2, time.Hour)
	sites := []string{siteName(0), siteName(1)}
	r.coord = New(Config{Name: "c0", Recorder: r.rec, Sites: sites}, r.net)
	r.net.Register("c0", r.coord.Handle)
	r.seed("acct", 100)
	// The first site alone takes part, and votes YES before the
	// coordinator dies.
	r.coord.SetCrashInjector(func(string, CrashPhase) bool { return true })
	spec := TxnSpec{ID: "Torphan", Protocol: proto.TwoPC, Subtxns: []SubtxnSpec{
		{Site: siteName(0), Ops: []proto.Operation{proto.Add("acct", 30)}, Comp: proto.CompSemantic},
	}}
	if res := r.coord.Run(bg(), spec); res.Outcome != AbortedCoordinator {
		t.Fatalf("outcome = %v (%v)", res.Outcome, res.Err)
	}
	r.coord.Close()
	// The restarted coordinator's fresh log stands for one that lost the
	// unforced BEGIN.
	restarted := New(Config{Name: "c0", Recorder: r.rec, Sites: sites}, r.net)
	defer restarted.Close()
	r.net.Register("c0", restarted.Handle)
	r.net.SetDown(siteName(0), true)
	if err := restarted.Recover(bg()); err != nil {
		t.Fatalf("recover: %v", err)
	}
	if n := restarted.Stats().UnscannedSites.Value(); n != 1 {
		t.Fatalf("unscanned sites = %d, want 1", n)
	}
	if !r.sites[0].Manager().Locks().HoldsAny("Torphan") {
		t.Fatal("the site down across recovery lost Torphan's locks")
	}
	r.net.SetDown(siteName(0), false)
	waitFor(t, 5*time.Second, func() bool { return restarted.Stats().UnscannedSites.Value() == 0 }, "background scan")
	waitQuiesce(t, r)
	if r.sites[0].Manager().Locks().HoldsAny("Torphan") {
		t.Fatal("the site down across recovery still holds Torphan's locks")
	}
	if n := restarted.Stats().RecoveryOrphans.Value(); n != 1 {
		t.Fatalf("recovery orphans = %d, want 1", n)
	}
}

// TestSiteDownAcrossRecoveryAfterPeerForgot: both 2PC participants of a
// transaction whose BEGIN the restarted coordinator lost voted YES, and
// one of them is down across the recovery. The recovery presumes abort
// for the other, which acks, so the coordinator forgets the transaction;
// the site that comes back later reports it again and must be released
// by a second presumed abort, not left in doubt with Known:false.
func TestSiteDownAcrossRecoveryAfterPeerForgot(t *testing.T) {
	r := newRigResolve(t, 2, time.Hour)
	sites := []string{siteName(0), siteName(1)}
	r.coord = New(Config{Name: "c0", Recorder: r.rec, Sites: sites}, r.net)
	r.net.Register("c0", r.coord.Handle)
	r.seed("acct", 100)
	r.coord.SetCrashInjector(func(_ string, phase CrashPhase) bool { return phase == CrashAfterVotes })
	if res := r.coord.Run(bg(), transfer(r, proto.TwoPC, proto.MarkNone, "Torphan", 30)); res.Outcome != AbortedCoordinator {
		t.Fatalf("outcome = %v (%v), want the crash after the votes", res.Outcome, res.Err)
	}
	r.coord.Close()
	// The restarted coordinator's fresh log stands for one that lost the
	// unforced BEGIN.
	restarted := New(Config{Name: "c0", Recorder: r.rec, Sites: sites}, r.net)
	defer restarted.Close()
	r.net.Register("c0", restarted.Handle)
	r.net.SetDown(siteName(1), true)
	if err := restarted.Recover(bg()); err != nil {
		t.Fatalf("recover: %v", err)
	}
	waitFor(t, 5*time.Second, func() bool {
		return !r.sites[0].Manager().Locks().HoldsAny("Torphan") && !resolve(t, restarted, "Torphan").Known
	}, "the answering site released and the transaction forgotten")
	if !r.sites[1].Manager().Locks().HoldsAny("Torphan") {
		t.Fatal("the site down across recovery lost Torphan's locks")
	}
	r.net.SetDown(siteName(1), false)
	waitFor(t, 5*time.Second, func() bool { return restarted.Stats().UnscannedSites.Value() == 0 }, "background scan")
	waitQuiesce(t, r)
	for _, s := range r.sites {
		if s.Manager().Locks().HoldsAny("Torphan") {
			t.Fatalf("%s still holds Torphan's locks", s.Name())
		}
		if got := s.ReadInt64("acct"); got != 100 {
			t.Fatalf("%s acct = %d, want 100 after the presumed abort", s.Name(), got)
		}
	}
	if n := restarted.Stats().RecoveryOrphans.Value(); n != 1 {
		t.Fatalf("recovery orphans = %d, want 1", n)
	}
}

// skewedClock reads skew later than the clock it wraps.
type skewedClock struct {
	sim.Clock
	skew time.Duration
}

func (c skewedClock) Now() time.Time { return c.Clock.Now().Add(c.skew) }

// TestRecoveryMovesPastEarlierLifesIncarnation: the coordinator's earlier
// life ran with a clock an hour ahead, so its incarnation is later than the
// one the restarted coordinator draws from its own clock. The sites report
// the later floor, and the recovery moves past it: the earlier life's YES
// voters are presumed aborted rather than taken for runs of the new
// incarnation, and the new incarnation's execs are not refused.
func TestRecoveryMovesPastEarlierLifesIncarnation(t *testing.T) {
	r := newRigResolve(t, 2, time.Hour)
	sites := []string{siteName(0), siteName(1)}
	r.coord = New(Config{Name: "c0", Recorder: r.rec, Sites: sites, Clock: skewedClock{sim.Real(), time.Hour}}, r.net)
	r.net.Register("c0", r.coord.Handle)
	r.seed("acct", 100)
	r.coord.SetCrashInjector(func(_ string, phase CrashPhase) bool { return phase == CrashAfterVotes })
	if res := r.coord.Run(bg(), transfer(r, proto.TwoPC, proto.MarkNone, "Tahead", 30)); res.Outcome != AbortedCoordinator {
		t.Fatalf("outcome = %v (%v), want the crash after the votes", res.Outcome, res.Err)
	}
	r.coord.Close()
	restarted := New(Config{Name: "c0", Recorder: r.rec, Sites: sites}, r.net)
	defer restarted.Close()
	r.net.Register("c0", restarted.Handle)
	if err := restarted.Recover(bg()); err != nil {
		t.Fatalf("recover: %v", err)
	}
	waitQuiesce(t, r)
	for _, s := range r.sites {
		if s.Manager().Locks().HoldsAny("Tahead") {
			t.Fatalf("%s still holds Tahead's locks", s.Name())
		}
	}
	if n := restarted.Stats().RecoveryOrphans.Value(); n != 1 {
		t.Fatalf("recovery orphans = %d, want 1", n)
	}
	if res := restarted.Run(bg(), transfer(r, proto.TwoPC, proto.MarkNone, "Tnext", 30)); !res.Committed() {
		t.Fatalf("a run of the new incarnation: %v (%v)", res.Outcome, res.Err)
	}
}
