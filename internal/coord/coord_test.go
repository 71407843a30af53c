package coord

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"o2pc/internal/history"
	"o2pc/internal/marking"
	"o2pc/internal/proto"
	"o2pc/internal/rpc"
	"o2pc/internal/site"
	"o2pc/internal/storage"
	"o2pc/internal/trace"
	"o2pc/internal/wal"
)

func bg() context.Context { return context.Background() }

type rig struct {
	net   *rpc.Network
	sites []*site.Site
	coord *Coordinator
	rec   *history.Recorder
}

func newRig(t *testing.T, nSites int) *rig {
	return newRigResolve(t, nSites, 2*time.Millisecond)
}

// newRigResolve is newRig with an explicit site ResolvePeriod, for tests
// whose assertions must not race the decision-inquiry timer.
func newRigResolve(t *testing.T, nSites int, resolvePeriod time.Duration) *rig {
	t.Helper()
	r := &rig{
		net: rpc.NewNetwork(rpc.Config{}),
		rec: history.NewRecorder(),
	}
	for i := 0; i < nSites; i++ {
		name := siteName(i)
		s := site.NewSite(site.Config{Name: name, Recorder: r.rec, ResolvePeriod: resolvePeriod})
		s.SetCaller(r.net)
		r.net.Register(name, s.Handle)
		r.sites = append(r.sites, s)
	}
	r.coord = New(Config{Name: "c0", Recorder: r.rec, Board: marking.NewBoard()}, r.net)
	r.net.Register("c0", r.coord.Handle)
	return r
}

func siteName(i int) string { return string(rune('a'+i)) + "site" }

func (r *rig) seed(key string, v int64) {
	for _, s := range r.sites {
		s.SeedInt64(storage.Key(key), v)
	}
}

func transfer(r *rig, protocol proto.Protocol, marking proto.MarkProtocol, id string, amount int64) TxnSpec {
	return TxnSpec{
		ID:       id,
		Protocol: protocol,
		Marking:  marking,
		Subtxns: []SubtxnSpec{
			{Site: siteName(0), Ops: []proto.Operation{proto.AddMin("acct", -amount, 0)}, Comp: proto.CompSemantic},
			{Site: siteName(1), Ops: []proto.Operation{proto.Add("acct", amount)}, Comp: proto.CompSemantic},
		},
	}
}

func TestRunCommit(t *testing.T) {
	r := newRig(t, 2)
	r.seed("acct", 100)
	res := r.coord.Run(bg(), transfer(r, proto.O2PC, proto.MarkP1, "", 25))
	if res.Outcome != Committed {
		t.Fatalf("outcome = %v err=%v", res.Outcome, res.Err)
	}
	if res.ID != "T1" {
		t.Fatalf("generated ID = %q", res.ID)
	}
	if r.sites[0].ReadInt64("acct") != 75 || r.sites[1].ReadInt64("acct") != 125 {
		t.Fatalf("balances: %d %d", r.sites[0].ReadInt64("acct"), r.sites[1].ReadInt64("acct"))
	}
	if r.coord.Stats().Commits.Value() != 1 {
		t.Fatalf("commit counter = %d", r.coord.Stats().Commits.Value())
	}
}

func TestRunEmptySpec(t *testing.T) {
	r := newRig(t, 1)
	res := r.coord.Run(bg(), TxnSpec{})
	if res.Err == nil {
		t.Fatalf("empty spec accepted")
	}
}

func TestRunVoteAbort(t *testing.T) {
	r := newRig(t, 2)
	r.seed("acct", 100)
	r.sites[1].SetVoteAbortInjector(func(id string) bool { return id == "Tx" })
	res := r.coord.Run(bg(), transfer(r, proto.O2PC, proto.MarkP1, "Tx", 25))
	if res.Outcome != AbortedVote {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	waitQuiesce(t, r)
	if r.sites[0].ReadInt64("acct") != 100 || r.sites[1].ReadInt64("acct") != 100 {
		t.Fatalf("balances after abort: %d %d",
			r.sites[0].ReadInt64("acct"), r.sites[1].ReadInt64("acct"))
	}
	if r.rec.Snapshot().FateOf("Tx") != history.FateAborted {
		t.Fatalf("fate not recorded")
	}
}

func TestRunExecFailureAbortsEarlierSites(t *testing.T) {
	r := newRig(t, 2)
	r.seed("acct", 10)
	// Site 1's AddMin fails (insufficient funds at destination? use a min
	// that the Add violates).
	spec := TxnSpec{
		ID: "Tf", Protocol: proto.O2PC, Marking: proto.MarkP1,
		Subtxns: []SubtxnSpec{
			{Site: siteName(0), Ops: []proto.Operation{proto.Add("acct", 5)}, Comp: proto.CompSemantic},
			{Site: siteName(1), Ops: []proto.Operation{proto.AddMin("acct", -50, 0)}, Comp: proto.CompSemantic},
		},
	}
	res := r.coord.Run(bg(), spec)
	if res.Outcome != AbortedExec {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	waitQuiesce(t, r)
	if r.sites[0].ReadInt64("acct") != 10 {
		t.Fatalf("site0 acct = %d, want rollback to 10", r.sites[0].ReadInt64("acct"))
	}
	// Exec-phase abort: no marks anywhere (nothing was exposed).
	if r.sites[0].Marks().Len() != 0 || r.sites[1].Marks().Len() != 0 {
		t.Fatalf("exec-phase abort left marks")
	}
}

func TestSiteDownDuringExecAborts(t *testing.T) {
	r := newRig(t, 2)
	r.seed("acct", 100)
	r.net.SetDown(siteName(1), true)
	ctx, cancel := context.WithTimeout(bg(), time.Second)
	defer cancel()
	res := r.coord.Run(ctx, transfer(r, proto.O2PC, proto.MarkP1, "Td", 10))
	if res.Outcome == Committed {
		t.Fatalf("committed with a dead participant")
	}
	waitQuiesce(t, r)
	if r.sites[0].ReadInt64("acct") != 100 {
		t.Fatalf("site0 not rolled back: %d", r.sites[0].ReadInt64("acct"))
	}
}

// runUndelivered runs spec with the coordinator's link to site severed from
// the commit point on: every other participant gets the decision, site
// never does, and the run returns when ctx gives up on it — the
// transaction decided and still pending delivery.
func runUndelivered(t *testing.T, r *rig, spec TxnSpec, site string) Result {
	t.Helper()
	r.coord.SetCrashInjector(func(_ string, phase CrashPhase) bool {
		if phase == CrashAfterVotes {
			r.net.SetOneWayPartition("c0", site, true)
		}
		return false
	})
	defer r.coord.SetCrashInjector(nil)
	ctx, cancel := context.WithTimeout(bg(), 20*time.Millisecond)
	defer cancel()
	return r.coord.Run(ctx, spec)
}

// resolve asks the coordinator about id the way an in-doubt participant
// does.
func resolve(t *testing.T, c *Coordinator, id string) proto.ResolveReply {
	t.Helper()
	raw, err := c.Handle(bg(), siteName(0), proto.ResolveRequest{TxnID: id})
	if err != nil {
		t.Fatalf("resolve %s: %v", id, err)
	}
	return raw.(proto.ResolveReply)
}

// TestResolveHandler: the coordinator answers for a decided transaction
// while a participant still awaits the decision, and forgets it once every
// participant has acked — from then on it answers Known:false, as it does
// for a transaction it never heard of.
func TestResolveHandler(t *testing.T) {
	r := newRigResolve(t, 2, time.Hour)
	r.seed("acct", 100)
	if res := runUndelivered(t, r, transfer(r, proto.TwoPC, proto.MarkNone, "Tr", 5), siteName(1)); !res.Committed() {
		t.Fatalf("setup commit failed: %v %v", res.Outcome, res.Err)
	}
	if reply := resolve(t, r.coord, "Tr"); !reply.Known || !reply.Commit {
		t.Fatalf("reply while delivery pending = %+v", reply)
	}
	if got := r.coord.Stats().Decided.Value(); got != 1 {
		t.Fatalf("decided_txns = %d while delivery pending, want 1", got)
	}

	// Heal the link and let recovery's re-delivery reach the participant.
	r.net.SetOneWayPartition("c0", siteName(1), false)
	if err := r.coord.Recover(bg()); err != nil {
		t.Fatalf("recover: %v", err)
	}
	if reply := resolve(t, r.coord, "Tr"); reply.Known {
		t.Fatalf("reply after every ack = %+v, want Known:false", reply)
	}
	if got := r.coord.Stats().Decided.Value(); got != 0 {
		t.Fatalf("decided_txns = %d after every ack, want 0", got)
	}
	if reply := resolve(t, r.coord, "ghost"); reply.Known {
		t.Fatalf("ghost transaction resolved")
	}
}

func TestCrashAfterVotesPresumesAbortOnRecovery(t *testing.T) {
	r := newRig(t, 2)
	r.seed("acct", 100)
	r.coord.SetCrashInjector(func(id string, phase CrashPhase) bool {
		return id == "Tc" && phase == CrashAfterVotes
	})
	res := r.coord.Run(bg(), transfer(r, proto.O2PC, proto.MarkP1, "Tc", 30))
	if res.Outcome != AbortedCoordinator || !errors.Is(res.Err, ErrCrashed) {
		t.Fatalf("res = %+v", res)
	}
	// O2PC: site0 locally committed and exposed the debit; site1 too.
	if r.sites[0].ReadInt64("acct") != 70 {
		t.Fatalf("site0 = %d, want exposed 70", r.sites[0].ReadInt64("acct"))
	}
	// Recovery presumes abort and compensation restores both.
	if err := r.coord.Recover(bg()); err != nil {
		t.Fatalf("recover: %v", err)
	}
	waitQuiesce(t, r)
	if got := r.sites[0].ReadInt64("acct"); got != 100 {
		t.Fatalf("site0 = %d after presumed abort", got)
	}
	if got := r.sites[1].ReadInt64("acct"); got != 100 {
		t.Fatalf("site1 = %d after presumed abort", got)
	}
}

func TestCrashAfterDecisionLoggedResendsOnRecovery(t *testing.T) {
	r := newRig(t, 2)
	r.seed("acct", 100)
	r.coord.SetCrashInjector(func(id string, phase CrashPhase) bool {
		return id == "Tc" && phase == CrashAfterDecisionLogged
	})
	res := r.coord.Run(bg(), transfer(r, proto.TwoPC, proto.MarkNone, "Tc", 30))
	if res.Outcome != Committed {
		t.Fatalf("res = %+v", res)
	}
	// Decision logged but never delivered: 2PC participants blocked.
	if !r.sites[0].Manager().Locks().HoldsAny("Tc") {
		t.Fatalf("participant not blocked in doubt")
	}
	if err := r.coord.Recover(bg()); err != nil {
		t.Fatalf("recover: %v", err)
	}
	waitFor(t, time.Second, func() bool {
		return !r.sites[0].Manager().Locks().HoldsAny("Tc") &&
			r.sites[0].ReadInt64("acct") == 70
	}, "decision re-delivery")
}

func TestBlockedParticipantResolvesAfterCoordRecovery(t *testing.T) {
	r := newRig(t, 2)
	r.seed("acct", 100)
	r.coord.SetCrashInjector(func(id string, phase CrashPhase) bool {
		return id == "Tc" && phase == CrashAfterDecisionLogged
	})
	r.coord.Run(bg(), transfer(r, proto.TwoPC, proto.MarkNone, "Tc", 30))
	// Instead of Recover pushing, let the participant's Resolve inquiry
	// pull the decision once the coordinator is back (handlers answer as
	// soon as crashed=false).
	r.coord.mu.Lock()
	r.coord.crashed = false
	r.coord.crash = nil
	r.coord.mu.Unlock()
	waitFor(t, 2*time.Second, func() bool {
		return r.sites[0].ReadInt64("acct") == 70
	}, "participant-initiated resolution")
}

func TestMarkingRetryCounted(t *testing.T) {
	r := newRig(t, 2)
	r.seed("acct", 100)
	// Pre-mark site1 so a transaction that first visits site0 (adopting
	// nothing) then site1 hits a fatal rejection; first visiting site1
	// adopts the mark and then retries at site0 until giving up.
	r.sites[0].Marks().MarkUndone("Tdead")
	spec := transfer(r, proto.O2PC, proto.MarkP1, "Tm", 5)
	res := r.coord.Run(bg(), spec)
	if res.Outcome != AbortedMarking {
		t.Fatalf("outcome = %v (retries=%d)", res.Outcome, res.MarkRetries)
	}
	if res.MarkRetries == 0 {
		t.Fatalf("no retries recorded before the marking abort")
	}
	if r.coord.Stats().MarkingAborts.Value() != 1 {
		t.Fatalf("marking aborts = %d", r.coord.Stats().MarkingAborts.Value())
	}
}

func waitQuiesce(t *testing.T, r *rig) {
	t.Helper()
	waitFor(t, 2*time.Second, func() bool {
		for _, s := range r.sites {
			if s.Manager().ActiveCount() > 0 {
				return false
			}
		}
		return true
	}, "site quiescence")
}

func waitFor(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func TestReadOnlyParticipantsSkipDecisionRound(t *testing.T) {
	// The read-only site leaves at its vote: only the writer gets the
	// decision.
	r := newRig(t, 2)
	r.seed("acct", 100)
	res := r.coord.Run(bg(), TxnSpec{
		Protocol: proto.O2PC,
		Subtxns: []SubtxnSpec{
			{Site: siteName(0), Ops: []proto.Operation{proto.Add("acct", 1)}, Comp: proto.CompSemantic},
			{Site: siteName(1), Ops: []proto.Operation{proto.Read("acct")}, Comp: proto.CompSemantic},
		},
	})
	if !res.Committed() {
		t.Fatalf("outcome = %v err=%v", res.Outcome, res.Err)
	}
	if n := r.net.Counts().Counter("proto.Decision").Value(); n != 1 {
		t.Fatalf("decisions = %d, want 1", n)
	}
}

// TestAllReadOnlyCommitIsADecision: when every participant leaves at its
// read-only vote there is nobody to deliver to, but the commit is still a
// decision — the decision.reached event fires and the history records the
// transaction committed. With nobody to ack it, the decision ends at once:
// the log holds BEGIN and END, no DECISION, and the coordinator keeps no
// entry for it.
func TestAllReadOnlyCommitIsADecision(t *testing.T) {
	log := wal.NewMemoryLog()
	tr := trace.New(nil, 0)
	r := newRig(t, 2)
	r.coord = New(Config{Name: "c0", Recorder: r.rec, Log: log, Tracer: tr}, r.net)
	r.net.Register("c0", r.coord.Handle)
	r.seed("acct", 100)
	spec := TxnSpec{ID: "Tro", Protocol: proto.O2PC, Marking: proto.MarkP1, Subtxns: []SubtxnSpec{
		{Site: siteName(0), Ops: []proto.Operation{proto.Read("acct")}, Comp: proto.CompSemantic},
		{Site: siteName(1), Ops: []proto.Operation{proto.Read("acct")}, Comp: proto.CompSemantic},
	}}
	if res := r.coord.Run(bg(), spec); !res.Committed() {
		t.Fatalf("outcome = %v err=%v", res.Outcome, res.Err)
	}
	if n := r.net.Counts().Counter("proto.Decision").Value(); n != 0 {
		t.Errorf("decisions = %d, want 0", n)
	}
	reached := 0
	for _, ev := range tr.Events() {
		if ev.Type == trace.EvDecisionReached && ev.Txn == "Tro" {
			reached++
			if ev.Detail != wal.DecisionAux(true) {
				t.Errorf("decision.reached detail = %q", ev.Detail)
			}
		}
	}
	if reached != 1 {
		t.Errorf("%d decision.reached events, want 1", reached)
	}
	if fate := r.rec.Snapshot().FateOf("Tro"); fate != history.FateCommitted {
		t.Errorf("fate = %v, want committed", fate)
	}
	for i, s := range r.sites {
		if got := s.Stats().Commits.Value(); got != 1 {
			t.Errorf("site %d counted %d commits, want 1 (its read-only exit)", i, got)
		}
	}
	if rr := resolve(t, r.coord, "Tro"); rr.Known {
		t.Errorf("resolve = %+v, want Known:false (ended with no participant)", rr)
	}
	if ids := r.coord.Unforgotten(); len(ids) != 0 {
		t.Errorf("coordinator still keeps %v", ids)
	}
	records, err := log.Records()
	if err != nil {
		t.Fatal(err)
	}
	var types []wal.RecordType
	for _, rec := range records {
		types = append(types, rec.Type)
	}
	if want := []wal.RecordType{wal.RecBegin, wal.RecEnd}; !reflect.DeepEqual(types, want) {
		t.Errorf("log = %v, want %v", types, want)
	}

	// A coordinator restarted over the log neither presumes abort for the
	// ended transaction nor delivers anything.
	rtr := trace.New(nil, 0)
	restarted := New(Config{Name: "c0", Log: log, Tracer: rtr}, r.net)
	if err := restarted.Recover(bg()); err != nil {
		t.Fatalf("recover: %v", err)
	}
	for _, ev := range rtr.Events() {
		if ev.Txn == "Tro" {
			t.Errorf("restarted coordinator acted on the ended transaction: %v %q", ev.Type, ev.Detail)
		}
	}
	if rr := resolve(t, restarted, "Tro"); rr.Known {
		t.Errorf("restarted resolve = %+v, want Known:false", rr)
	}
}
