package compensate

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"o2pc/internal/history"
	"o2pc/internal/lock"
	"o2pc/internal/proto"
	"o2pc/internal/storage"
	"o2pc/internal/txn"
	"o2pc/internal/wal"
)

func newMgr(rec *history.Recorder) *txn.Manager {
	return txn.NewManager("s0", storage.NewStore(), lock.NewManager(), wal.NewMemoryLog(), rec)
}

func bg() context.Context { return context.Background() }

// runForward executes ops as a forward subtransaction, locally commits it,
// and returns the Forward descriptor (as the O2PC site would capture it).
func runForward(t *testing.T, m *txn.Manager, id string, ops []proto.Operation) Forward {
	t.Helper()
	tx, err := m.Begin(id, history.KindGlobal, "")
	if err != nil {
		t.Fatalf("begin: %v", err)
	}
	for _, op := range ops {
		key := storage.Key(op.Key)
		switch op.Kind {
		case proto.OpRead:
			if _, err := tx.Read(bg(), key); err != nil && !storage.IsNotFound(err) {
				t.Fatalf("read: %v", err)
			}
		case proto.OpWrite:
			if err := tx.Write(bg(), key, op.Value); err != nil {
				t.Fatalf("write: %v", err)
			}
		case proto.OpDelete:
			if err := tx.Delete(bg(), key); err != nil {
				t.Fatalf("delete: %v", err)
			}
		case proto.OpAdd:
			v, err := tx.ReadInt64(bg(), key)
			if err != nil {
				t.Fatalf("readint: %v", err)
			}
			if err := tx.WriteInt64(bg(), key, v+op.Delta); err != nil {
				t.Fatalf("writeint: %v", err)
			}
		}
	}
	fwd := Forward{TxnID: id, Ops: ops, Updates: tx.Updates()}
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	return fwd
}

func TestSemanticPlanInvertsAddWithoutClobbering(t *testing.T) {
	m := newMgr(nil)
	m.Store().Put("n", storage.EncodeInt64(100), "init")
	fwd := runForward(t, m, "T1", []proto.Operation{proto.Add("n", 30)})

	// An interleaved transaction also updates n after T1 locally commits.
	if err := m.RunLocal(bg(), "L1", 0, func(tx *txn.Txn) error {
		v, _ := tx.ReadInt64(bg(), "n")
		return tx.WriteInt64(bg(), "n", v+7)
	}); err != nil {
		t.Fatalf("local: %v", err)
	}

	if err := Run(bg(), m, fwd, SemanticPlan, Options{}); err != nil {
		t.Fatalf("compensate: %v", err)
	}
	rec, _ := m.Store().Get("n")
	// 100 + 30 + 7 - 30 = 107: the interleaved +7 survives (semantic,
	// non-cascading undo).
	if got := storage.MustDecodeInt64(rec.Value); got != 107 {
		t.Fatalf("n = %d, want 107", got)
	}
}

func TestSemanticPlanInvertsWriteViaBeforeImage(t *testing.T) {
	m := newMgr(nil)
	m.Store().Put("a", storage.Value("orig"), "init")
	fwd := runForward(t, m, "T1", []proto.Operation{proto.Write("a", []byte("new"))})
	if err := Run(bg(), m, fwd, SemanticPlan, Options{}); err != nil {
		t.Fatalf("compensate: %v", err)
	}
	rec, _ := m.Store().Get("a")
	if string(rec.Value) != "orig" {
		t.Fatalf("a = %q", rec.Value)
	}
	if rec.Writer != "CTT1" {
		t.Fatalf("writer = %q, want CTT1", rec.Writer)
	}
}

func TestSemanticPlanInvertsInsertByDelete(t *testing.T) {
	m := newMgr(nil)
	fwd := runForward(t, m, "T1", []proto.Operation{proto.Write("fresh", []byte("v"))})
	if err := Run(bg(), m, fwd, SemanticPlan, Options{}); err != nil {
		t.Fatalf("compensate: %v", err)
	}
	if _, err := m.Store().Get("fresh"); !storage.IsNotFound(err) {
		t.Fatalf("inserted key survived compensation")
	}
}

func TestSemanticPlanInvertsDeleteByRestore(t *testing.T) {
	m := newMgr(nil)
	m.Store().Put("a", storage.Value("keepme"), "init")
	fwd := runForward(t, m, "T1", []proto.Operation{proto.Delete("a")})
	if err := Run(bg(), m, fwd, SemanticPlan, Options{}); err != nil {
		t.Fatalf("compensate: %v", err)
	}
	rec, err := m.Store().Get("a")
	if err != nil || string(rec.Value) != "keepme" {
		t.Fatalf("a = %v (%v)", rec, err)
	}
}

func TestSemanticPlanReversesMultiOpOrder(t *testing.T) {
	m := newMgr(nil)
	m.Store().Put("n", storage.EncodeInt64(0), "init")
	fwd := runForward(t, m, "T1", []proto.Operation{
		proto.Add("n", 5),
		proto.Add("n", 10),
	})
	if err := Run(bg(), m, fwd, SemanticPlan, Options{}); err != nil {
		t.Fatalf("compensate: %v", err)
	}
	rec, _ := m.Store().Get("n")
	if got := storage.MustDecodeInt64(rec.Value); got != 0 {
		t.Fatalf("n = %d, want 0", got)
	}
}

func TestBeforeImagePlanRestoresPhysically(t *testing.T) {
	m := newMgr(nil)
	m.Store().Put("n", storage.EncodeInt64(100), "init")
	fwd := runForward(t, m, "T1", []proto.Operation{proto.Add("n", 30)})
	// Interleaved update is clobbered by before-image restore (the
	// generic-model trade-off).
	_ = m.RunLocal(bg(), "L1", 0, func(tx *txn.Txn) error {
		v, _ := tx.ReadInt64(bg(), "n")
		return tx.WriteInt64(bg(), "n", v+7)
	})
	if err := Run(bg(), m, fwd, BeforeImagePlan, Options{}); err != nil {
		t.Fatalf("compensate: %v", err)
	}
	rec, _ := m.Store().Get("n")
	if got := storage.MustDecodeInt64(rec.Value); got != 100 {
		t.Fatalf("n = %d, want 100 (physical restore)", got)
	}
}

func TestCustomCompensatorViaRegistry(t *testing.T) {
	m := newMgr(nil)
	m.Store().Put("log", storage.Value(""), "init")
	reg := NewRegistry()
	reg.Register("apologize", func(ctx context.Context, tx *txn.Txn, f Forward) error {
		return tx.Write(ctx, "log", storage.Value("sorry for "+f.TxnID))
	})
	plan, err := PlanFor(proto.CompCustom, "apologize", reg)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	fwd := Forward{TxnID: "T1"}
	if err := Run(bg(), m, fwd, plan, Options{}); err != nil {
		t.Fatalf("run: %v", err)
	}
	rec, _ := m.Store().Get("log")
	if string(rec.Value) != "sorry for T1" {
		t.Fatalf("log = %q", rec.Value)
	}
}

func TestPlanForErrors(t *testing.T) {
	if _, err := PlanFor(proto.CompNone, "", nil); err == nil {
		t.Fatalf("CompNone must not yield a plan")
	}
	if _, err := PlanFor(proto.CompCustom, "ghost", NewRegistry()); err == nil {
		t.Fatalf("unknown compensator accepted")
	}
	if _, err := PlanFor(proto.CompCustom, "x", nil); err == nil {
		t.Fatalf("nil registry accepted")
	}
	if _, err := PlanFor(proto.CompMode(99), "", nil); err == nil {
		t.Fatalf("unknown mode accepted")
	}
}

func TestWriteCoverageEnforced(t *testing.T) {
	rec := history.NewRecorder()
	m := newMgr(rec)
	m.Store().Put("a", storage.Value("v"), "init")
	fwd := runForward(t, m, "T1", []proto.Operation{proto.Write("a", []byte("x"))})

	// A plan that deliberately writes nothing.
	noop := func(ctx context.Context, tx *txn.Txn, f Forward) error { return nil }
	if err := Run(bg(), m, fwd, noop, Options{}); err != nil {
		t.Fatalf("run: %v", err)
	}
	// Coverage rewrote "a" under the CT's identity.
	r, _ := m.Store().Get("a")
	if r.Writer != "CTT1" {
		t.Fatalf("writer = %q, want CTT1 (coverage write)", r.Writer)
	}
	// Theorem 2 premise: CT's write set covers the forward write set.
	h := rec.Snapshot()
	covered := false
	for _, op := range h.Ops {
		if op.Txn == "CTT1" && op.Type == history.OpWrite && op.Key == "a" {
			covered = true
		}
	}
	if !covered {
		t.Fatalf("coverage write not recorded in history")
	}
}

func TestRunSetsCTFateAndKind(t *testing.T) {
	rec := history.NewRecorder()
	m := newMgr(rec)
	m.Store().Put("n", storage.EncodeInt64(1), "init")
	fwd := runForward(t, m, "T9", []proto.Operation{proto.Add("n", 1)})
	if err := Run(bg(), m, fwd, SemanticPlan, Options{}); err != nil {
		t.Fatalf("run: %v", err)
	}
	h := rec.Snapshot()
	if h.KindOf("CTT9") != history.KindCompensating {
		t.Fatalf("kind = %v", h.KindOf("CTT9"))
	}
	if h.FateOf("CTT9") != history.FateCommitted {
		t.Fatalf("fate = %v", h.FateOf("CTT9"))
	}
	if h.CompensationOf("T9") != "CTT9" {
		t.Fatalf("link = %q", h.CompensationOf("T9"))
	}
}

func TestPersistenceRetriesThroughLockContention(t *testing.T) {
	m := newMgr(nil)
	m.Store().Put("n", storage.EncodeInt64(10), "init")
	fwd := runForward(t, m, "T1", []proto.Operation{proto.Add("n", 5)})

	// A local transaction holds the lock for a while; compensation must
	// wait (or retry) and still complete.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = m.RunLocal(bg(), "Lhold", 0, func(tx *txn.Txn) error {
			if _, err := tx.ReadInt64(bg(), "n"); err != nil {
				return err
			}
			time.Sleep(20 * time.Millisecond)
			return nil
		})
	}()
	time.Sleep(5 * time.Millisecond)
	if err := Run(bg(), m, fwd, SemanticPlan, Options{}); err != nil {
		t.Fatalf("run: %v", err)
	}
	wg.Wait()
	rec, _ := m.Store().Get("n")
	if got := storage.MustDecodeInt64(rec.Value); got != 10 {
		t.Fatalf("n = %d, want 10", got)
	}
}

func TestRunHonoursContextCancellation(t *testing.T) {
	m := newMgr(nil)
	m.Store().Put("n", storage.EncodeInt64(0), "init")
	fwd := runForward(t, m, "T1", []proto.Operation{proto.Add("n", 1)})

	// Hold the lock forever in another transaction; cancel the context.
	holder, _ := m.Begin("holder", history.KindLocal, "")
	if err := holder.WriteInt64(bg(), "n", 99); err != nil {
		t.Fatalf("holder write: %v", err)
	}
	ctx, cancel := context.WithTimeout(bg(), 30*time.Millisecond)
	defer cancel()
	err := Run(ctx, m, fwd, SemanticPlan, Options{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline", err)
	}
	_ = holder.Abort("")
}

func TestRunPermanentFailurePropagates(t *testing.T) {
	m := newMgr(nil)
	boom := errors.New("boom")
	bad := func(ctx context.Context, tx *txn.Txn, f Forward) error { return boom }
	err := Run(bg(), m, Forward{TxnID: "T1"}, bad, Options{})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestCTID(t *testing.T) {
	if CTID("T7") != "CTT7" {
		t.Fatalf("CTID = %q", CTID("T7"))
	}
}

func TestWriteCoverageDeletesMissingKeys(t *testing.T) {
	m := newMgr(nil)
	// Forward inserted a fresh key; a later transaction deleted it; the
	// coverage pass must tombstone it rather than fail.
	fwd := runForward(t, m, "T1", []proto.Operation{proto.Write("ghost", []byte("v"))})
	_ = m.RunLocal(bg(), "L1", 0, func(tx *txn.Txn) error {
		return tx.Delete(bg(), "ghost")
	})
	noop := func(ctx context.Context, tx *txn.Txn, f Forward) error { return nil }
	if err := Run(bg(), m, fwd, noop, Options{}); err != nil {
		t.Fatalf("run: %v", err)
	}
	if _, err := m.Store().Get("ghost"); !storage.IsNotFound(err) {
		t.Fatalf("ghost resurrected")
	}
}

func TestFinalizeErrorAbortsAttempt(t *testing.T) {
	m := newMgr(nil)
	m.Store().Put("n", storage.EncodeInt64(5), "init")
	fwd := runForward(t, m, "T1", []proto.Operation{proto.Add("n", 1)})
	calls := 0
	opts := Options{Finalize: func(ctx context.Context, tx *txn.Txn) error {
		calls++
		if calls == 1 {
			return lock.ErrDeadlock // transient: persistence must retry
		}
		return nil
	}}
	if err := Run(bg(), m, fwd, SemanticPlan, opts); err != nil {
		t.Fatalf("run: %v", err)
	}
	if calls != 2 {
		t.Fatalf("finalize calls = %d, want retry", calls)
	}
	rec, _ := m.Store().Get("n")
	if storage.MustDecodeInt64(rec.Value) != 5 {
		t.Fatalf("n = %d", storage.MustDecodeInt64(rec.Value))
	}
}

func TestSemanticPlanUnknownOpKind(t *testing.T) {
	m := newMgr(nil)
	fwd := Forward{TxnID: "T1", Ops: []proto.Operation{{Kind: proto.OpKind(99), Key: "x"}}}
	if err := Run(bg(), m, fwd, SemanticPlan, Options{}); err == nil {
		t.Fatalf("uninvertible op accepted")
	}
}
