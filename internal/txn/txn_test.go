package txn

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"o2pc/internal/history"
	"o2pc/internal/lock"
	"o2pc/internal/storage"
	"o2pc/internal/wal"
)

func newMgr(rec *history.Recorder) *Manager {
	return NewManager("s0", storage.NewStore(), lock.NewManager(), wal.NewMemoryLog(), rec)
}

func bg() context.Context { return context.Background() }

func TestBeginDuplicateID(t *testing.T) {
	m := newMgr(nil)
	if _, err := m.Begin("T1", history.KindGlobal, ""); err != nil {
		t.Fatalf("begin: %v", err)
	}
	if _, err := m.Begin("T1", history.KindGlobal, ""); !errors.Is(err, ErrAlreadyExists) {
		t.Fatalf("duplicate begin err = %v", err)
	}
}

func TestWriteReadOwn(t *testing.T) {
	m := newMgr(nil)
	tx, _ := m.Begin("T1", history.KindLocal, "")
	if err := tx.Write(bg(), "a", storage.Value("v")); err != nil {
		t.Fatalf("write: %v", err)
	}
	v, err := tx.Read(bg(), "a")
	if err != nil || string(v) != "v" {
		t.Fatalf("read own write: %q %v", v, err)
	}
}

func TestWrote(t *testing.T) {
	m := newMgr(nil)
	m.Store().Put("a", storage.Value("v"), "T0")
	tx, _ := m.Begin("T1", history.KindGlobal, "")
	if _, err := tx.Read(bg(), "a"); err != nil {
		t.Fatalf("read: %v", err)
	}
	if tx.Wrote() {
		t.Fatalf("a reader reports a write")
	}
	if err := tx.Write(bg(), "a", storage.Value("w")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if !tx.Wrote() {
		t.Fatalf("a writer reports no write")
	}
	// Every vote asks; a YES on a writer must not pay for the answer.
	if n := testing.AllocsPerRun(100, func() { tx.Wrote() }); n != 0 {
		t.Fatalf("Wrote allocates %.0f times per call", n)
	}
}

func TestCommitMakesVisibleAndReleases(t *testing.T) {
	m := newMgr(nil)
	tx, _ := m.Begin("T1", history.KindLocal, "")
	_ = tx.Write(bg(), "a", storage.Value("v"))
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if m.Locks().HoldsAny("T1") {
		t.Fatalf("locks survived commit")
	}
	if m.ActiveCount() != 0 {
		t.Fatalf("active count = %d", m.ActiveCount())
	}
	rec, err := m.Store().Get("a")
	if err != nil || string(rec.Value) != "v" {
		t.Fatalf("committed value missing")
	}
}

func TestAbortRestoresBeforeImages(t *testing.T) {
	m := newMgr(nil)
	m.Store().Put("a", storage.Value("orig"), "T0")
	tx, _ := m.Begin("T1", history.KindLocal, "")
	_ = tx.Write(bg(), "a", storage.Value("new"))
	_ = tx.Write(bg(), "b", storage.Value("inserted"))
	if err := tx.Abort(""); err != nil {
		t.Fatalf("abort: %v", err)
	}
	rec, _ := m.Store().Get("a")
	if string(rec.Value) != "orig" || rec.Writer != "T0" {
		t.Fatalf("a = %+v, want orig/T0", rec)
	}
	if _, err := m.Store().Get("b"); !storage.IsNotFound(err) {
		t.Fatalf("inserted key survived abort")
	}
	if m.Locks().HoldsAny("T1") {
		t.Fatalf("locks survived abort")
	}
}

func TestAbortAttributedToCompensation(t *testing.T) {
	rec := history.NewRecorder()
	m := newMgr(rec)
	m.Store().Put("a", storage.Value("orig"), "T0")
	tx, _ := m.Begin("T1", history.KindGlobal, "")
	_ = tx.Write(bg(), "a", storage.Value("new"))
	if err := tx.Abort("CTT1"); err != nil {
		t.Fatalf("abort: %v", err)
	}
	r, _ := m.Store().Get("a")
	if r.Writer != "CTT1" {
		t.Fatalf("restored writer = %q, want CTT1", r.Writer)
	}
	h := rec.Snapshot()
	if h.KindOf("CTT1") != history.KindCompensating {
		t.Fatalf("CT node not declared compensating")
	}
	if h.Txns["CTT1"].Forward != "T1" {
		t.Fatalf("CT forward link = %q", h.Txns["CTT1"].Forward)
	}
	// The undo write must appear in the history under the CT node.
	found := false
	for _, op := range h.Ops {
		if op.Txn == "CTT1" && op.Type == history.OpWrite && op.Key == "a" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no undo write recorded for CTT1: %+v", h.Ops)
	}
}

func TestAbortUnattributedRecordsNoUndoOps(t *testing.T) {
	rec := history.NewRecorder()
	m := newMgr(rec)
	tx, _ := m.Begin("L1", history.KindLocal, "")
	_ = tx.Write(bg(), "a", storage.Value("v"))
	_ = tx.Abort("")
	h := rec.Snapshot()
	for _, op := range h.Ops {
		if op.Txn != "L1" {
			t.Fatalf("unexpected history node %q", op.Txn)
		}
	}
}

func TestDoubleAbortIsIdempotent(t *testing.T) {
	m := newMgr(nil)
	tx, _ := m.Begin("T1", history.KindLocal, "")
	_ = tx.Write(bg(), "a", storage.Value("v"))
	if err := tx.Abort(""); err != nil {
		t.Fatalf("first abort: %v", err)
	}
	if err := tx.Abort(""); err != nil {
		t.Fatalf("second abort: %v", err)
	}
}

func TestAbortAfterCommitFails(t *testing.T) {
	m := newMgr(nil)
	tx, _ := m.Begin("T1", history.KindLocal, "")
	_ = tx.Commit()
	if err := tx.Abort(""); err == nil {
		t.Fatalf("abort after commit succeeded")
	}
}

func TestOperationsAfterCommitFail(t *testing.T) {
	m := newMgr(nil)
	tx, _ := m.Begin("T1", history.KindLocal, "")
	_ = tx.Commit()
	if err := tx.Write(bg(), "a", storage.Value("v")); !errors.Is(err, ErrNotActive) {
		t.Fatalf("write after commit: %v", err)
	}
	if _, err := tx.Read(bg(), "a"); !errors.Is(err, ErrNotActive) {
		t.Fatalf("read after commit: %v", err)
	}
}

func TestPrepareBlocksFurtherOps(t *testing.T) {
	m := newMgr(nil)
	tx, _ := m.Begin("T1", history.KindGlobal, "")
	_ = tx.Write(bg(), "a", storage.Value("v"))
	if err := tx.Prepare("c0"); err != nil {
		t.Fatalf("prepare: %v", err)
	}
	if tx.Status() != StatusPrepared {
		t.Fatalf("status = %v", tx.Status())
	}
	if err := tx.Write(bg(), "b", storage.Value("v")); !errors.Is(err, ErrNotActive) {
		t.Fatalf("write after prepare: %v", err)
	}
	// Commit after prepare is the decision path.
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit after prepare: %v", err)
	}
}

func TestPrepareLogsCoordinatorName(t *testing.T) {
	m := newMgr(nil)
	tx, _ := m.Begin("T1", history.KindGlobal, "")
	_ = tx.Prepare("coordX")
	recs, _ := m.Log().Records()
	found := false
	for _, r := range recs {
		if r.Type == wal.RecPrepared && r.Aux == "coordX" {
			found = true
		}
	}
	if !found {
		t.Fatalf("prepared record missing coordinator name: %+v", recs)
	}
}

func TestReadFromTracking(t *testing.T) {
	rec := history.NewRecorder()
	m := newMgr(rec)
	w, _ := m.Begin("T1", history.KindGlobal, "")
	_ = w.Write(bg(), "a", storage.Value("v"))
	_ = w.Commit()

	r, _ := m.Begin("T2", history.KindGlobal, "")
	_, _ = r.Read(bg(), "a")
	_ = r.Commit()

	h := rec.Snapshot()
	var readOp *history.Op
	for i, op := range h.Ops {
		if op.Txn == "T2" && op.Type == history.OpRead {
			readOp = &h.Ops[i]
		}
	}
	if readOp == nil || readOp.ReadFrom != "T1" {
		t.Fatalf("read-from = %+v, want T1", readOp)
	}
}

func TestReadOwnWriteNotAReadsFromEdge(t *testing.T) {
	rec := history.NewRecorder()
	m := newMgr(rec)
	tx, _ := m.Begin("T1", history.KindGlobal, "")
	_ = tx.Write(bg(), "a", storage.Value("v"))
	_, _ = tx.Read(bg(), "a")
	_ = tx.Commit()
	h := rec.Snapshot()
	for _, op := range h.Ops {
		if op.Type == history.OpRead && op.ReadFrom == "T1" && op.Txn == "T1" {
			t.Fatalf("self reads-from edge recorded")
		}
	}
}

func TestWriteSetDeduplicated(t *testing.T) {
	m := newMgr(nil)
	tx, _ := m.Begin("T1", history.KindLocal, "")
	_ = tx.Write(bg(), "a", storage.Value("1"))
	_ = tx.Write(bg(), "a", storage.Value("2"))
	_ = tx.Write(bg(), "b", storage.Value("3"))
	ws := tx.WriteSet()
	if len(ws) != 2 || ws[0] != "a" || ws[1] != "b" {
		t.Fatalf("write set = %v", ws)
	}
}

func TestInt64Helpers(t *testing.T) {
	m := newMgr(nil)
	tx, _ := m.Begin("T1", history.KindLocal, "")
	if v, err := tx.ReadInt64(bg(), "n"); err != nil || v != 0 {
		t.Fatalf("missing int reads as %d (%v), want 0", v, err)
	}
	_ = tx.WriteInt64(bg(), "n", 42)
	if v, _ := tx.ReadInt64(bg(), "n"); v != 42 {
		t.Fatalf("n = %d", v)
	}
}

func TestDeleteAndUndelete(t *testing.T) {
	m := newMgr(nil)
	m.Store().Put("a", storage.Value("v"), "T0")
	tx, _ := m.Begin("T1", history.KindLocal, "")
	_ = tx.Delete(bg(), "a")
	if _, err := tx.Read(bg(), "a"); !storage.IsNotFound(err) {
		t.Fatalf("deleted key readable in same txn")
	}
	_ = tx.Abort("")
	if rec, err := m.Store().Get("a"); err != nil || string(rec.Value) != "v" {
		t.Fatalf("delete not undone: %v %v", rec, err)
	}
}

func TestIsolationWriterBlocksReader(t *testing.T) {
	m := newMgr(nil)
	w, _ := m.Begin("T1", history.KindLocal, "")
	_ = w.Write(bg(), "a", storage.Value("dirty"))

	read := make(chan string, 1)
	go func() {
		r, _ := m.Begin("T2", history.KindLocal, "")
		v, err := r.Read(bg(), "a")
		if err != nil {
			read <- "err:" + err.Error()
			return
		}
		_ = r.Commit()
		read <- string(v)
	}()
	select {
	case v := <-read:
		t.Fatalf("reader saw %q while writer active (dirty read)", v)
	case <-time.After(20 * time.Millisecond):
	}
	_ = w.Commit()
	if v := <-read; v != "dirty" {
		t.Fatalf("reader saw %q after commit", v)
	}
}

func TestRunLocalCommits(t *testing.T) {
	rec := history.NewRecorder()
	m := newMgr(rec)
	err := m.RunLocal(bg(), "L1", 3, func(tx *Txn) error {
		return tx.WriteInt64(bg(), "n", 7)
	})
	if err != nil {
		t.Fatalf("RunLocal: %v", err)
	}
	h := rec.Snapshot()
	if h.FateOf("L1") != history.FateCommitted {
		t.Fatalf("fate = %v", h.FateOf("L1"))
	}
}

func TestRunLocalPropagatesAppError(t *testing.T) {
	m := newMgr(nil)
	m.Store().Put("a", storage.Value("v"), "T0")
	boom := errors.New("boom")
	err := m.RunLocal(bg(), "L1", 3, func(tx *Txn) error {
		_ = tx.Write(bg(), "a", storage.Value("x"))
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if rec, _ := m.Store().Get("a"); string(rec.Value) != "v" {
		t.Fatalf("failed local txn left effects")
	}
}

func TestRunLocalRetriesDeadlock(t *testing.T) {
	m := newMgr(nil)
	m.Store().Put("a", storage.EncodeInt64(0), "T0")
	m.Store().Put("b", storage.EncodeInt64(0), "T0")
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			keys := []storage.Key{"a", "b"}
			if g%2 == 1 {
				keys[0], keys[1] = keys[1], keys[0]
			}
			errs[g] = m.RunLocal(bg(), fmt.Sprintf("L%d", g), 25, func(tx *Txn) error {
				for _, k := range keys {
					v, err := tx.ReadInt64(bg(), k)
					if err != nil {
						return err
					}
					if err := tx.WriteInt64(bg(), k, v+1); err != nil {
						return err
					}
				}
				return nil
			})
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("client %d failed despite retries: %v", g, err)
		}
	}
	a, _ := m.Store().Get("a")
	if storage.MustDecodeInt64(a.Value) != 8 {
		t.Fatalf("a = %d, want 8 (lost update)", storage.MustDecodeInt64(a.Value))
	}
}

func TestUpdatesReturnsCopies(t *testing.T) {
	m := newMgr(nil)
	tx, _ := m.Begin("T1", history.KindGlobal, "")
	_ = tx.Write(bg(), "a", storage.Value("v"))
	ups := tx.Updates()
	if len(ups) != 1 || ups[0].Before.Key != "a" {
		t.Fatalf("updates = %+v", ups)
	}
	ups[0].TxnID = "mutated"
	if tx.Updates()[0].TxnID != "T1" {
		t.Fatalf("internal updates mutated through accessor")
	}
}

func TestStatusStrings(t *testing.T) {
	for st, want := range map[Status]string{
		StatusActive: "active", StatusPrepared: "prepared",
		StatusCommitted: "committed", StatusAborted: "aborted",
	} {
		if st.String() != want {
			t.Errorf("%v.String() = %q", st, st.String())
		}
	}
}

func TestAccessors(t *testing.T) {
	rec := history.NewRecorder()
	m := newMgr(rec)
	if m.Site() != "s0" || m.Recorder() != rec {
		t.Fatalf("accessors wrong")
	}
	tx, _ := m.Begin("T1", history.KindGlobal, "")
	if tx.ID() != "T1" || tx.Kind() != history.KindGlobal {
		t.Fatalf("txn accessors wrong")
	}
	got, ok := m.Lookup("T1")
	if !ok || got != tx {
		t.Fatalf("Lookup failed")
	}
	if _, ok := m.Lookup("ghost"); ok {
		t.Fatalf("phantom lookup")
	}
	_ = tx.Commit()
	if _, ok := m.Lookup("T1"); ok {
		t.Fatalf("finished txn still active")
	}
}

func TestReadForUpdateTakesExclusive(t *testing.T) {
	m := newMgr(nil)
	m.Store().Put("a", storage.EncodeInt64(7), "T0")
	tx, _ := m.Begin("T1", history.KindGlobal, "")
	v, err := tx.ReadForUpdate(bg(), "a")
	if err != nil || storage.MustDecodeInt64(v) != 7 {
		t.Fatalf("ReadForUpdate: %v %v", v, err)
	}
	if m.Locks().Held("T1")["a"] != lock.Exclusive {
		t.Fatalf("mode = %v, want X", m.Locks().Held("T1")["a"])
	}
	// A concurrent updater cannot even read-for-update (no upgrade race).
	ctx, cancel := context.WithTimeout(bg(), 20*time.Millisecond)
	defer cancel()
	t2, _ := m.Begin("T2", history.KindGlobal, "")
	if _, err := t2.ReadInt64ForUpdate(ctx, "a"); err == nil {
		t.Fatalf("second updater acquired X concurrently")
	}
	_ = t2.Abort("")
	_ = tx.Commit()
}

func TestReadForUpdateMissingKey(t *testing.T) {
	m := newMgr(nil)
	tx, _ := m.Begin("T1", history.KindGlobal, "")
	if v, err := tx.ReadInt64ForUpdate(bg(), "nope"); err != nil || v != 0 {
		t.Fatalf("missing key for-update: %d %v", v, err)
	}
	// Lock must still be exclusive so the subsequent write is safe.
	if m.Locks().Held("T1")["nope"] != lock.Exclusive {
		t.Fatalf("no X lock on missing key")
	}
	_ = tx.Commit()
}

func TestReadForUpdateNotActive(t *testing.T) {
	m := newMgr(nil)
	tx, _ := m.Begin("T1", history.KindGlobal, "")
	_ = tx.Commit()
	if _, err := tx.ReadForUpdate(bg(), "a"); !errors.Is(err, ErrNotActive) {
		t.Fatalf("err = %v", err)
	}
}

func TestReleaseLocksEarly(t *testing.T) {
	m := newMgr(nil)
	tx, _ := m.Begin("T1", history.KindGlobal, "")
	_ = tx.Write(bg(), "w", storage.Value("v"))
	_, _ = tx.Read(bg(), "r")
	tx.ReleaseLocks()
	if m.Locks().HoldsAny("T1") {
		t.Fatalf("locks survived ReleaseLocks")
	}
}

func TestCommitAfterAbortFails(t *testing.T) {
	m := newMgr(nil)
	tx, _ := m.Begin("T1", history.KindLocal, "")
	_ = tx.Abort("")
	if err := tx.Commit(); !errors.Is(err, ErrNotActive) {
		t.Fatalf("commit after abort: %v", err)
	}
}
