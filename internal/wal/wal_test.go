package wal

import (
	"bytes"
	"os"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"o2pc/internal/storage"
)

func upd(txn string, key storage.Key, before, after string, existed bool) Record {
	rec := Record{
		Type:  RecUpdate,
		TxnID: txn,
		Before: Image{
			Key: key, Value: storage.Value(before),
			Existed: existed, Writer: "w0",
		},
		After: Image{Key: key, Value: storage.Value(after), Existed: true, Writer: txn},
	}
	if before == "" {
		rec.Before.Value = nil
	}
	return rec
}

func TestMemoryLogAppendAssignsLSNs(t *testing.T) {
	l := NewMemoryLog()
	for i := 1; i <= 3; i++ {
		lsn, err := l.Append(Record{Type: RecBegin, TxnID: "T1"})
		if err != nil || lsn != uint64(i) {
			t.Fatalf("append %d: lsn=%d err=%v", i, lsn, err)
		}
	}
	recs, _ := l.Records()
	if len(recs) != 3 || recs[2].LSN != 3 {
		t.Fatalf("records = %+v", recs)
	}
}

func TestMemoryLogClosed(t *testing.T) {
	l := NewMemoryLog()
	_ = l.Close()
	if _, err := l.Append(Record{}); err != ErrClosed {
		t.Fatalf("append on closed: %v", err)
	}
	if _, err := l.Records(); err != ErrClosed {
		t.Fatalf("records on closed: %v", err)
	}
}

func TestAnalyzeStatuses(t *testing.T) {
	recs := []Record{
		{Type: RecBegin, TxnID: "T1"},
		upd("T1", "a", "", "1", false),
		{Type: RecCommit, TxnID: "T1"},
		{Type: RecBegin, TxnID: "T2"},
		upd("T2", "b", "", "2", false),
		{Type: RecPrepared, TxnID: "T2"},
		{Type: RecBegin, TxnID: "T3"},
		{Type: RecBegin, TxnID: "T4"},
		upd("T4", "c", "", "4", false),
		{Type: RecAbort, TxnID: "T4"},
		{Type: RecCompBegin, TxnID: "CT5", Aux: "T5"},
		{Type: RecCompEnd, TxnID: "CT5"},
	}
	a := Analyze(recs)
	want := map[string]TxnStatus{
		"T1": StatusCommitted, "T2": StatusPrepared, "T3": StatusActive,
		"T4": StatusAborted, "CT5": StatusCommitted,
	}
	for id, st := range want {
		if a.Status[id] != st {
			t.Errorf("status[%s] = %v, want %v", id, a.Status[id], st)
		}
	}
	if len(a.Updates["T1"]) != 1 || len(a.Updates["T4"]) != 1 {
		t.Errorf("updates = %+v", a.Updates)
	}
}

func TestAnalyzeDecisions(t *testing.T) {
	a := Analyze([]Record{
		{Type: RecPrepared, TxnID: "T1"},
		{Type: RecDecision, TxnID: "T1", Aux: DecisionAux(true)},
		{Type: RecDecision, TxnID: "T2", Aux: DecisionAux(false)},
		{Type: RecDecision, TxnID: "T3", Aux: "garbled"},
	})
	if commit, ok := a.Decisions["T1"]; !commit || !ok {
		t.Fatalf("T1 decision = %v, %v; want commit", commit, ok)
	}
	if commit, ok := a.Decisions["T2"]; commit || !ok {
		t.Fatalf("T2 decision = %v, %v; want abort", commit, ok)
	}
	if _, ok := a.Decisions["T3"]; ok {
		t.Fatalf("garbled decision record counted as a decision")
	}
}

func TestApplyUndoRestoresReverseOrder(t *testing.T) {
	store := storage.NewStore()
	store.Put("a", storage.Value("init"), "T0")
	// T1 writes a twice; undo must restore "init", not the intermediate.
	u1 := Record{Type: RecUpdate, TxnID: "T1",
		Before: Image{Key: "a", Value: storage.Value("init"), Existed: true, Writer: "T0"},
		After:  Image{Key: "a", Value: storage.Value("mid"), Existed: true, Writer: "T1"}}
	u2 := Record{Type: RecUpdate, TxnID: "T1",
		Before: Image{Key: "a", Value: storage.Value("mid"), Existed: true, Writer: "T1"},
		After:  Image{Key: "a", Value: storage.Value("fin"), Existed: true, Writer: "T1"}}
	store.Put("a", storage.Value("mid"), "T1")
	store.Put("a", storage.Value("fin"), "T1")

	ApplyUndo(store, []Record{u1, u2}, "CTT1")
	rec, _ := store.Get("a")
	if string(rec.Value) != "init" {
		t.Fatalf("value = %q, want init", rec.Value)
	}
	if rec.Writer != "CTT1" {
		t.Fatalf("writer = %q, want CTT1", rec.Writer)
	}
}

func TestApplyUndoPreservesOriginalWriterWhenUnattributed(t *testing.T) {
	store := storage.NewStore()
	store.Put("a", storage.Value("v2"), "L9")
	u := Record{Type: RecUpdate, TxnID: "L9",
		Before: Image{Key: "a", Value: storage.Value("v1"), Existed: true, Writer: "T7"},
		After:  Image{Key: "a", Value: storage.Value("v2"), Existed: true, Writer: "L9"}}
	ApplyUndo(store, []Record{u}, "")
	rec, _ := store.Get("a")
	if rec.Writer != "T7" {
		t.Fatalf("writer = %q, want original T7", rec.Writer)
	}
}

func TestApplyUndoRemovesInsertedKey(t *testing.T) {
	store := storage.NewStore()
	store.Put("new", storage.Value("v"), "T1")
	u := upd("T1", "new", "", "v", false)
	ApplyUndo(store, []Record{u}, "CT1")
	if _, ok := store.GetAny("new"); ok {
		t.Fatalf("inserted key not removed by undo")
	}
}

func TestRecoverRedoesCommittedUndoesLosers(t *testing.T) {
	l := NewMemoryLog()
	appendAll(t, l,
		Record{Type: RecBegin, TxnID: "T1"},
		upd("T1", "a", "", "A", false),
		Record{Type: RecCommit, TxnID: "T1"},
		Record{Type: RecBegin, TxnID: "T2"},
		upd("T2", "b", "", "B", false),
		// T2 crashed mid-flight: no terminal record.
	)
	store := storage.NewStore()
	res, err := Recover(store, l)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if len(res.Redone) != 1 || res.Redone[0] != "T1" {
		t.Fatalf("redone = %v", res.Redone)
	}
	if len(res.Undone) != 1 || res.Undone[0] != "T2" {
		t.Fatalf("undone = %v", res.Undone)
	}
	if rec, err := store.Get("a"); err != nil || string(rec.Value) != "A" {
		t.Fatalf("a = %v (%v)", rec, err)
	}
	if _, err := store.Get("b"); !storage.IsNotFound(err) {
		t.Fatalf("loser's write survived recovery")
	}
}

func TestRecoverInDoubtStaysApplied(t *testing.T) {
	l := NewMemoryLog()
	appendAll(t, l,
		Record{Type: RecBegin, TxnID: "T1"},
		upd("T1", "a", "", "A", false),
		Record{Type: RecPrepared, TxnID: "T1"},
	)
	store := storage.NewStore()
	res, err := Recover(store, l)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if len(res.InDoubt) != 1 || res.InDoubt[0] != "T1" {
		t.Fatalf("in-doubt = %v", res.InDoubt)
	}
	if rec, err := store.Get("a"); err != nil || string(rec.Value) != "A" {
		t.Fatalf("in-doubt effects lost: %v (%v)", rec, err)
	}
}

func TestRecoverPreparedWithDecision(t *testing.T) {
	for _, tc := range []struct {
		decision string
		wantA    bool
	}{{"commit", true}, {"abort", false}} {
		l := NewMemoryLog()
		appendAll(t, l,
			Record{Type: RecBegin, TxnID: "T1"},
			upd("T1", "a", "", "A", false),
			Record{Type: RecPrepared, TxnID: "T1"},
			Record{Type: RecDecision, TxnID: "T1", Aux: tc.decision},
		)
		store := storage.NewStore()
		res, err := Recover(store, l)
		if err != nil {
			t.Fatalf("recover: %v", err)
		}
		if len(res.InDoubt) != 0 {
			t.Fatalf("%s: still in doubt", tc.decision)
		}
		_, err = store.Get("a")
		if tc.wantA && err != nil {
			t.Fatalf("commit decision lost the write")
		}
		if !tc.wantA && !storage.IsNotFound(err) {
			t.Fatalf("abort decision kept the write")
		}
	}
}

func TestRecoverAbortedTxnStaysUndone(t *testing.T) {
	l := NewMemoryLog()
	appendAll(t, l,
		Record{Type: RecBegin, TxnID: "T1"},
		upd("T1", "a", "", "A", false),
		Record{Type: RecAbort, TxnID: "T1"},
	)
	store := storage.NewStore()
	if _, err := Recover(store, l); err != nil {
		t.Fatalf("recover: %v", err)
	}
	if _, err := store.Get("a"); !storage.IsNotFound(err) {
		t.Fatalf("aborted txn's write resurrected by recovery")
	}
}

// TestRecoverAbortThenLaterCommitSameKey pins the undo ordering of
// crash recovery: T2 updates a key, rolls back live (ABORT logged after
// the before-images were restored, locks released after that), and T4
// then writes the same key and commits — all before the crash. T2's undo
// must replay at its ABORT record's log position, not after the redo
// pass, or it re-installs T2's stale before-image on top of T4's
// committed write (the seed-107 conservation violation found by the
// explorer: an aborted 2PC transfer's undo erased a later committed
// O2PC transfer on the same account).
func TestRecoverAbortThenLaterCommitSameKey(t *testing.T) {
	l := NewMemoryLog()
	appendAll(t, l,
		Record{Type: RecBegin, TxnID: "T2"},
		Record{Type: RecUpdate, TxnID: "T2",
			Before: Image{Key: "acct", Value: storage.Value("1000"), Existed: true, Writer: "init"},
			After:  Image{Key: "acct", Value: storage.Value("993"), Existed: true, Writer: "T2"}},
		Record{Type: RecDecision, TxnID: "T2", Aux: "abort"},
		Record{Type: RecAbort, TxnID: "T2"},
		// T4 locks the key only after T2's roll-back released it, so its
		// before-image already reflects the restored value.
		Record{Type: RecBegin, TxnID: "T4"},
		Record{Type: RecUpdate, TxnID: "T4",
			Before: Image{Key: "acct", Value: storage.Value("1000"), Existed: true, Writer: "init"},
			After:  Image{Key: "acct", Value: storage.Value("1009"), Existed: true, Writer: "T4"}},
		Record{Type: RecExposed, TxnID: "T4", Aux: `{"coord":"c0"}`},
		Record{Type: RecCommit, TxnID: "T4"},
		Record{Type: RecDecision, TxnID: "T4", Aux: "commit"},
	)
	store := storage.NewStore()
	res, err := Recover(store, l)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if len(res.Undone) != 1 || res.Undone[0] != "T2" {
		t.Fatalf("undone = %v, want [T2]", res.Undone)
	}
	rec, err := store.Get("acct")
	if err != nil {
		t.Fatalf("acct: %v", err)
	}
	if string(rec.Value) != "1009" || rec.Writer != "T4" {
		t.Fatalf("acct = %q by %q, want 1009 by T4 (aborted T2's undo clobbered the later committed write)", rec.Value, rec.Writer)
	}
}

// TestRecoverAbortAttributionMatchesLiveRollback pins that recovery
// replays an ABORT record's undo with the attribution the live roll-back
// logged in Aux: a compensating-transaction ID re-attributes the restored
// version (so post-recovery readers read-from the compensation, as live
// readers did), while an empty Aux preserves the original writer.
func TestRecoverAbortAttributionMatchesLiveRollback(t *testing.T) {
	for _, tc := range []struct {
		aux        string
		wantWriter string
	}{{"CTT1", "CTT1"}, {"", "init"}} {
		l := NewMemoryLog()
		appendAll(t, l,
			Record{Type: RecBegin, TxnID: "T1"},
			Record{Type: RecUpdate, TxnID: "T1",
				Before: Image{Key: "a", Value: storage.Value("v0"), Existed: true, Writer: "init"},
				After:  Image{Key: "a", Value: storage.Value("v1"), Existed: true, Writer: "T1"}},
			Record{Type: RecAbort, TxnID: "T1", Aux: tc.aux},
		)
		store := storage.NewStore()
		if _, err := Recover(store, l); err != nil {
			t.Fatalf("recover: %v", err)
		}
		rec, err := store.Get("a")
		if err != nil {
			t.Fatalf("aux=%q: %v", tc.aux, err)
		}
		if string(rec.Value) != "v0" || rec.Writer != tc.wantWriter {
			t.Fatalf("aux=%q: a = %q by %q, want v0 by %q", tc.aux, rec.Value, rec.Writer, tc.wantWriter)
		}
	}
}

func appendAll(t *testing.T, l Log, recs ...Record) {
	t.Helper()
	for _, rec := range recs {
		if _, err := l.Append(rec); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
}

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	rec := Record{
		LSN:   42,
		Type:  RecUpdate,
		TxnID: "T17",
		Before: Image{Key: "key/α", Value: storage.Value{0, 1, 2, 255},
			Existed: true, Deleted: false, Writer: "T3"},
		After: Image{Key: "key/α", Value: nil, Existed: true, Deleted: true, Writer: "T17"},
		Aux:   "commit",
	}
	buf := Marshal(rec)
	got, err := ReadRecord(bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !reflect.DeepEqual(rec, got) {
		t.Fatalf("roundtrip mismatch:\n  in:  %+v\n  out: %+v", rec, got)
	}
}

// TestMarshalRecoveryRecordsRoundTrip pins the encoding of the recovery
// record types PR 5 introduced: exposure (with its JSON payload in Aux)
// and the marking-set mutations.
func TestMarshalRecoveryRecordsRoundTrip(t *testing.T) {
	for _, rec := range []Record{
		{LSN: 7, Type: RecExposed, TxnID: "T3", Aux: `{"coord":"c1","req":{"txn_id":"T3"}}`},
		{LSN: 8, Type: RecMark, TxnID: "T3", Aux: MarkSetUndone},
		{LSN: 9, Type: RecUnmark, TxnID: "T3", Aux: MarkSetUndone},
		{LSN: 10, Type: RecMark, TxnID: "T4", Aux: MarkSetLC},
	} {
		got, err := ReadRecord(bytes.NewReader(Marshal(rec)))
		if err != nil {
			t.Fatalf("%v: read: %v", rec.Type, err)
		}
		if !reflect.DeepEqual(rec, got) {
			t.Fatalf("roundtrip mismatch:\n  in:  %+v\n  out: %+v", rec, got)
		}
		if got.Type.String() == "" || got.Type.String()[0] == 'R' {
			t.Fatalf("%v: missing String() case: %q", rec.Type, got.Type.String())
		}
	}
}

func TestEncodingQuick(t *testing.T) {
	f := func(lsn uint64, typ uint8, txn, key, val, writer, aux string, existed, deleted bool) bool {
		rec := Record{
			LSN:   lsn,
			Type:  RecordType(typ%12 + 1), // all record types through RecUnmark
			TxnID: txn,
			Before: Image{Key: storage.Key(key), Existed: existed,
				Deleted: deleted, Writer: writer},
			Aux: aux,
		}
		if len(val) > 0 {
			rec.Before.Value = storage.Value(val)
		}
		got, err := ReadRecord(bytes.NewReader(Marshal(rec)))
		return err == nil && reflect.DeepEqual(rec, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestReadAllTornTail(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(Marshal(Record{LSN: 1, Type: RecBegin, TxnID: "T1"}))
	torn := Marshal(Record{LSN: 2, Type: RecCommit, TxnID: "T1"})
	buf.Write(torn[:len(torn)-3]) // torn final record

	recs, err := ReadAll(&buf)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if len(recs) != 1 || recs[0].TxnID != "T1" || recs[0].Type != RecBegin {
		t.Fatalf("recs = %+v", recs)
	}
}

func TestReadRecordCRCMismatch(t *testing.T) {
	buf := Marshal(Record{LSN: 1, Type: RecBegin, TxnID: "T1"})
	buf[len(buf)-1] ^= 0xFF
	if _, err := ReadRecord(bytes.NewReader(buf)); err == nil {
		t.Fatalf("corrupted record accepted")
	}
}

func TestRecordTypeStrings(t *testing.T) {
	for ty, want := range map[RecordType]string{
		RecBegin: "BEGIN", RecUpdate: "UPDATE", RecCommit: "COMMIT",
		RecAbort: "ABORT", RecPrepared: "PREPARED", RecDecision: "DECISION",
		RecCompBegin: "COMP-BEGIN", RecCompEnd: "COMP-END", RecCheckpoint: "CHECKPOINT",
	} {
		if ty.String() != want {
			t.Errorf("%d.String() = %q, want %q", ty, ty.String(), want)
		}
	}
	if TxnStatus(99).String() == "" || RecordType(99).String() == "" {
		t.Errorf("unknown values must still render")
	}
}

func TestFileLogPersistence(t *testing.T) {
	path := t.TempDir() + "/wal.log"
	l, err := OpenFileLog(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	appendAll(t, l,
		Record{Type: RecBegin, TxnID: "T1"},
		upd("T1", "a", "", "A", false),
		Record{Type: RecCommit, TxnID: "T1"},
	)
	if err := l.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	l2, err := OpenFileLog(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	recs, err := l2.Records()
	if err != nil {
		t.Fatalf("records: %v", err)
	}
	if len(recs) != 3 || recs[2].Type != RecCommit {
		t.Fatalf("recs = %+v", recs)
	}
	// LSNs continue after reopen.
	lsn, err := l2.Append(Record{Type: RecBegin, TxnID: "T2"})
	if err != nil || lsn != 4 {
		t.Fatalf("append after reopen: lsn=%d err=%v", lsn, err)
	}
}

func TestFileLogRecoverEndToEnd(t *testing.T) {
	path := t.TempDir() + "/wal.log"
	l, err := OpenFileLog(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	appendAll(t, l,
		Record{Type: RecBegin, TxnID: "T1"},
		upd("T1", "x", "", "X", false),
		Record{Type: RecCommit, TxnID: "T1"},
		Record{Type: RecBegin, TxnID: "T2"},
		upd("T2", "y", "", "Y", false),
	)
	_ = l.Sync()
	_ = l.Close()

	l2, err := OpenFileLog(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	store := storage.NewStore()
	res, err := Recover(store, l2)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if len(res.Redone) != 1 || len(res.Undone) != 1 {
		t.Fatalf("res = %+v", res)
	}
	if _, err := store.Get("x"); err != nil {
		t.Fatalf("committed write lost across file reopen")
	}
	if _, err := store.Get("y"); !storage.IsNotFound(err) {
		t.Fatalf("loser write survived across file reopen")
	}
}

// TestFileLogAppendAfterTornTail reopens a log whose last record was torn
// mid-write, appends, and reopens again: the torn bytes must be gone, not
// left in front of the new record where they would corrupt the log.
func TestFileLogAppendAfterTornTail(t *testing.T) {
	for _, tc := range []struct {
		name string
		keep func(full int) int // bytes of the third record that reached disk
	}{
		{"header-only", func(int) int { return 3 }},
		{"mid-payload", func(full int) int { return full - 20 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := t.TempDir() + "/wal.log"
			var buf bytes.Buffer
			buf.Write(Marshal(Record{LSN: 1, Type: RecBegin, TxnID: "T1"}))
			second := upd("T1", "a", "", "A", false)
			second.LSN = 2
			buf.Write(Marshal(second))
			torn := Marshal(Record{LSN: 3, Type: RecCommit, TxnID: "T1", Aux: strings.Repeat("x", 32)})
			buf.Write(torn[:tc.keep(len(torn))])
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}

			l, err := OpenFileLog(path)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			if _, err := l.Append(Record{Type: RecAbort, TxnID: "T1"}); err != nil {
				t.Fatalf("append: %v", err)
			}
			if err := l.Sync(); err != nil {
				t.Fatalf("sync: %v", err)
			}
			if err := l.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}

			l2, err := OpenFileLog(path)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer l2.Close()
			recs, err := l2.Records()
			if err != nil {
				t.Fatalf("records: %v", err)
			}
			if len(recs) != 3 || recs[2].Type != RecAbort {
				t.Fatalf("recs = %+v, want two records plus the appended abort", recs)
			}
			for i, r := range recs {
				if r.LSN != uint64(i+1) {
					t.Fatalf("record %d has LSN %d, want %d", i, r.LSN, i+1)
				}
			}
		})
	}
}
