package wal

import (
	"fmt"
	"os"
	"testing"

	"o2pc/internal/storage"
)

func TestCheckpointRecovery(t *testing.T) {
	l := NewMemoryLog()
	store := storage.NewStore()

	// Pre-checkpoint activity: T1 commits, T2 aborts.
	appendAll(t, l,
		Record{Type: RecBegin, TxnID: "T1"},
		upd("T1", "a", "", "A", false),
		Record{Type: RecCommit, TxnID: "T1"},
		Record{Type: RecBegin, TxnID: "T2"},
		upd("T2", "junk", "", "J", false),
		Record{Type: RecAbort, TxnID: "T2"},
	)
	store.Put("a", storage.Value("A"), "T1")
	if _, _, err := l.Checkpoint(store); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	// Post-checkpoint activity: T3 commits, T4 in flight.
	appendAll(t, l,
		Record{Type: RecBegin, TxnID: "T3"},
		upd("T3", "b", "", "B", false),
		Record{Type: RecCommit, TxnID: "T3"},
		Record{Type: RecBegin, TxnID: "T4"},
		upd("T4", "c", "", "C", false),
	)

	fresh := storage.NewStore()
	res, err := Recover(fresh, l)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if rec, err := fresh.Get("a"); err != nil || string(rec.Value) != "A" {
		t.Fatalf("checkpointed key lost: %v %v", rec, err)
	}
	if rec, err := fresh.Get("b"); err != nil || string(rec.Value) != "B" {
		t.Fatalf("post-checkpoint commit lost: %v %v", rec, err)
	}
	if _, err := fresh.Get("c"); !storage.IsNotFound(err) {
		t.Fatalf("loser survived")
	}
	if _, err := fresh.Get("junk"); !storage.IsNotFound(err) {
		t.Fatalf("pre-checkpoint aborted key resurrected")
	}
	// Pre-checkpoint transactions are not re-analyzed.
	for _, id := range res.Redone {
		if id == "T1" {
			t.Fatalf("pre-checkpoint txn replayed: %v", res.Redone)
		}
	}
}

func TestCheckpointPreservesWriterAttribution(t *testing.T) {
	l := NewMemoryLog()
	store := storage.NewStore()
	store.Put("x", storage.Value("v"), "CTT9")
	if _, _, err := l.Checkpoint(store); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	fresh := storage.NewStore()
	if _, err := Recover(fresh, l); err != nil {
		t.Fatalf("recover: %v", err)
	}
	rec, _ := fresh.Get("x")
	if rec.Writer != "CTT9" {
		t.Fatalf("writer = %q, want CTT9 (reads-from attribution must survive checkpoints)", rec.Writer)
	}
}

func TestIncompleteCheckpointIgnored(t *testing.T) {
	l := NewMemoryLog()
	appendAll(t, l,
		Record{Type: RecBegin, TxnID: "T1"},
		upd("T1", "a", "", "A", false),
		Record{Type: RecCommit, TxnID: "T1"},
		// Torn checkpoint: begin without end.
		Record{Type: RecCheckpoint, TxnID: ckptTxnID, Aux: ckptBegin},
	)
	fresh := storage.NewStore()
	if _, err := Recover(fresh, l); err != nil {
		t.Fatalf("recover: %v", err)
	}
	if rec, err := fresh.Get("a"); err != nil || string(rec.Value) != "A" {
		t.Fatalf("torn checkpoint lost pre-history: %v %v", rec, err)
	}
}

func TestLastOfSeveralCheckpointsWins(t *testing.T) {
	l := NewMemoryLog()
	s1 := storage.NewStore()
	s1.Put("k", storage.Value("old"), "T1")
	if _, _, err := l.Checkpoint(s1); err != nil {
		t.Fatalf("ckpt1: %v", err)
	}
	s2 := storage.NewStore()
	s2.Put("k", storage.Value("new"), "T2")
	if _, _, err := l.Checkpoint(s2); err != nil {
		t.Fatalf("ckpt2: %v", err)
	}
	fresh := storage.NewStore()
	if _, err := Recover(fresh, l); err != nil {
		t.Fatalf("recover: %v", err)
	}
	rec, _ := fresh.Get("k")
	if string(rec.Value) != "new" {
		t.Fatalf("k = %q, want value from the last checkpoint", rec.Value)
	}
}

// TestCheckpointShrinksFileLog: a FileLog's checkpoint rewrites the file as
// (checkpoint + nothing), recovers the same store from it, and keeps
// appending with advancing LSNs, also after a reopen.
func TestCheckpointShrinksFileLog(t *testing.T) {
	path := t.TempDir() + "/wal.log"
	l, err := OpenFileLog(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	store := storage.NewStore()
	for i := 0; i < 50; i++ {
		key := storage.Key(fmt.Sprintf("k%d", i))
		appendAll(t, l,
			Record{Type: RecBegin, TxnID: fmt.Sprintf("T%d", i)},
			upd(fmt.Sprintf("T%d", i), key, "", "v", false),
			Record{Type: RecCommit, TxnID: fmt.Sprintf("T%d", i)},
		)
		store.Put(key, storage.Value("v"), fmt.Sprintf("T%d", i))
	}
	before, _ := l.Records()
	sizeBefore := fileSize(t, path)

	begin, end, err := l.Checkpoint(store)
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	after, err := l.Records()
	if err != nil {
		t.Fatalf("records: %v", err)
	}
	if len(after) >= len(before) || fileSize(t, path) >= sizeBefore {
		t.Fatalf("checkpoint did not shrink: %d -> %d records", len(before), len(after))
	}
	if after[0].LSN != begin || after[len(after)-1].LSN != end || begin != before[len(before)-1].LSN+1 {
		t.Fatalf("bracket LSNs [%d,%d], log [%d,%d] after %d", begin, end, after[0].LSN, after[len(after)-1].LSN, before[len(before)-1].LSN)
	}
	if _, err := os.Stat(path + ckptSuffix); !os.IsNotExist(err) {
		t.Fatalf("temporary checkpoint file left behind: %v", err)
	}
	lsn, err := l.Append(Record{Type: RecBegin, TxnID: "Tnew"})
	if err != nil || lsn != end+1 {
		t.Fatalf("append after checkpoint: lsn=%d err=%v, want %d", lsn, err, end+1)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// The rewritten file is the log: a reopen recovers the store from it.
	nl, err := OpenFileLog(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer nl.Close()
	fresh := storage.NewStore()
	if _, err := Recover(fresh, nl); err != nil {
		t.Fatalf("recover: %v", err)
	}
	if fresh.Len() != 50 {
		t.Fatalf("recovered %d keys, want 50", fresh.Len())
	}
	if lsn, err := nl.Append(Record{Type: RecBegin, TxnID: "Tnext"}); err != nil || lsn != end+2 {
		t.Fatalf("append after reopen: lsn=%d err=%v, want %d", lsn, err, end+2)
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestCheckpointRetainsExposedUndecided is the checkpoint x exposure
// contract: a checkpoint taken while a subtransaction is exposed but
// undecided must retain enough log — exposure payload, before-images,
// marking state — for the restarted site to resume the inquiry and
// compensate on an eventual ABORT.
func TestCheckpointRetainsExposedUndecided(t *testing.T) {
	l := NewMemoryLog()
	store := storage.NewStore()

	// T1 is an O2PC subtransaction: exposure logged ahead of the local
	// commit, no global decision yet; its lc mark is set (P2-style).
	appendAll(t, l,
		Record{Type: RecBegin, TxnID: "T1"},
		upd("T1", "bal", "100", "90", true),
		Record{Type: RecExposed, TxnID: "T1", Aux: `{"coord":"c0"}`},
		Record{Type: RecCommit, TxnID: "T1"},
		Record{Type: RecMark, TxnID: "T1", Aux: MarkSetLC},
	)
	store.Put("bal", storage.Value("90"), "T1")
	if _, _, err := l.Checkpoint(store); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}

	// Restart: the store comes back with the exposed commit applied...
	fresh := storage.NewStore()
	if _, err := Recover(fresh, l); err != nil {
		t.Fatalf("recover: %v", err)
	}
	if rec, err := fresh.Get("bal"); err != nil || string(rec.Value) != "90" {
		t.Fatalf("exposed commit lost across checkpoint: %v %v", rec, err)
	}

	// ...and the replayed records still carry everything compensation
	// needs: the exposure payload, the before-image, and the lc mark.
	records, err := l.Records()
	if err != nil {
		t.Fatalf("records: %v", err)
	}
	a := Analyze(Replay(records))
	if a.Exposed["T1"] != `{"coord":"c0"}` {
		t.Fatalf("exposure payload truncated by checkpoint: %q", a.Exposed["T1"])
	}
	if a.Status["T1"] != StatusCommitted {
		t.Fatalf("exposed status = %v, want committed", a.Status["T1"])
	}
	ups := a.Updates["T1"]
	if len(ups) != 1 || string(ups[0].Before.Value) != "100" || !ups[0].Before.Existed {
		t.Fatalf("before-image truncated by checkpoint: %+v", ups)
	}
	if !a.Marks[MarkSetLC]["T1"] {
		t.Fatalf("lc mark truncated by checkpoint: %v", a.Marks)
	}
}

// TestCheckpointDropsResolvedExposure: once the decision is logged (and,
// for ABORT, the compensating transaction completed), the next checkpoint
// owes the exposure nothing: CarryRecords returns only the decision itself,
// as the stale-exec fence, and the checkpoint after that drops it too.
func TestCheckpointDropsResolvedExposure(t *testing.T) {
	exposed := func(decision string, compRecs ...Record) []Record {
		recs := []Record{
			{Type: RecBegin, TxnID: "T1"},
			upd("T1", "bal", "100", "90", true),
			{Type: RecExposed, TxnID: "T1", Aux: `{"coord":"c0"}`},
			{Type: RecCommit, TxnID: "T1"},
			{Type: RecDecision, TxnID: "T1", Aux: decision},
		}
		return append(recs, compRecs...)
	}

	onlyFence := func(carry []Record, decision string) bool {
		return len(carry) == 1 && carry[0].Type == RecDecision && carry[0].TxnID == "T1" && carry[0].Aux == decision
	}
	if carry := CarryRecords(exposed("commit")); !onlyFence(carry, "commit") {
		t.Fatalf("commit-decided exposure still carried: %+v", carry)
	}
	done := exposed("abort",
		Record{Type: RecCompBegin, TxnID: "CTT1", Aux: "T1"},
		upd("CTT1", "bal", "90", "100", true),
		Record{Type: RecCompEnd, TxnID: "CTT1"},
	)
	if carry := CarryRecords(done); !onlyFence(carry, "abort") {
		t.Fatalf("fully compensated exposure still carried: %+v", carry)
	}
	l := NewMemoryLog()
	appendAll(t, l, done...)
	for i := 0; i < 2; i++ {
		if _, _, err := l.Checkpoint(storage.NewStore()); err != nil {
			t.Fatalf("checkpoint: %v", err)
		}
	}
	recs, err := l.Records()
	if err != nil {
		t.Fatalf("records: %v", err)
	}
	if carry := CarryRecords(recs); len(carry) != 0 {
		t.Fatalf("fence decision outlived the next checkpoint: %+v", carry)
	}

	// An ABORT whose compensation was interrupted (COMP-BEGIN without
	// COMP-END) must carry both the exposed records and the partial CT.
	interrupted := exposed("abort",
		Record{Type: RecCompBegin, TxnID: "CTT1", Aux: "T1"},
	)
	carry := CarryRecords(interrupted)
	carried := make(map[string]bool)
	for _, rec := range carry {
		carried[rec.TxnID] = true
	}
	if !carried["T1"] || !carried["CTT1"] {
		t.Fatalf("interrupted compensation dropped by checkpoint: carried %v", carried)
	}
}

// TestCheckpointSnapshotsMarks: marking sets outlive the transactions
// that created them, so checkpoints re-snapshot them as fresh RecMark
// records — and an unmark before the checkpoint means no record at all.
func TestCheckpointSnapshotsMarks(t *testing.T) {
	records := []Record{
		{Type: RecMark, TxnID: "T1", Aux: MarkSetUndone},
		{Type: RecMark, TxnID: "T2", Aux: MarkSetUndone},
		{Type: RecMark, TxnID: "T2", Aux: MarkSetLC},
		{Type: RecUnmark, TxnID: "T1", Aux: MarkSetUndone},
	}
	carry := CarryRecords(records)
	want := []Record{
		{Type: RecMark, TxnID: "T2", Aux: MarkSetLC},
		{Type: RecMark, TxnID: "T2", Aux: MarkSetUndone},
	}
	if len(carry) != len(want) {
		t.Fatalf("carried %+v, want %+v", carry, want)
	}
	for i := range want {
		if carry[i].Type != want[i].Type || carry[i].TxnID != want[i].TxnID || carry[i].Aux != want[i].Aux {
			t.Fatalf("carried %+v, want %+v", carry, want)
		}
	}

	// And across a real checkpoint + restart the marks replay intact.
	l := NewMemoryLog()
	appendAll(t, l, records...)
	if _, _, err := l.Checkpoint(storage.NewStore()); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	recs, err := l.Records()
	if err != nil {
		t.Fatalf("records: %v", err)
	}
	a := Analyze(Replay(recs))
	if a.Marks[MarkSetUndone]["T1"] || !a.Marks[MarkSetUndone]["T2"] || !a.Marks[MarkSetLC]["T2"] {
		t.Fatalf("marks after checkpointed restart: %v", a.Marks)
	}
}

// TestCrashDuringFileCheckpointKeepsOldLog: a crash after the checkpoint's
// temporary file is written but before the rename leaves the old log in
// place; a reopen recovers it, ignores the temporary file, and the next
// checkpoint overwrites it.
func TestCrashDuringFileCheckpointKeepsOldLog(t *testing.T) {
	path := t.TempDir() + "/wal.log"
	l, err := OpenFileLog(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	appendAll(t, l,
		Record{Type: RecBegin, TxnID: "T1"},
		upd("T1", "a", "", "A", false),
		Record{Type: RecCommit, TxnID: "T1"},
		Record{Type: RecBegin, TxnID: "T2"},
		upd("T2", "b", "", "B", false),
	)
	records, err := l.Records()
	if err != nil {
		t.Fatalf("records: %v", err)
	}
	// The checkpoint's first half: the bracket is written and fsynced to the
	// temporary file. Then the process dies.
	store := storage.NewStore()
	store.Put("a", storage.Value("A"), "T1")
	store.Put("b", storage.Value("B"), "T2")
	f, err := writeCheckpointFile(path+ckptSuffix, bracket(records, store, records[len(records)-1].LSN+1))
	if err != nil {
		t.Fatalf("write temporary checkpoint: %v", err)
	}
	f.Close()
	l.Close()

	nl, err := OpenFileLog(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer nl.Close()
	after, err := nl.Records()
	if err != nil {
		t.Fatalf("records: %v", err)
	}
	if len(after) != len(records) {
		t.Fatalf("reopened log has %d records, want the old log's %d", len(after), len(records))
	}
	fresh := storage.NewStore()
	if _, err := Recover(fresh, nl); err != nil {
		t.Fatalf("recover: %v", err)
	}
	if rec, err := fresh.Get("a"); err != nil || string(rec.Value) != "A" {
		t.Fatalf("committed key after the interrupted checkpoint: %v %v", rec, err)
	}
	if _, err := fresh.Get("b"); !storage.IsNotFound(err) {
		t.Fatalf("loser survived the interrupted checkpoint")
	}

	if _, _, err := nl.Checkpoint(fresh); err != nil {
		t.Fatalf("checkpoint over the leftover temporary file: %v", err)
	}
	if _, err := os.Stat(path + ckptSuffix); !os.IsNotExist(err) {
		t.Fatalf("temporary checkpoint file left behind: %v", err)
	}
}

// BenchmarkMemoryLogCheckpoint times one checkpoint of a memory log shaped
// like a 2PC site's at its trigger: the previous checkpoint, whose fence
// decisions this one drops, then 4096 records of decided transfers on 64
// keys (BEGIN, UPDATE, PREPARED, DECISION, COMMIT each).
func BenchmarkMemoryLogCheckpoint(b *testing.B) {
	store := storage.NewStore()
	for k := 0; k < 64; k++ {
		store.Put(storage.Key(fmt.Sprintf("acct%d", k)), storage.EncodeInt64(1000), "init")
	}
	fill := func(l *MemoryLog, from int) {
		for i := from; i < from+4096/5; i++ {
			id := fmt.Sprintf("c0-kq3x9-T%d", i)
			key := storage.Key(fmt.Sprintf("acct%d", i%64))
			for _, rec := range []Record{
				{Type: RecBegin, TxnID: id},
				{Type: RecUpdate, TxnID: id,
					Before: Image{Key: key, Value: storage.EncodeInt64(1000), Existed: true, Writer: "init"},
					After:  Image{Key: key, Value: storage.EncodeInt64(999), Existed: true, Writer: id}},
				{Type: RecPrepared, TxnID: id, Aux: "c0"},
				{Type: RecDecision, TxnID: id, Aux: "commit"},
				{Type: RecCommit, TxnID: id},
			} {
				if _, err := l.Append(rec); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	l := NewMemoryLog()
	fill(l, 0)
	if _, _, err := l.Checkpoint(store); err != nil {
		b.Fatal(err)
	}
	fill(l, 4096)
	full := NewMemoryLog()
	full.segs, full.count, full.nextLSN = l.segs, l.count, l.nextLSN
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Each checkpoint starts from the same log: the segments are
		// replaced, never mutated, so sharing them is safe.
		l.segs, l.count, l.nextLSN = full.segs, full.count, full.nextLSN
		if _, _, err := l.Checkpoint(store); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCheckpointCarriesPreparedUntilAbortRecord: a prepared transaction
// whose ABORT decision is logged but whose roll-back has not logged its
// ABORT record yet may still have its after-images in the store. A
// checkpoint then carries its records, so a crash undoes it; once the
// ABORT record lands the next checkpoint drops it.
func TestCheckpointCarriesPreparedUntilAbortRecord(t *testing.T) {
	l := NewMemoryLog()
	store := storage.NewStore()
	appendAll(t, l,
		Record{Type: RecBegin, TxnID: "T1"},
		upd("T1", "k", "1", "2", true),
		Record{Type: RecPrepared, TxnID: "T1", Aux: "c0"},
		Record{Type: RecDecision, TxnID: "T1", Aux: "abort"},
	)
	store.Put("k", storage.Value("2"), "T1") // not yet rolled back
	if _, _, err := l.Checkpoint(store); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	fresh := storage.NewStore()
	if _, err := Recover(fresh, l); err != nil {
		t.Fatalf("recover: %v", err)
	}
	if rec, err := fresh.Get("k"); err != nil || string(rec.Value) != "1" {
		t.Fatalf("k = %v (%v) after a crash, want the before-image 1", rec, err)
	}

	// The roll-back restores k and logs ABORT; the next checkpoint owes T1
	// nothing but the fence.
	store.Put("k", storage.Value("1"), "init")
	appendAll(t, l, Record{Type: RecAbort, TxnID: "T1"})
	records, err := l.Records()
	if err != nil {
		t.Fatalf("records: %v", err)
	}
	for _, rec := range CarryRecords(records) {
		if rec.TxnID == "T1" && rec.Type != RecDecision {
			t.Fatalf("rolled-back T1 still carried: %+v", rec)
		}
	}
}

// TestFileLogSynced: a FileLog's record is durable once a Sync or a
// Checkpoint has followed it, and a reopened log's records are durable. A
// memory log's records are durable as soon as they are appended.
func TestFileLogSynced(t *testing.T) {
	path := t.TempDir() + "/d.wal"
	l, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	first, err := l.Append(Record{Type: RecBegin, TxnID: "T1"})
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Synced(); got >= first {
		t.Fatalf("Synced = %d before any sync, want below %d", got, first)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	second, err := l.Append(Record{Type: RecCommit, TxnID: "T1"})
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Synced(); got != first {
		t.Fatalf("Synced = %d after a sync and an append, want %d", got, first)
	}
	begin, end, err := l.Checkpoint(storage.NewStore())
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Synced(); got != end || begin <= second {
		t.Fatalf("Synced = %d after a checkpoint spanning %d-%d, want %d", got, begin, end, end)
	}
	third, err := l.Append(Record{Type: RecBegin, TxnID: "T2"})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if got := reopened.Synced(); got != third {
		t.Fatalf("reopened log: Synced = %d, want %d", got, third)
	}
	m := NewMemoryLog()
	lsn, err := m.Append(Record{Type: RecBegin, TxnID: "T1"})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Synced(); got != lsn {
		t.Fatalf("memory log: Synced = %d, want %d", got, lsn)
	}
}

// TestTrigger: a checkpoint is due once the records since the last one
// exceed CheckpointThreshold of its size (or of the floor), one runs at a
// time, and a checkpoint that finishes after a later one does not move the
// log's start back.
func TestTrigger(t *testing.T) {
	var tr Trigger
	threshold := CheckpointThreshold(0)
	if n, due := tr.Due(threshold, 0); n != threshold || due {
		t.Fatalf("Due(%d) = %d %v, want %d false", threshold, n, due, threshold)
	}
	if _, due := tr.Due(threshold+1, 2*threshold); due {
		t.Fatal("due below the floor's threshold")
	}
	if _, due := tr.Due(threshold+1, 0); !due {
		t.Fatal("not due past the threshold")
	}
	if _, due := tr.Due(threshold+2, 0); due {
		t.Fatal("a second checkpoint due while one runs")
	}
	// Two checkpoints finish out of order: the later one's bounds stay.
	if n, moved := tr.Advance(2*threshold, 2*threshold+9); n != 10 || !moved {
		t.Fatalf("Advance = %d %v, want 10 true", n, moved)
	}
	if _, moved := tr.Advance(threshold+3, threshold+5); moved {
		t.Fatal("an earlier checkpoint moved the log's start back")
	}
	tr.Finish()
	if tr.Running() || tr.Last() != 10 {
		t.Fatalf("after Finish: running %v, last %d; want false 10", tr.Running(), tr.Last())
	}
	if n, _ := tr.Due(2*threshold-1, 0); n != 0 {
		t.Fatalf("a record the checkpoint covers counts %d records", n)
	}
	if n, _ := tr.Due(2*threshold+10, 0); n != 11 {
		t.Fatalf("records after the checkpoint = %d, want 11", n)
	}
	tr.Reset(7)
	if n, due := tr.Due(7, 0); n != 1 || due || tr.Last() != 0 {
		t.Fatalf("after Reset(7): Due(7) = %d %v, last %d", n, due, tr.Last())
	}
}
