package wal

import (
	"sort"

	"o2pc/internal/storage"
)

// Checkpointing: a sharp checkpoint captures the full live store as a
// bracketed run of image records and replaces every record before it, so
// a log holds one checkpoint plus the records appended since:
//
//	CHECKPOINT(aux="begin")
//	UPDATE(txn=ckptTxnID, After=image) ... one per live key
//	carried protocol records (CarryRecords) ...
//	CHECKPOINT(aux="end")
//	tail ...
//
// A checkpoint must not drop state the protocol still needs: an active or
// prepared transaction's before-images, an exposed-but-undecided
// subtransaction's exposure record (the only way a restarted site can
// resume the decision inquiry and compensate on ABORT), the marking sets
// (which exist precisely to outlive the transactions that created them),
// and the decisions that fence stale subtransactions. CarryRecords
// re-appends those inside the bracket, and Recover replays them on top of
// the restored images.
//
// Log.Checkpoint runs under the log's own mutex, so no append interleaves
// with it: the records it reads, the store snapshot it takes and the
// bracket it writes describe one instant. The store may hold an installed
// after-image whose transaction has not committed (a writer appends its
// UPDATE before it installs it); such a transaction is active or prepared,
// so its UPDATE records are carried and recovery undoes them if no COMMIT
// follows.

// ckptTxnID tags checkpoint image records.
const ckptTxnID = "__checkpoint__"

const (
	ckptBegin = "begin"
	ckptEnd   = "end"
)

// bracket returns the checkpoint that replaces records: the begin marker,
// one image per live key of store in key order, the carried records and the
// end marker, numbered from LSN next.
func bracket(records []Record, store *storage.Store, next uint64) []Record {
	snap := store.Snapshot()
	keys := make([]storage.Key, 0, len(snap))
	for key := range snap {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

	carry := CarryRecords(records)
	out := make([]Record, 0, len(keys)+len(carry)+2)
	out = append(out, Record{Type: RecCheckpoint, TxnID: ckptTxnID, Aux: ckptBegin})
	for _, key := range keys {
		rec := snap[key]
		out = append(out, Record{Type: RecUpdate, TxnID: ckptTxnID, Before: Image{Key: key}, After: Image{
			Key:     key,
			Value:   rec.Value,
			Existed: true,
			Writer:  rec.Writer,
		}})
	}
	out = append(out, carry...)
	out = append(out, Record{Type: RecCheckpoint, TxnID: ckptTxnID, Aux: ckptEnd})
	for i := range out {
		out[i].LSN = next + uint64(i)
	}
	return out
}

// CarryRecords computes the protocol records a checkpoint of records must
// carry forward because dropping them would lose recovery state:
//
//   - every record of a transaction that is still active (including a
//     compensating transaction interrupted between COMP-BEGIN and COMP-END),
//   - every record of a prepared transaction with no recorded decision
//     (in-doubt — its before-images are needed should the decision be
//     ABORT) or with an ABORT decision whose roll-back has not logged its
//     ABORT record yet (the store may still hold its after-images),
//   - every record of an exposed subtransaction that is undecided, or whose
//     ABORT decision has not yet been fully compensated (the exposure payload
//     and before-images drive the resumed inquiry and the compensating
//     subtransaction; recovery does not redo its updates, see Recover),
//   - the stale-exec fence: the DECISION record of every other transaction
//     decided since the previous checkpoint, so a restarted site still
//     refuses a delayed subtransaction of a decided transaction for one
//     full checkpoint interval (decisions the previous checkpoint carried
//     as fence are dropped),
//   - one RecMark record per currently-set mark, snapshotting the marking
//     sets (which outlive the transactions that created them).
//
// Records are returned in their original log order, fence decisions after
// them and marks last in sorted order, so carried state replays
// deterministically.
func CarryRecords(records []Record) []Record {
	// The previous checkpoint's bracket and the tail after it, read in
	// place: the bracket's images and markers belong to no transaction the
	// loops below carry.
	begin, end, ok := lastCheckpoint(records)
	if !ok {
		begin, end = -1, -1
	}
	replay, tail := records[begin+1:], records[end+1:]
	a := Analyze(replay)

	carry := make(map[string]bool)
	for txn, st := range a.Status {
		if txn == ckptTxnID {
			continue
		}
		switch st {
		case StatusActive:
			carry[txn] = true
		case StatusPrepared:
			if commit, decided := a.Decisions[txn]; !decided || !commit {
				carry[txn] = true
			}
		case StatusCommitted, StatusAborted:
			// Resolved; the store snapshot reflects them.
		}
	}
	for txn := range a.Exposed {
		if a.Status[txn] != StatusCommitted {
			continue // exposure appended but the local commit failed; rolled back
		}
		commit, decided := a.Decisions[txn]
		switch {
		case !decided:
			carry[txn] = true // undecided: the blocking-free window Recover must rebuild
		case commit:
			// Decided and resolved.
		case !a.CompensationComplete(txn):
			carry[txn] = true
		}
	}

	var out []Record
	for i := range replay {
		rec := &replay[i]
		switch rec.Type {
		case RecMark, RecUnmark, RecCheckpoint:
			// Mark state is re-snapshotted below; stray bracket markers
			// never carry.
			continue
		case RecBegin, RecUpdate, RecCommit, RecAbort, RecPrepared,
			RecDecision, RecCompBegin, RecCompEnd, RecExposed,
			RecTerm, RecAccept:
		}
		if carry[rec.TxnID] {
			out = append(out, *rec)
		}
	}
	for i := range tail {
		if rec := &tail[i]; rec.Type == RecDecision && !carry[rec.TxnID] {
			out = append(out, *rec)
		}
	}

	var sets []string
	for set := range a.Marks {
		sets = append(sets, set)
	}
	sort.Strings(sets)
	for _, set := range sets {
		var txns []string
		for txn := range a.Marks[set] {
			txns = append(txns, txn)
		}
		sort.Strings(txns)
		for _, txn := range txns {
			out = append(out, Record{Type: RecMark, TxnID: txn, Aux: set})
		}
	}
	return out
}

// lastCheckpoint returns the index range (begin, end) of the last complete
// checkpoint in records, or ok=false when none exists.
func lastCheckpoint(records []Record) (begin, end int, ok bool) {
	begin, end = -1, -1
	for i := range records {
		if records[i].Type != RecCheckpoint {
			continue
		}
		switch records[i].Aux {
		case ckptBegin:
			begin = i
			end = -1
		case ckptEnd:
			if begin >= 0 {
				end = i
			}
		}
	}
	return begin, end, begin >= 0 && end > begin
}

// splitCheckpoint partitions records around the last complete checkpoint:
// images are the bracket's snapshot records, carried its other records
// (both nil when no checkpoint exists), and tail everything after it — the
// whole log when no checkpoint exists. Recovery runs redo/undo/analysis
// over carried followed by tail.
func splitCheckpoint(records []Record) (images, carried, tail []Record) {
	begin, end, ok := lastCheckpoint(records)
	if !ok {
		return nil, nil, records
	}
	for _, rec := range records[begin+1 : end] {
		if rec.Type == RecUpdate && rec.TxnID == ckptTxnID {
			images = append(images, rec)
		} else {
			carried = append(carried, rec)
		}
	}
	return images, carried, records[end+1:]
}
