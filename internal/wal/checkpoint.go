package wal

import (
	"errors"
	"os"
	"sort"

	"o2pc/internal/storage"
)

// Checkpointing: a sharp checkpoint captures the full live store in the
// log as a bracketed run of image records, letting recovery start from the
// last complete checkpoint instead of the log's beginning, and letting a
// file-backed log be compacted to (checkpoint + tail).
//
//	CHECKPOINT(aux="begin")
//	UPDATE(txn=ckptTxnID, After=image) ... one per live key
//	carried protocol records (CarryRecords) ...
//	CHECKPOINT(aux="end")
//
// A checkpoint must not truncate state the protocol still needs: an
// exposed-but-undecided subtransaction's before-images and exposure record
// are the only way a restarted site can resume the decision inquiry and
// compensate on ABORT, and the marking sets exist precisely to outlive the
// transactions that created them. WriteCheckpoint therefore carries those
// records forward inside the bracket (CarryRecords), and Recover replays
// them on top of the restored images.
//
// Callers must quiesce update activity for the duration of WriteCheckpoint
// (the site takes its lock manager's quiescence as given when invoked from
// a maintenance window); records appended after the "end" marker replay on
// top of the checkpoint as usual.

// ckptTxnID tags checkpoint image records.
const ckptTxnID = "__checkpoint__"

const (
	ckptBegin = "begin"
	ckptEnd   = "end"
)

// WriteCheckpoint appends a sharp checkpoint of store to log and returns
// the LSN of its "end" marker. Protocol records the tail may not truncate
// (CarryRecords) are re-appended inside the bracket.
func WriteCheckpoint(log Log, store *storage.Store) (uint64, error) {
	records, err := log.Records()
	if err != nil {
		return 0, err
	}
	carry := CarryRecords(records)
	if _, err := log.Append(Record{Type: RecCheckpoint, TxnID: ckptTxnID, Aux: ckptBegin}); err != nil {
		return 0, err
	}
	snap := store.Snapshot()
	// Stable order for reproducible logs.
	for _, key := range store.Keys() {
		rec := snap[key]
		img := Image{
			Key:     key,
			Value:   append(storage.Value(nil), rec.Value...),
			Existed: true,
			Writer:  rec.Writer,
		}
		if _, err := log.Append(Record{Type: RecUpdate, TxnID: ckptTxnID, After: img, Before: Image{Key: key}}); err != nil {
			return 0, err
		}
	}
	for _, rec := range carry {
		rec.LSN = 0 // Append reassigns
		if _, err := log.Append(rec); err != nil {
			return 0, err
		}
	}
	lsn, err := log.Append(Record{Type: RecCheckpoint, TxnID: ckptTxnID, Aux: ckptEnd})
	if err != nil {
		return 0, err
	}
	return lsn, log.Sync()
}

// CarryRecords computes the protocol records a checkpoint of records must
// carry forward because truncating them would lose recovery state:
//
//   - every record of a transaction that is still active (including a
//     compensating transaction interrupted between COMP-BEGIN and COMP-END),
//   - every record of a prepared transaction with no recorded decision
//     (in-doubt — its before-images are needed should the decision be ABORT),
//   - every record of an exposed subtransaction that is undecided, or whose
//     ABORT decision has not yet been fully compensated (the exposure payload
//     and before-images drive the resumed inquiry and the compensating
//     subtransaction),
//   - one RecMark record per currently-set mark, snapshotting the marking
//     sets (which outlive the transactions that created them).
//
// Records are returned in their original log order, marks last in sorted
// order, so carried state replays deterministically.
func CarryRecords(records []Record) []Record {
	replay := Replay(records)
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
			if _, decided := a.Decisions[txn]; !decided {
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
	for _, rec := range replay {
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
			out = append(out, rec)
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
	for i, rec := range records {
		if rec.Type != RecCheckpoint {
			continue
		}
		switch rec.Aux {
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

// Compact rewrites a file-backed log as (checkpoint of store + carried
// protocol records), atomically replacing the file at path. The log must be
// quiesced in the 2PC sense — no transaction mid-update — but exposed
// subtransactions, in-doubt preparations, and marking sets survive the
// rewrite via CarryRecords.
func Compact(path string, store *storage.Store) (*FileLog, error) {
	old, err := OpenFileLog(path)
	if err != nil {
		return nil, err
	}
	records, err := old.Records()
	if cerr := old.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	carry := CarryRecords(records)
	tmp := path + ".compact"
	nl, err := OpenFileLog(tmp)
	if err != nil {
		return nil, err
	}
	for _, rec := range carry {
		rec.LSN = 0
		if _, err := nl.Append(rec); err != nil {
			err = errors.Join(err, nl.Close())
			os.Remove(tmp)
			return nil, err
		}
	}
	if _, err := WriteCheckpoint(nl, store); err != nil {
		err = errors.Join(err, nl.Close())
		os.Remove(tmp)
		return nil, err
	}
	if err := nl.Close(); err != nil {
		os.Remove(tmp)
		return nil, err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return nil, err
	}
	return OpenFileLog(path)
}
