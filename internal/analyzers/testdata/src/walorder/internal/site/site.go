// Package site is the walorder fixture's participant package: storage
// mutations here must be dominated by a wal append on every path.
package site

import (
	"walorder/internal/marking"
	"walorder/internal/storage"
	"walorder/internal/wal"
)

type Site struct {
	store *storage.Store
	log   wal.Log
	marks *marking.SiteMarks
	lm    *marking.LoggedMarks
}

// seedBypass is the SeedInt64 class of bug: an unlogged store write.
func (s *Site) seedBypass(k storage.Key, v storage.Value) {
	s.store.Put(k, v, "init") // want `storage\.Store\.Put is not dominated by a wal append`
}

// seedLogged appends first: clean.
func (s *Site) seedLogged(k storage.Key, v storage.Value) {
	_, _ = s.log.Append(wal.Record{TxnID: "init"})
	s.store.Put(k, v, "init")
}

// branchMiss appends on only one path: still a violation.
func (s *Site) branchMiss(k storage.Key, v storage.Value, ok bool) {
	if ok {
		_, _ = s.log.Append(wal.Record{})
	}
	s.store.Put(k, v, "x") // want `storage\.Store\.Put is not dominated by a wal append`
}

// branchBoth appends on every path: clean.
func (s *Site) branchBoth(k storage.Key, v storage.Value, ok bool) {
	if ok {
		_, _ = s.log.Append(wal.Record{})
	} else {
		_, _ = s.log.Append(wal.Record{})
	}
	s.store.Put(k, v, "x")
}

// earlyReturn appends on one path and returns on the other: the mutation
// is only reachable through the append, so it is clean.
func (s *Site) earlyReturn(k storage.Key, v storage.Value, ok bool) {
	if !ok {
		return
	}
	_, _ = s.log.Append(wal.Record{})
	s.store.Put(k, v, "x")
}

// replayHelpers mutate via WAL-driven replay: clean by construction.
func (s *Site) replayHelpers(recs []wal.Record) {
	wal.ApplyUndo(s.store, recs, "CT")
	s.store.Restore(storage.Record{}, "CT")
}

// recoverThenLoad mirrors Site.Recover: rebuild from the log, then
// install the snapshot.
func (s *Site) recoverThenLoad() error {
	fresh := storage.NewStore()
	if err := wal.Recover(fresh, s.log); err != nil {
		return err
	}
	s.store.LoadSnapshot(nil)
	return nil
}

// unloggedDelete exercises a second mutator method.
func (s *Site) unloggedDelete(k storage.Key) {
	s.store.Delete(k, "x") // want `storage\.Store\.Delete is not dominated by a wal append`
}

// groupCommitAppend appends through the group-commit decorator. The
// decorator lives in internal/wal and its Append passes straight through
// to the inner log, so it dominates the mutation like any wal append.
func (s *Site) groupCommitAppend(k storage.Key, v storage.Value, g *wal.GroupCommitLog) {
	_, _ = g.Append(wal.Record{})
	_ = g.Sync()
	s.store.Put(k, v, "x")
}

// groupCommitSyncAlone flushes the group-commit batch without appending
// anything: Sync is a durability wait, not a log write, so the mutation
// is still unlogged.
func (s *Site) groupCommitSyncAlone(k storage.Key, v storage.Value, g *wal.GroupCommitLog) {
	_ = g.Sync()
	s.store.Put(k, v, "x") // want `storage\.Store\.Put is not dominated by a wal append`
}

// rawMark mutates the raw marking set with no append: the mark exists
// only in memory and vanishes on crash recovery.
func (s *Site) rawMark(ti string) {
	s.marks.MarkUndone(ti) // want `marking\.SiteMarks\.MarkUndone is not dominated by a wal append`
}

// rawUnmark exercises the second mark mutator.
func (s *Site) rawUnmark(ti string) {
	s.marks.Unmark(ti) // want `marking\.SiteMarks\.Unmark is not dominated by a wal append`
}

// rawMarkLogged appends first, then mutates the raw set: clean, the
// replay path in Recover works exactly like this.
func (s *Site) rawMarkLogged(ti string) {
	_, _ = s.log.Append(wal.Record{TxnID: ti})
	s.marks.MarkUndone(ti)
}

// loggedMarks mutates through the decorator: its mutators append
// internally, so they are clean and dominate later store mutations too.
func (s *Site) loggedMarks(k storage.Key, v storage.Value, ti string) {
	_ = s.lm.MarkUndone(ti)
	s.store.Put(k, v, "x")
	_ = s.lm.Unmark(ti)
}

// markReadsAreFree reads never need the log.
func (s *Site) markReadsAreFree(ti string) bool {
	return s.marks.Contains(ti) || s.lm.Contains(ti)
}

// continueRoundLogged mirrors execContinue's write path for a multi-shot
// session round: the round's updates land only after the WAL append, so a
// crash between them replays cleanly.
func (s *Site) continueRoundLogged(k storage.Key, v storage.Value) {
	_, _ = s.log.Append(wal.Record{TxnID: "S1"})
	s.store.Put(k, v, "S1")
}

// continueRoundUnlogged applies a session round's write with no append:
// a crash mid-session would lose the round while the coordinator still
// counts the site as a participant.
func (s *Site) continueRoundUnlogged(k storage.Key, v storage.Value) {
	s.store.Put(k, v, "S1") // want `storage\.Store\.Put is not dominated by a wal append`
}

// batchApplyLogged mirrors the coalesced-envelope fan-out on the
// participant: each item in the batch logs before its write lands, so
// a crash mid-batch replays the logged prefix.
func (s *Site) batchApplyLogged(items []storage.Record) {
	for _, it := range items {
		_, _ = s.log.Append(wal.Record{})
		s.store.Restore(it, "batch")
	}
}

// batchApplyUnlogged applies a whole envelope with no appends: every
// item's write is invisible to recovery.
func (s *Site) batchApplyUnlogged(items []storage.Record) {
	for _, it := range items {
		s.store.Restore(it, "batch") // want `storage\.Store\.Restore is not dominated by a wal append`
	}
}

// batchHeaderLogOnly logs once for the envelope header but not per
// item — the append before the loop dominates every iteration, which
// is the analyzer's (sound for replay: the header record carries the
// batch) accepted shape.
func (s *Site) batchHeaderLogOnly(items []storage.Record) {
	_, _ = s.log.Append(wal.Record{TxnID: "batch"})
	for _, it := range items {
		s.store.Restore(it, "batch")
	}
}

// switchDefault appends in every clause, the default included, so every
// path to the mutation passes through an append: clean.
func (s *Site) switchDefault(k storage.Key, v storage.Value, n int) {
	switch n {
	case 0:
		_, _ = s.log.Append(wal.Record{TxnID: "zero"})
	default:
		_, _ = s.log.Append(wal.Record{TxnID: "other"})
	}
	s.store.Put(k, v, "x")
}

// switchDefaultMiss skips the append in its default clause.
func (s *Site) switchDefaultMiss(k storage.Key, v storage.Value, n int) {
	switch n {
	case 0:
		_, _ = s.log.Append(wal.Record{})
	default:
	}
	s.store.Put(k, v, "x") // want `storage\.Store\.Put is not dominated by a wal append`
}

// typeSwitch checks each clause from the state at the switch.
func (s *Site) typeSwitch(k storage.Key, x any) {
	switch r := x.(type) {
	case storage.Record:
		_, _ = s.log.Append(wal.Record{})
		s.store.Restore(r, "x")
	case storage.Value:
		s.store.Put(k, r, "x") // want `storage\.Store\.Put is not dominated by a wal append`
	}
}

// selectComm appends in the one clause that falls through; the other
// returns, so the mutation after the select is clean.
func (s *Site) selectComm(k storage.Key, v storage.Value, recs chan wal.Record, done chan struct{}) {
	select {
	case rec := <-recs:
		_, _ = s.log.Append(rec)
	case <-done:
		return
	}
	s.store.Put(k, v, "x")
}

// selectMiss has a clause that reaches the mutation without an append.
func (s *Site) selectMiss(k storage.Key, v storage.Value, recs chan wal.Record, done chan struct{}) {
	select {
	case rec := <-recs:
		_, _ = s.log.Append(rec)
	case <-done:
	}
	s.store.Put(k, v, "x") // want `storage\.Store\.Put is not dominated by a wal append`
}

// forPost walks a three-clause loop: the body starts from the state
// before the loop, and the append after the first loop dominates the
// second.
func (s *Site) forPost(items []storage.Record) {
	for i := 0; i < len(items); i++ {
		s.store.Restore(items[i], "x") // want `storage\.Store\.Restore is not dominated by a wal append`
	}
	_, _ = s.log.Append(wal.Record{})
	for i := 0; i < len(items); i++ {
		s.store.Restore(items[i], "x")
	}
}

// labeledBreak leaves both loops from the inner one. The append inside
// the loop does not dominate the mutation after it: the loop may run
// zero times.
func (s *Site) labeledBreak(k storage.Key, v storage.Value, items []storage.Record) {
outer:
	for _, it := range items {
		for {
			if it.Key == "" {
				break outer
			}
			_, _ = s.log.Append(wal.Record{})
			s.store.Restore(it, "x")
			break
		}
	}
	s.store.Put(k, v, "x") // want `storage\.Store\.Put is not dominated by a wal append`
}

// spawnedLiterals start from a fresh state: the goroutine may run
// without the append that precedes its spawn, while the deferred body
// appends for itself.
func (s *Site) spawnedLiterals(k storage.Key, v storage.Value) {
	_, _ = s.log.Append(wal.Record{})
	go func() {
		s.store.Put(k, v, "x") // want `storage\.Store\.Put is not dominated by a wal append`
	}()
	defer func() {
		_, _ = s.log.Append(wal.Record{})
		s.store.Delete(k, "x")
	}()
}

// nestedLiteral is a closure in an expression: it too starts fresh, since
// it can be called from anywhere.
func (s *Site) nestedLiteral(k storage.Key, v storage.Value) {
	_, _ = s.log.Append(wal.Record{})
	apply := func() {
		s.store.Put(k, v, "x") // want `storage\.Store\.Put is not dominated by a wal append`
	}
	apply()
}

// panicStops ends the unlogged path with a panic: clean.
func (s *Site) panicStops(k storage.Key, v storage.Value, ok bool) {
	if !ok {
		panic("unlogged")
	}
	_, _ = s.log.Append(wal.Record{})
	s.store.Put(k, v, "x")
}

// switchReturns returns in every case but has no default: a value that
// matches no case reaches the mutation unlogged.
func (s *Site) switchReturns(k storage.Key, v storage.Value, n int) {
	switch n {
	case 0:
		return
	case 1:
		return
	}
	s.store.Put(k, v, "x") // want `storage\.Store\.Put is not dominated by a wal append`
}

// switchAppends appends in every case but has no default, so the path
// that skips every case skips the append too.
func (s *Site) switchAppends(k storage.Key, v storage.Value, n int) {
	switch n {
	case 0:
		_, _ = s.log.Append(wal.Record{TxnID: "zero"})
	case 1:
		_, _ = s.log.Append(wal.Record{TxnID: "one"})
	}
	s.store.Put(k, v, "x") // want `storage\.Store\.Put is not dominated by a wal append`
}

// postMutates mutates in a for loop's post statement, which runs after
// every iteration and is checked like the body.
func (s *Site) postMutates(keys []storage.Key) {
	for i := 0; i < len(keys); s.store.Delete(keys[i], "x") { // want `storage\.Store\.Delete is not dominated by a wal append`
		i++
	}
}
