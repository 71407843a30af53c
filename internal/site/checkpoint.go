package site

import (
	"context"
)

// The checkpoint trigger. A site checkpoints its WAL once the records
// appended since its last checkpoint exceed
// max(checkpointMinRecords, checkpointGrowth × the records that checkpoint
// wrote): the log then holds at most one checkpoint plus a tail that is a
// bounded multiple of it, and the checkpoint's cost (which grows with the
// store and the carried records) is spread over at least as many appends.
// A checkpoint writes at least one record per live key, so the store's
// size stands in for the last checkpoint's when it is larger: before the
// first checkpoint, after a restart, and when the store has grown.
const (
	checkpointMinRecords = 4096
	checkpointGrowth     = 4
)

// Checkpoint takes one WAL checkpoint now (see wal.Log.Checkpoint): the log
// is replaced by a snapshot of the store plus the records recovery still
// needs. Appends wait for it; protocol handlers do not otherwise notice.
// It fails with ErrCrashed while the site is down or recovering.
func (s *Site) Checkpoint(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	// Register as in flight, so Recover waits for a running checkpoint
	// instead of reading the log while it is being replaced.
	s.mu.Lock()
	if s.crashed || s.recovering {
		s.mu.Unlock()
		return ErrCrashed
	}
	s.inflight++
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.inflight--
		s.mu.Unlock()
	}()

	start := s.clock.Now()
	begin, end, err := s.mgr.Log().Checkpoint(s.mgr.Store())
	if err != nil {
		return err
	}
	s.stats.CheckpointDuration.ObserveDuration(s.clock.Since(start))
	s.stats.Checkpoints.Inc()
	// Concurrent checkpoints can finish out of order; the latest one's
	// bounds win.
	s.mu.Lock()
	if begin > s.logStart {
		s.logStart, s.ckptSize = begin, end-begin+1
		s.stats.WALRecords.Set(int64(s.ckptSize))
	}
	s.mu.Unlock()
	return nil
}

// maybeCheckpoint is the trigger, evaluated at every logged decision: lsn
// is the decision record's. A due checkpoint runs in the background, off
// the decision's ack, scoped to the current up period, one at a time.
func (s *Site) maybeCheckpoint(lsn uint64) {
	keys := uint64(s.mgr.Store().Len())
	s.mu.Lock()
	if lsn < s.logStart {
		// A checkpoint that finished after this append already covers it.
		s.mu.Unlock()
		return
	}
	size := lsn - s.logStart + 1
	due := !s.ckptBusy && !s.crashed && !s.recovering &&
		size-s.ckptSize > max(checkpointMinRecords, checkpointGrowth*max(s.ckptSize, keys))
	if due {
		s.ckptBusy = true
	}
	ep := s.epoch
	s.mu.Unlock()
	s.stats.WALRecords.Set(int64(size))
	if !due {
		return
	}
	s.clock.Go(func() {
		// A failed checkpoint leaves the log as it was; the next decision
		// triggers another attempt.
		//o2pcvet:ignore errflow -- see above: the log is unchanged and the next decision retries
		_ = s.Checkpoint(ep)
		s.mu.Lock()
		s.ckptBusy = false
		s.mu.Unlock()
	})
}
