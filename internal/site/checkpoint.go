package site

import "context"

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
	s.rotateFence()
	if records, moved := s.ckpt.Advance(begin, end); moved {
		s.stats.WALRecords.Set(int64(records))
	}
	return nil
}

// maybeCheckpoint evaluates the trigger (wal.Trigger) after every record
// that ends a subtransaction's part in the protocol: a logged decision, a
// read-only exit's commit and a NO vote's roll-back. lsn is that record's
// (0, when its append failed, evaluates nothing). A checkpoint writes at
// least one record per live key, so the store's size stands in for the
// last checkpoint's when larger: before the first checkpoint, after a
// restart, and when the store has grown. A due checkpoint runs in the
// background, off the reply, scoped to the current up period.
func (s *Site) maybeCheckpoint(lsn uint64) {
	if lsn == 0 {
		return
	}
	s.mu.Lock()
	down := s.crashed || s.recovering
	ep := s.epoch
	s.mu.Unlock()
	if down {
		return
	}
	records, due := s.ckpt.Due(lsn, uint64(s.mgr.Store().Len()))
	if records > 0 {
		s.stats.WALRecords.Set(int64(records))
	}
	if !due {
		return
	}
	s.clock.Go(func() {
		// A failed checkpoint leaves the log as it was; the next decision
		// triggers another attempt.
		//o2pcvet:ignore errflow -- see above: the log is unchanged and the next decision retries
		_ = s.Checkpoint(ep)
		s.ckpt.Finish()
	})
}
