package wal

import (
	"bufio"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"o2pc/internal/storage"
)

// FileLog is a file-backed Log for the multi-process deployment. Records are
// buffered and flushed on Sync.
type FileLog struct {
	mu      sync.Mutex
	path    string
	f       *os.File
	w       *bufio.Writer
	nextLSN uint64
	// synced is the last LSN on stable storage. Synced reads it without
	// mu; a Sync drops mu across its fsync, so appends go on meanwhile.
	synced atomic.Uint64
	// failed is the first fsync error. The kernel may have dropped the
	// pages it could not write, so a later fsync that succeeds vouches for
	// nothing written before it: every later Sync and Checkpoint returns
	// this error, and synced stays where it was.
	failed error
	closed bool
}

// OpenFileLog opens (or creates) the log at path, scanning existing records
// to determine the next LSN. A torn final record (a crash mid-write) is
// truncated away, so new records follow the last complete one instead of
// landing behind bytes that would make the log unreadable.
func OpenFileLog(path string) (*FileLog, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	recs, end, err := readAll(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	next := uint64(1)
	if n := len(recs); n > 0 {
		next = recs[n-1].LSN + 1
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err == nil && size > end {
		if err = f.Truncate(end); err == nil {
			_, err = f.Seek(end, io.SeekStart)
		}
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	l := &FileLog{path: path, f: f, w: bufio.NewWriter(f), nextLSN: next}
	l.synced.Store(next - 1)
	return l, nil
}

// Append implements Log.
func (l *FileLog) Append(rec Record) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	rec.LSN = l.nextLSN
	l.nextLSN++
	if err := WriteRecord(l.w, rec); err != nil {
		return 0, err
	}
	return rec.LSN, nil
}

// Records implements Log by re-reading the file from the start.
func (l *FileLog) Records() ([]Record, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, ErrClosed
	}
	return l.records()
}

// records flushes the buffer and re-reads the file. Callers hold mu.
func (l *FileLog) records() ([]Record, error) {
	if err := l.w.Flush(); err != nil {
		return nil, err
	}
	if _, err := l.f.Seek(0, 0); err != nil {
		return nil, err
	}
	recs, err := ReadAll(l.f)
	if err != nil {
		return nil, err
	}
	if _, err := l.f.Seek(0, 2); err != nil {
		return nil, err
	}
	return recs, nil
}

// Sync implements Log, flushing buffers and calling fsync. The fsync runs
// outside mu, so appends continue while it waits on the disk: it covers the
// records written to the file before it started, and Synced advances to
// the last of those. Once an fsync has failed, Sync returns that error for
// good (see failed).
func (l *FileLog) Sync() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if l.failed != nil {
		l.mu.Unlock()
		return l.failed
	}
	if err := l.w.Flush(); err != nil {
		l.mu.Unlock()
		return err
	}
	target, f := l.nextLSN-1, l.f
	l.mu.Unlock()
	if l.synced.Load() >= target {
		return nil
	}
	return l.finishSync(target, f.Sync())
}

// finishSync settles an fsync, which returned err, of the records through
// target. An fsync that succeeded does not vouch for them if another one
// failed meanwhile: the kernel reports a write-back error to one fsync
// only, so this one may have found the dropped pages already forgotten.
func (l *FileLog) finishSync(target uint64, err error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.synced.Load() >= target {
		// A checkpoint, durable itself, may have replaced and closed f.
		return nil
	}
	if err != nil && l.failed == nil {
		l.failed = err
	}
	if l.failed != nil {
		return l.failed
	}
	l.synced.Store(target)
	return nil
}

// Synced implements Log.
func (l *FileLog) Synced() uint64 { return l.synced.Load() }

// Close implements Log.
func (l *FileLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if err := l.w.Flush(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}

// ckptSuffix names the temporary file a checkpoint is written to before it
// replaces the log.
const ckptSuffix = ".ckpt"

// Checkpoint implements Log by rewriting the file: the checkpoint goes to
// path+".ckpt", which is fsynced and renamed over the log; the directory is
// fsynced so the rename survives a crash, and the log continues on the new
// file. A crash before the rename leaves the old log in place (the
// temporary file is ignored and overwritten by the next checkpoint); a
// crash after it finds the checkpoint.
func (l *FileLog) Checkpoint(store *storage.Store) (begin, end uint64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, 0, ErrClosed
	}
	if l.failed != nil {
		return 0, 0, l.failed
	}
	records, err := l.records()
	if err != nil {
		return 0, 0, err
	}
	ckpt := bracket(records, store, l.nextLSN)
	tmp := l.path + ckptSuffix
	f, err := writeCheckpointFile(tmp, ckpt)
	if err != nil {
		return 0, 0, err
	}
	if err := os.Rename(tmp, l.path); err != nil {
		return 0, 0, errors.Join(err, f.Close(), os.Remove(tmp))
	}
	// The rename happened: from here on the file at path is the new log, so
	// the handle is swapped even if the directory sync fails.
	old := l.f
	l.f, l.w = f, bufio.NewWriter(f)
	l.nextLSN += uint64(len(ckpt))
	dirErr := syncDir(filepath.Dir(l.path))
	if dirErr == nil {
		// The checkpoint, on stable storage, stands for every record before it.
		l.synced.Store(l.nextLSN - 1)
	}
	err = errors.Join(dirErr, old.Close())
	return ckpt[0].LSN, ckpt[len(ckpt)-1].LSN, err
}

// writeCheckpointFile writes records to a fresh file at path and fsyncs it,
// returning the file positioned at its end.
func writeCheckpointFile(path string, records []Record) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriter(f)
	for _, rec := range records {
		if err = WriteRecord(w, rec); err != nil {
			break
		}
	}
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if err != nil {
		return nil, errors.Join(err, f.Close(), os.Remove(path))
	}
	return f, nil
}

// syncDir fsyncs a directory, making a rename inside it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	return errors.Join(d.Sync(), d.Close())
}
