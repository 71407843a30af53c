package wal

import (
	"bufio"
	"io"
	"os"
	"sync"
)

// FileLog is a file-backed Log for the multi-process deployment. Records are
// buffered and flushed on Sync.
type FileLog struct {
	mu      sync.Mutex
	f       *os.File
	w       *bufio.Writer
	nextLSN uint64
	closed  bool
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
	return &FileLog{f: f, w: bufio.NewWriter(f), nextLSN: next}, nil
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

// Sync implements Log, flushing buffers and calling fsync.
func (l *FileLog) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if err := l.w.Flush(); err != nil {
		return err
	}
	return l.f.Sync()
}

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
