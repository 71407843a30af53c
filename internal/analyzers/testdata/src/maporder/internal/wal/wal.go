// Package wal is a miniature of the real internal/wal for the maporder
// fixture: Append and Checkpoint are determinism sinks.
package wal

type Record struct{ Key string }

type FileLog struct{}

func (l *FileLog) Append(rec Record) (uint64, error) { return 0, nil }

func (l *FileLog) Checkpoint(keys []string) error { return nil }
