// Package wal is a miniature of the real internal/wal for the walorder
// fixture.
package wal

import "walorder/internal/storage"

type Record struct {
	TxnID string
}

type Log interface {
	Append(rec Record) (uint64, error)
}

func ApplyUndo(store *storage.Store, recs []Record, by string) {}

func Recover(store *storage.Store, log Log) error { return nil }

// GroupCommitLog models a Log decorator: Append passes through to the
// inner log, Sync only batches the durability wait.
type GroupCommitLog struct {
	inner Log
}

func (g *GroupCommitLog) Append(rec Record) (uint64, error) { return g.inner.Append(rec) }

func (g *GroupCommitLog) Sync() error { return nil }
