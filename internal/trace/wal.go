package trace

import (
	"o2pc/internal/storage"
	"o2pc/internal/wal"
)

// tracedLog decorates a wal.Log so that every append and sync emits a
// trace event — the stable-storage write-ahead points of the paper's
// Theorem 2 become visible on the timeline without the wal package
// knowing about tracing.
type tracedLog struct {
	wal.Log
	tr   *Tracer
	node string
}

// WrapLog returns a wal.Log that forwards to inner and emits EvWALAppend
// and EvWALSync events at node. A nil tracer or nil inner returns inner
// unchanged.
func WrapLog(inner wal.Log, tr *Tracer, node string) wal.Log {
	if tr == nil || inner == nil {
		return inner
	}
	return &tracedLog{Log: inner, tr: tr, node: node}
}

func (l *tracedLog) Append(rec wal.Record) (uint64, error) {
	lsn, err := l.Log.Append(rec)
	if err == nil {
		detail := rec.Type.String()
		if rec.Aux != "" {
			detail += " " + rec.Aux
		}
		l.tr.Emit(l.node, EvWALAppend, rec.TxnID, "", detail)
	}
	return lsn, err
}

func (l *tracedLog) Sync() error {
	err := l.Log.Sync()
	if err == nil {
		l.tr.Emit(l.node, EvWALSync, "", "", "")
	}
	return err
}

// Checkpoint reports a checkpoint as a forced write: it leaves the log
// durable, as a Sync does.
func (l *tracedLog) Checkpoint(store *storage.Store) (begin, end uint64, err error) {
	begin, end, err = l.Log.Checkpoint(store)
	if err == nil {
		l.tr.Emit(l.node, EvWALSync, "", "", "checkpoint")
	}
	return begin, end, err
}
