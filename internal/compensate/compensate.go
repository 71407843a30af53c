// Package compensate implements the compensating-transaction framework of
// the paper's Section 3.2.
//
// A compensating transaction CTi semantically undoes a forward transaction
// Ti whose updates have already been exposed, without cascading aborts of
// transactions that read from Ti. This package provides:
//
//   - inverse-plan derivation for the two decomposition models: the
//     restricted model (semantic inverses drawn from the operation
//     repertoire — an unconditional Add(-delta) undoes Add(delta) while
//     leaving interleaved updates intact) and the generic model
//     (before-image restoration run as a fresh transaction);
//   - a compensator registry for application-defined counter-tasks
//     (CompCustom);
//   - Run, the persistence-of-compensation executor: once compensation is
//     initiated it must complete, so Run retries through deadlocks and
//     transient failures indefinitely (bounded only by its context);
//   - optional write-set coverage enforcement, matching Theorem 2's
//     premise that CTi writes at least every data item Ti wrote.
//
// With respect to locking, compensating transactions are deliberately local
// transactions: they follow the site's strict 2PL and release their locks
// at local completion, independent of sibling compensating subtransactions
// at other sites (Section 4's first two bullets).
package compensate

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"o2pc/internal/history"
	"o2pc/internal/lock"
	"o2pc/internal/proto"
	"o2pc/internal/sim"
	"o2pc/internal/storage"
	"o2pc/internal/trace"
	"o2pc/internal/txn"
	"o2pc/internal/wal"
)

// Forward describes the forward subtransaction being compensated for, as
// the site observed it.
type Forward struct {
	// TxnID is the forward (global) transaction's node ID.
	TxnID string
	// Ops is the operation list the subtransaction executed.
	Ops []proto.Operation
	// Updates are the forward subtransaction's WAL update records (with
	// before-images) in issue order.
	Updates []wal.Record
}

// Func is an application-defined compensator. It runs inside the
// compensating transaction t and must be idempotent under retry (the
// persistence loop may re-execute it after a deadlock abort).
type Func func(ctx context.Context, t *txn.Txn, f Forward) error

// Registry maps compensator names to functions (the "well-defined
// repertoire" interface of the restricted model).
type Registry struct {
	mu sync.RWMutex
	m  map[string]Func
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{m: make(map[string]Func)} }

// Register installs a compensator under name, replacing any previous one.
func (r *Registry) Register(name string, fn Func) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.m[name] = fn
}

// Lookup returns the compensator registered under name.
func (r *Registry) Lookup(name string) (Func, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	fn, ok := r.m[name]
	return fn, ok
}

// SemanticPlan executes the restricted-model inverse of the forward
// operations, in reverse order: Add(delta) inverts to an unconditional
// Add(-delta); Write and Delete, having no semantic inverse in the
// repertoire, restore the forward before-image of the key; reads invert to
// nothing.
func SemanticPlan(ctx context.Context, t *txn.Txn, f Forward) error {
	// Index the first before-image per key for Write/Delete inversion.
	before := make(map[storage.Key]wal.Image)
	for _, u := range f.Updates {
		if _, ok := before[u.Before.Key]; !ok {
			before[u.Before.Key] = u.Before
		}
	}
	for i := len(f.Ops) - 1; i >= 0; i-- {
		op := f.Ops[i]
		switch op.Kind {
		case proto.OpRead:
			// nothing to undo
		case proto.OpAdd:
			cur, err := t.ReadInt64ForUpdate(ctx, storage.Key(op.Key))
			if err != nil {
				return err
			}
			if err := t.WriteInt64(ctx, storage.Key(op.Key), cur-op.Delta); err != nil {
				return err
			}
		case proto.OpWrite, proto.OpDelete:
			if err := restoreImage(ctx, t, storage.Key(op.Key), before); err != nil {
				return err
			}
		default:
			return fmt.Errorf("compensate: cannot invert operation %v", op.Kind)
		}
	}
	return nil
}

// BeforeImagePlan executes the generic-model compensation: restore every
// written key's before-image, in reverse update order, as ordinary writes
// of a new transaction (readers of the forward values are not cascaded).
func BeforeImagePlan(ctx context.Context, t *txn.Txn, f Forward) error {
	before := make(map[storage.Key]wal.Image)
	for _, u := range f.Updates {
		if _, ok := before[u.Before.Key]; !ok {
			before[u.Before.Key] = u.Before
		}
	}
	for i := len(f.Updates) - 1; i >= 0; i-- {
		key := f.Updates[i].Before.Key
		if err := restoreImage(ctx, t, key, before); err != nil {
			return err
		}
	}
	return nil
}

func restoreImage(ctx context.Context, t *txn.Txn, key storage.Key, before map[storage.Key]wal.Image) error {
	img, ok := before[key]
	if !ok {
		return nil
	}
	if !img.Existed || img.Deleted {
		return t.Delete(ctx, key)
	}
	return t.Write(ctx, key, img.Value)
}

// PlanFor resolves the compensation plan for a mode, consulting reg for
// CompCustom. CompNone yields an error: non-compensatable subtransactions
// must never reach compensation (their sites hold locks until the
// decision).
func PlanFor(mode proto.CompMode, compensator string, reg *Registry) (Func, error) {
	switch mode {
	case proto.CompSemantic:
		return SemanticPlan, nil
	case proto.CompBeforeImage:
		return BeforeImagePlan, nil
	case proto.CompCustom:
		if reg == nil {
			return nil, errors.New("compensate: no registry for custom compensator")
		}
		fn, ok := reg.Lookup(compensator)
		if !ok {
			return nil, fmt.Errorf("compensate: unknown compensator %q", compensator)
		}
		return fn, nil
	case proto.CompNone:
		return nil, errors.New("compensate: subtransaction is non-compensatable")
	default:
		return nil, fmt.Errorf("compensate: unknown mode %v", mode)
	}
}

// Options tunes Run.
type Options struct {
	// RetryBackoff is the initial delay between attempts after a conflict
	// abort; it doubles up to 32x. Defaults to 100 microseconds.
	RetryBackoff time.Duration
	// Finalize runs inside the compensating transaction after the plan
	// (and after coverage enforcement). Protocol P1 uses it to write the
	// sitemark as the last operation of CTik (rule R2).
	Finalize func(ctx context.Context, t *txn.Txn) error
	// Clock times the retry backoff. Nil defaults to the real clock.
	Clock sim.Clock
	// Tracer, when non-nil, records the compensation run (begin, each
	// retry, end) as events at TraceNode.
	Tracer *trace.Tracer
	// TraceNode is the node name events are attributed to (the site
	// running the compensation).
	TraceNode string
}

// CTID returns the conventional compensating-transaction node ID for a
// forward transaction ID.
func CTID(forward string) string { return "CT" + forward }

// Run executes compensation for forward at the given site kernel,
// honouring persistence of compensation: deadlock victims and transient
// failures are retried until ctx expires. The compensating transaction is
// recorded in the history under CTID(forward.TxnID) with kind
// KindCompensating. Its write set always covers the forward write set
// (Theorem 2's premise): see ensureCoverage.
func Run(ctx context.Context, mgr *txn.Manager, forward Forward, plan Func, opts Options) error {
	backoff := opts.RetryBackoff
	if backoff <= 0 {
		backoff = 100 * time.Microsecond
	}
	maxBackoff := backoff * 32
	clock := sim.OrReal(opts.Clock)
	ctID := CTID(forward.TxnID)
	opts.Tracer.Emit(opts.TraceNode, trace.EvCompBegin, forward.TxnID, "", ctID)

	for attempt := 0; ; attempt++ {
		err := runOnce(ctx, mgr, ctID, forward, plan, opts)
		if err == nil {
			if rec := mgr.Recorder(); rec != nil {
				rec.SetFate(ctID, history.FateCommitted)
			}
			opts.Tracer.Emit(opts.TraceNode, trace.EvCompEnd, forward.TxnID, "", ctID)
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if !retryable(err) {
			return fmt.Errorf("compensate: %s at %s failed permanently: %w", ctID, mgr.Site(), err)
		}
		opts.Tracer.Emit(opts.TraceNode, trace.EvCompRetry, forward.TxnID, "", err.Error())
		if err := clock.Sleep(ctx, backoff); err != nil {
			return err
		}
		if backoff < maxBackoff {
			backoff *= 2
		}
	}
}

func runOnce(ctx context.Context, mgr *txn.Manager, ctID string, forward Forward, plan Func, opts Options) error {
	t, err := mgr.Begin(ctID, history.KindCompensating, forward.TxnID)
	if err != nil {
		return err
	}
	// errors.Join keeps the primary failure first (errors.Is still
	// classifies it for the retry loop) while surfacing an abort that
	// could not release its locks instead of swallowing it.
	if err := plan(ctx, t, forward); err != nil {
		return errors.Join(err, t.Abort(""))
	}
	if err := ensureCoverage(ctx, t, forward); err != nil {
		return errors.Join(err, t.Abort(""))
	}
	if opts.Finalize != nil {
		if err := opts.Finalize(ctx, t); err != nil {
			return errors.Join(err, t.Abort(""))
		}
	}
	return t.Commit()
}

// ensureCoverage rewrites every forward-written key the compensating
// transaction has not written, with its current value, so that CTi's write
// set covers Ti's.
func ensureCoverage(ctx context.Context, t *txn.Txn, forward Forward) error {
	written := make(map[storage.Key]bool)
	for _, k := range t.WriteSet() {
		written[k] = true
	}
	for _, u := range forward.Updates {
		key := u.Before.Key
		if written[key] {
			continue
		}
		written[key] = true
		v, err := t.ReadForUpdate(ctx, key)
		if err != nil {
			if storage.IsNotFound(err) {
				if err := t.Delete(ctx, key); err != nil {
					return err
				}
				continue
			}
			return err
		}
		if err := t.Write(ctx, key, v); err != nil {
			return err
		}
	}
	return nil
}

// retryable classifies errors the persistence loop should absorb.
func retryable(err error) bool {
	return errors.Is(err, lock.ErrDeadlock) ||
		errors.Is(err, lock.ErrAborted) ||
		errors.Is(err, txn.ErrAlreadyExists)
}
