// Package kinds declares a protocol-style enum for the exhaustive
// fixture, mirroring wal.RecordType.
package kinds

type RecordType int

const (
	RecBegin RecordType = iota + 1
	RecUpdate
	RecCommit
	RecAbort
)

// Width is a named integer with a single constant: not an enum, so
// switches over it are unconstrained.
type Width int

const DefaultWidth Width = 80

// SessionState mirrors coord.SessionState: the multi-shot session
// lifecycle enum.
type SessionState uint8

const (
	SessionActive SessionState = iota + 1
	SessionCommitted
	SessionAborted
)

// AcceptorState models a per-transaction consensus-instance state at a
// decision-log replica. Unlike the other enums it starts at iota, so the
// zero value is a real member.
type AcceptorState uint8

const (
	StateIdle AcceptorState = iota
	StateBegun
	StateAccepted
)
