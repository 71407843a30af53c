package proto

// The hand-rolled binary wire codec for the TCP transport (DESIGN.md §15).
//
// encoding/gob pays per-message reflection and type-descriptor traffic on
// every envelope; the protocol vocabulary is eight small fixed structs, so
// a positional codec — one type tag byte, then each field in declaration
// order as a varint or length-prefixed run of bytes — beats it by an order
// of magnitude and allocates nothing beyond the payload itself.
//
// Encoding rules (the whole spec):
//
//   - uint8 enums (Protocol, MarkProtocol, OpKind, CompMode) and bools are
//     one byte;
//   - int64 and int fields are zigzag varints (binary.AppendVarint);
//   - strings and []byte are a uvarint byte length followed by the bytes;
//   - slices and maps are a uvarint element count followed by the elements
//     (map entries in sorted key order, so encoding is deterministic);
//   - a nested struct (ExecReply.Vote) is its fields in place, untagged;
//   - zero-length slices, maps and []byte decode as nil — exactly what a
//     gob round trip produces (FuzzWireCodec checks the codec against
//     encoding/gob as a reference).
//
// The codec is versioned as a unit: WireVersion is carried in the frame
// header by the transport (rpc/tcp.go), not per message, and any change to
// a message layout must bump it. Decoding never trusts a length prefix
// beyond the remaining input, so a torn or hostile payload fails with an
// error instead of an over-allocation or panic.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
)

// WireVersion identifies this codec generation. The TCP transport sends it
// in every frame header and refuses mismatches loudly (rpc.ErrWireVersion),
// so an old peer and a new peer never half-understand each other.
// Version 2 added ExecRequest.Vote, ExecRequest.Last and ExecReply.Vote;
// version 3 added Decision.Sync, Ack.LSN, Ack.Synced and Ack.Boot;
// version 4 added ExecRequest.Incarnation, RepAccept.Sites and
// RepAccept.Marking and ScanRequest/ScanReply, dropped
// RepTxnState.Accepted and retired RepBegin's tag; version 5 added
// RepAccept.Forget.
const WireVersion = 5

// Wire type tags, one per message in the protocol vocabulary. Tag values
// are part of the wire format; append only.
const (
	wtExecRequest byte = iota + 1
	wtExecReply
	wtVoteRequest
	wtVoteReply
	wtDecision
	wtAck
	wtResolveRequest
	wtResolveReply
	_ // 9: reserved, carried batch envelopes in an earlier generation
	_ // 10: reserved, carried batch replies
	_ // 11: reserved, carried RepBegin
	wtRepAccept
	wtRepReply
	wtRepNewTerm
	wtRepNewTermReply
	wtScanRequest
	wtScanReply
)

// ErrUnknownWireType reports a message outside the protocol vocabulary on
// encode (the transport refuses to send it) or an unknown or reserved tag
// byte on decode.
var ErrUnknownWireType = errors.New("proto: message type outside the wire vocabulary")

// errTruncated reports input that ends mid-field.
var errTruncated = errors.New("proto: truncated wire message")

// AppendMessage appends the binary encoding of msg (a tag byte followed by
// the fields) to buf and returns the extended slice. Messages outside the
// protocol vocabulary return ErrUnknownWireType.
func AppendMessage(buf []byte, msg any) ([]byte, error) {
	switch m := msg.(type) {
	case ExecRequest:
		return appendExecRequest(buf, &m), nil
	case *ExecRequest:
		return appendExecRequest(buf, m), nil
	case ExecReply:
		return appendExecReply(buf, &m), nil
	case *ExecReply:
		return appendExecReply(buf, m), nil
	case VoteRequest:
		return appendString(append(buf, wtVoteRequest), m.TxnID), nil
	case *VoteRequest:
		return appendString(append(buf, wtVoteRequest), m.TxnID), nil
	case VoteReply:
		return appendVote(append(buf, wtVoteReply), &m), nil
	case *VoteReply:
		return appendVote(append(buf, wtVoteReply), m), nil
	case Decision:
		return appendDecision(buf, &m), nil
	case *Decision:
		return appendDecision(buf, m), nil
	case Ack:
		return appendAck(buf, &m), nil
	case *Ack:
		return appendAck(buf, m), nil
	case ResolveRequest:
		return appendString(append(buf, wtResolveRequest), m.TxnID), nil
	case *ResolveRequest:
		return appendString(append(buf, wtResolveRequest), m.TxnID), nil
	case ResolveReply:
		return appendBool(appendBool(append(buf, wtResolveReply), m.Known), m.Commit), nil
	case *ResolveReply:
		return appendBool(appendBool(append(buf, wtResolveReply), m.Known), m.Commit), nil
	case RepAccept:
		return appendRepAccept(buf, &m), nil
	case *RepAccept:
		return appendRepAccept(buf, m), nil
	case RepReply:
		return binary.AppendUvarint(appendBool(append(buf, wtRepReply), m.OK), m.Term), nil
	case *RepReply:
		return binary.AppendUvarint(appendBool(append(buf, wtRepReply), m.OK), m.Term), nil
	case RepNewTerm:
		return binary.AppendUvarint(appendString(append(buf, wtRepNewTerm), m.Group), m.Term), nil
	case *RepNewTerm:
		return binary.AppendUvarint(appendString(append(buf, wtRepNewTerm), m.Group), m.Term), nil
	case RepNewTermReply:
		return appendRepNewTermReply(buf, &m), nil
	case *RepNewTermReply:
		return appendRepNewTermReply(buf, m), nil
	case ScanRequest:
		return binary.AppendUvarint(append(buf, wtScanRequest), m.Incarnation), nil
	case *ScanRequest:
		return binary.AppendUvarint(append(buf, wtScanRequest), m.Incarnation), nil
	case ScanReply:
		return appendScanReply(buf, &m), nil
	case *ScanReply:
		return appendScanReply(buf, m), nil
	default:
		return nil, fmt.Errorf("%w: %T", ErrUnknownWireType, msg)
	}
}

// DecodeMessage decodes one message produced by AppendMessage. The whole
// input must be consumed: trailing bytes are a framing error.
func DecodeMessage(data []byte) (any, error) {
	r := &wireReader{b: data}
	msg, err := decodeAny(r)
	if err != nil {
		return nil, err
	}
	if r.off != len(data) {
		return nil, fmt.Errorf("proto: %d trailing bytes after wire message", len(data)-r.off)
	}
	return msg, nil
}

func appendExecRequest(buf []byte, m *ExecRequest) []byte {
	buf = append(buf, wtExecRequest)
	buf = appendString(buf, m.TxnID)
	buf = binary.AppendUvarint(buf, uint64(len(m.Ops)))
	for i := range m.Ops {
		op := &m.Ops[i]
		buf = append(buf, byte(op.Kind))
		buf = appendString(buf, op.Key)
		buf = appendBytes(buf, op.Value)
		buf = binary.AppendVarint(buf, op.Delta)
		buf = binary.AppendVarint(buf, op.Min)
		buf = appendBool(buf, op.HasMin)
	}
	buf = append(buf, byte(m.Comp))
	buf = appendString(buf, m.Compensator)
	buf = append(buf, byte(m.Protocol), byte(m.Marking))
	buf = appendStrings(buf, m.TransMarks)
	buf = appendBool(buf, m.Visited)
	buf = binary.AppendVarint(buf, int64(m.Round))
	buf = appendBool(buf, m.Vote)
	buf = appendBool(buf, m.Last)
	return binary.AppendUvarint(buf, m.Incarnation)
}

func decodeExecRequest(r *wireReader) ExecRequest {
	var m ExecRequest
	m.TxnID = r.str()
	if n := r.count(); n > 0 {
		m.Ops = make([]Operation, n)
		for i := range m.Ops {
			op := &m.Ops[i]
			op.Kind = OpKind(r.byte())
			op.Key = r.str()
			op.Value = r.bytes()
			op.Delta = r.varint()
			op.Min = r.varint()
			op.HasMin = r.bool()
		}
	}
	m.Comp = CompMode(r.byte())
	m.Compensator = r.str()
	m.Protocol = Protocol(r.byte())
	m.Marking = MarkProtocol(r.byte())
	m.TransMarks = r.strs()
	m.Visited = r.bool()
	m.Round = int(r.varint())
	m.Vote = r.bool()
	m.Last = r.bool()
	m.Incarnation = r.uvarint()
	return m
}

func appendExecReply(buf []byte, m *ExecReply) []byte {
	buf = append(buf, wtExecReply)
	buf = appendBool(buf, m.OK)
	buf = appendBool(buf, m.Rejected)
	buf = appendBool(buf, m.Fatal)
	buf = appendString(buf, m.Reason)
	buf = binary.AppendUvarint(buf, uint64(len(m.Reads)))
	if len(m.Reads) > 0 {
		keys := make([]string, 0, len(m.Reads))
		for k := range m.Reads {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			buf = appendString(buf, k)
			buf = appendBytes(buf, m.Reads[k])
		}
	}
	buf = appendStrings(buf, m.Marks)
	buf = appendWitnesses(buf, m.Witnesses)
	buf = appendString(buf, m.Err)
	return appendVote(buf, &m.Vote)
}

func decodeExecReply(r *wireReader) ExecReply {
	var m ExecReply
	m.OK = r.bool()
	m.Rejected = r.bool()
	m.Fatal = r.bool()
	m.Reason = r.str()
	if n := r.count(); n > 0 {
		m.Reads = make(map[string][]byte, n)
		for i := 0; i < n && r.err == nil; i++ {
			k := r.str()
			m.Reads[k] = r.bytes()
		}
	}
	m.Marks = r.strs()
	m.Witnesses = decodeWitnesses(r)
	m.Err = r.str()
	m.Vote = decodeVote(r)
	return m
}

// appendVote encodes a VoteReply's fields without a tag: the body of a
// VoteReply message, and the vote inside an ExecReply.
func appendVote(buf []byte, m *VoteReply) []byte {
	buf = appendBool(buf, m.Commit)
	buf = appendBool(buf, m.ReadOnly)
	buf = appendString(buf, m.Reason)
	return appendWitnesses(buf, m.Witnesses)
}

func decodeVote(r *wireReader) VoteReply {
	var m VoteReply
	m.Commit = r.bool()
	m.ReadOnly = r.bool()
	m.Reason = r.str()
	m.Witnesses = decodeWitnesses(r)
	return m
}

func appendAck(buf []byte, m *Ack) []byte {
	buf = appendBool(appendString(append(buf, wtAck), m.TxnID), m.Marked)
	return binary.AppendUvarint(binary.AppendUvarint(binary.AppendUvarint(buf, m.LSN), m.Synced), m.Boot)
}

func appendDecision(buf []byte, m *Decision) []byte {
	buf = append(buf, wtDecision)
	buf = appendString(buf, m.TxnID)
	buf = appendBool(buf, m.Commit)
	return binary.AppendUvarint(appendStrings(buf, m.Unmarks), m.Sync)
}

func appendRepAccept(buf []byte, m *RepAccept) []byte {
	buf = append(buf, wtRepAccept)
	buf = appendString(buf, m.Group)
	buf = binary.AppendUvarint(buf, m.Term)
	buf = appendString(buf, m.TxnID)
	buf = appendBool(buf, m.Commit)
	buf = appendStrings(buf, m.Sites)
	buf = append(buf, byte(m.Marking))
	return appendStrings(buf, m.Forget)
}

func appendScanReply(buf []byte, m *ScanReply) []byte {
	buf = append(buf, wtScanReply)
	buf = binary.AppendUvarint(buf, uint64(len(m.Txns)))
	for i := range m.Txns {
		st := &m.Txns[i]
		buf = appendString(buf, st.TxnID)
		buf = append(buf, byte(st.Marking))
		buf = binary.AppendUvarint(buf, st.Incarnation)
	}
	return binary.AppendUvarint(buf, m.Latest)
}

func decodeScanReply(r *wireReader) ScanReply {
	var m ScanReply
	if n := r.count(); n > 0 {
		m.Txns = make([]ScanTxn, n)
		for i := range m.Txns {
			st := &m.Txns[i]
			st.TxnID = r.str()
			st.Marking = MarkProtocol(r.byte())
			st.Incarnation = r.uvarint()
		}
	}
	m.Latest = r.uvarint()
	return m
}

func appendRepNewTermReply(buf []byte, m *RepNewTermReply) []byte {
	buf = append(buf, wtRepNewTermReply)
	buf = appendBool(buf, m.OK)
	buf = binary.AppendUvarint(buf, m.Term)
	buf = binary.AppendUvarint(buf, uint64(len(m.Txns)))
	for i := range m.Txns {
		ts := &m.Txns[i]
		buf = appendString(buf, ts.TxnID)
		buf = appendStrings(buf, ts.Sites)
		buf = append(buf, byte(ts.Marking))
		buf = binary.AppendUvarint(buf, ts.AccTerm)
		buf = appendBool(buf, ts.Commit)
	}
	return buf
}

func decodeRepNewTermReply(r *wireReader) RepNewTermReply {
	var m RepNewTermReply
	m.OK = r.bool()
	m.Term = r.uvarint()
	if n := r.count(); n > 0 {
		m.Txns = make([]RepTxnState, n)
		for i := range m.Txns {
			ts := &m.Txns[i]
			ts.TxnID = r.str()
			ts.Sites = r.strs()
			ts.Marking = MarkProtocol(r.byte())
			ts.AccTerm = r.uvarint()
			ts.Commit = r.bool()
		}
	}
	return m
}

func appendWitnesses(buf []byte, ws []WitnessDelta) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ws)))
	for i := range ws {
		buf = appendString(buf, ws[i].Forward)
		buf = appendString(buf, ws[i].Site)
	}
	return buf
}

func decodeWitnesses(r *wireReader) []WitnessDelta {
	n := r.count()
	if n == 0 {
		return nil
	}
	ws := make([]WitnessDelta, n)
	for i := range ws {
		ws[i].Forward = r.str()
		ws[i].Site = r.str()
	}
	return ws
}

// decodeAny reads one tagged message from r.
func decodeAny(r *wireReader) (any, error) {
	tag := r.byte()
	if r.err != nil {
		return nil, r.err
	}
	var msg any
	switch tag {
	case wtExecRequest:
		msg = decodeExecRequest(r)
	case wtExecReply:
		msg = decodeExecReply(r)
	case wtVoteRequest:
		msg = VoteRequest{TxnID: r.str()}
	case wtVoteReply:
		msg = decodeVote(r)
	case wtDecision:
		var m Decision
		m.TxnID = r.str()
		m.Commit = r.bool()
		m.Unmarks = r.strs()
		m.Sync = r.uvarint()
		msg = m
	case wtAck:
		msg = Ack{TxnID: r.str(), Marked: r.bool(), LSN: r.uvarint(), Synced: r.uvarint(), Boot: r.uvarint()}
	case wtResolveRequest:
		msg = ResolveRequest{TxnID: r.str()}
	case wtResolveReply:
		msg = ResolveReply{Known: r.bool(), Commit: r.bool()}
	case wtRepAccept:
		var m RepAccept
		m.Group = r.str()
		m.Term = r.uvarint()
		m.TxnID = r.str()
		m.Commit = r.bool()
		m.Sites = r.strs()
		m.Marking = MarkProtocol(r.byte())
		m.Forget = r.strs()
		msg = m
	case wtRepReply:
		msg = RepReply{OK: r.bool(), Term: r.uvarint()}
	case wtRepNewTerm:
		msg = RepNewTerm{Group: r.str(), Term: r.uvarint()}
	case wtRepNewTermReply:
		msg = decodeRepNewTermReply(r)
	case wtScanRequest:
		msg = ScanRequest{Incarnation: r.uvarint()}
	case wtScanReply:
		msg = decodeScanReply(r)
	default:
		return nil, fmt.Errorf("%w: tag %d", ErrUnknownWireType, tag)
	}
	if r.err != nil {
		return nil, r.err
	}
	return msg, nil
}

// ---- primitive encoders ----

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendBytes(buf, p []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(p)))
	return append(buf, p...)
}

func appendBool(buf []byte, v bool) []byte {
	if v {
		return append(buf, 1)
	}
	return append(buf, 0)
}

func appendStrings(buf []byte, ss []string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ss)))
	for _, s := range ss {
		buf = appendString(buf, s)
	}
	return buf
}

// wireReader is a sticky-error positional decoder: the first malformed
// field poisons it and every later read returns a zero value, so decoders
// stay straight-line and check r.err once.
type wireReader struct {
	b   []byte
	off int
	err error
}

func (r *wireReader) fail() {
	if r.err == nil {
		r.err = errTruncated
	}
}

func (r *wireReader) byte() byte {
	if r.err != nil || r.off >= len(r.b) {
		r.fail()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *wireReader) bool() bool { return r.byte() != 0 }

func (r *wireReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

func (r *wireReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

// count reads a length prefix, bounding it by the bytes actually left so a
// hostile prefix cannot drive a huge allocation.
func (r *wireReader) count() int {
	v := r.uvarint()
	if r.err != nil {
		return 0
	}
	if v > uint64(len(r.b)-r.off) {
		r.fail()
		return 0
	}
	return int(v)
}

func (r *wireReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n > len(r.b)-r.off {
		r.fail()
		return nil
	}
	p := r.b[r.off : r.off+n]
	r.off += n
	return p
}

func (r *wireReader) str() string {
	n := r.count()
	if n == 0 {
		return ""
	}
	return string(r.take(n))
}

// bytes reads a length-prefixed []byte; zero length decodes as nil (the
// gob-equivalence rule). The bytes are copied out of the input buffer so
// decoded messages never alias a reused read buffer.
func (r *wireReader) bytes() []byte {
	n := r.count()
	if n == 0 {
		return nil
	}
	p := r.take(n)
	if p == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, p)
	return out
}

func (r *wireReader) strs() []string {
	n := r.count()
	if n == 0 {
		return nil
	}
	out := make([]string, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, r.str())
	}
	if r.err != nil {
		return nil
	}
	return out
}
