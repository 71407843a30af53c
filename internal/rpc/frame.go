package rpc

// The TCP transport's frame layer (DESIGN.md §15). Every message on a
// connection — request, reply, or decode-error notice — travels as one
// frame:
//
//	offset  size  field
//	0       2     magic 0x4F32 ("O2", big endian)
//	2       1     wire version (proto.WireVersion)
//	3       1     frame kind (request / reply / decode-error)
//	4       4     payload length (big endian)
//	8       n     payload
//
// The version byte is the negotiation: both sides stamp it on every frame
// and check it on every read, so a peer running an older or newer codec is
// refused loudly — the reader answers with a decode-error frame naming the
// mismatch (ErrWireVersion on the caller's side) instead of silently
// misparsing the stream. The same decode-error frame answers torn or
// corrupt payloads (ErrDecode), after which the connection is closed: a
// stream that lost framing cannot be resynchronized.
//
// Request payloads carry the sender name then the body; reply payloads an
// error string then the body. Bodies use the hand-rolled binary codec of
// the protocol vocabulary (proto.AppendMessage); anything else fails at the
// sender with proto.ErrUnknownWireType before a byte is written.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"o2pc/internal/proto"
)

const (
	frameMagic   = 0x4F32
	frameHdrSize = 8
	// maxFramePayload bounds a frame so a corrupt length prefix cannot
	// drive an arbitrary allocation.
	maxFramePayload = 64 << 20
)

// Frame kinds.
const (
	frameRequest byte = iota + 1
	frameReply
	frameDecodeErr
)

// Body kinds inside request/reply payloads. Kind 2 carried gob blobs in an
// earlier codec generation and now decodes as ErrDecode.
const (
	bodyNil byte = iota
	bodyProto
)

// Typed transport decode errors. Both are surfaced by TCPClient.Call (and
// sent back by Server as decode-error frames) so a peer mismatch is
// diagnosable instead of a silently dropped connection.
var (
	// ErrWireVersion reports a frame whose magic or version byte does not
	// match this codec generation — the other side of the negotiation.
	ErrWireVersion = errors.New("rpc: wire version mismatch")
	// ErrDecode reports a structurally invalid frame or payload (torn
	// write, corrupt length, undecodable body).
	ErrDecode = errors.New("rpc: frame decode error")
)

// appendFrameHeader stamps an 8-byte header for a payload of length n.
func appendFrameHeader(buf []byte, kind byte, n int) []byte {
	buf = binary.BigEndian.AppendUint16(buf, frameMagic)
	buf = append(buf, proto.WireVersion, kind)
	return binary.BigEndian.AppendUint32(buf, uint32(n))
}

// readFrame reads one frame, reusing buf when it is large enough. A magic
// or version mismatch returns ErrWireVersion; a malformed length returns
// ErrDecode; io errors (including a conn closed mid-frame) pass through.
func readFrame(r io.Reader, buf []byte) (kind byte, payload []byte, err error) {
	var hdr [frameHdrSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	if m := binary.BigEndian.Uint16(hdr[:2]); m != frameMagic {
		return 0, nil, fmt.Errorf("%w: bad magic %#04x (peer not speaking the o2pc binary protocol?)", ErrWireVersion, m)
	}
	if v := hdr[2]; v != proto.WireVersion {
		return 0, nil, fmt.Errorf("%w: have %d, peer sent %d", ErrWireVersion, proto.WireVersion, v)
	}
	kind = hdr[3]
	n := binary.BigEndian.Uint32(hdr[4:8])
	if n > maxFramePayload {
		return 0, nil, fmt.Errorf("%w: frame length %d exceeds limit", ErrDecode, n)
	}
	if int(n) <= cap(buf) {
		payload = buf[:n]
	} else {
		payload = make([]byte, n)
	}
	if _, err := io.ReadFull(r, payload); err != nil {
		// A conn killed mid-payload surfaces as a torn frame.
		return 0, nil, fmt.Errorf("%w: torn frame (%v)", ErrDecode, err)
	}
	return kind, payload, nil
}

// appendBody encodes a message body with the binary codec; a body outside
// the protocol vocabulary returns proto.ErrUnknownWireType.
func appendBody(buf []byte, body any) ([]byte, error) {
	if body == nil {
		return append(buf, bodyNil), nil
	}
	return proto.AppendMessage(append(buf, bodyProto), body)
}

// decodeBody is appendBody's inverse; data is the body-kind byte onward.
func decodeBody(data []byte) (any, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("%w: empty body", ErrDecode)
	}
	switch data[0] {
	case bodyNil:
		if len(data) != 1 {
			return nil, fmt.Errorf("%w: trailing bytes after nil body", ErrDecode)
		}
		return nil, nil
	case bodyProto:
		msg, err := proto.DecodeMessage(data[1:])
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrDecode, err)
		}
		return msg, nil
	default:
		return nil, fmt.Errorf("%w: unknown body kind %d", ErrDecode, data[0])
	}
}

// appendRequestFrame builds a complete request frame (header + payload).
func appendRequestFrame(buf []byte, from string, body any) ([]byte, error) {
	payload := binary.AppendUvarint(nil, uint64(len(from)))
	payload = append(payload, from...)
	payload, err := appendBody(payload, body)
	if err != nil {
		return nil, err
	}
	buf = appendFrameHeader(buf, frameRequest, len(payload))
	return append(buf, payload...), nil
}

// decodeRequestPayload splits a request payload into sender and body.
func decodeRequestPayload(data []byte) (from string, body any, err error) {
	n, sz := binary.Uvarint(data)
	if sz <= 0 || n > uint64(len(data)-sz) {
		return "", nil, fmt.Errorf("%w: bad sender length", ErrDecode)
	}
	from = string(data[sz : sz+int(n)])
	body, err = decodeBody(data[sz+int(n):])
	return from, body, err
}

// appendReplyFrame builds a complete reply frame (header + payload).
func appendReplyFrame(buf []byte, errText string, body any) ([]byte, error) {
	payload := binary.AppendUvarint(nil, uint64(len(errText)))
	payload = append(payload, errText...)
	payload, err := appendBody(payload, body)
	if err != nil {
		return nil, err
	}
	buf = appendFrameHeader(buf, frameReply, len(payload))
	return append(buf, payload...), nil
}

// decodeReplyPayload splits a reply payload into error text and body.
func decodeReplyPayload(data []byte) (errText string, body any, err error) {
	n, sz := binary.Uvarint(data)
	if sz <= 0 || n > uint64(len(data)-sz) {
		return "", nil, fmt.Errorf("%w: bad error length", ErrDecode)
	}
	errText = string(data[sz : sz+int(n)])
	body, err = decodeBody(data[sz+int(n):])
	return errText, body, err
}

// appendDecodeErrFrame builds the typed decode-error frame a server sends
// before closing a connection it can no longer parse.
func appendDecodeErrFrame(buf []byte, msg string) []byte {
	buf = appendFrameHeader(buf, frameDecodeErr, len(msg))
	return append(buf, msg...)
}
