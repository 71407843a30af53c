package rpc

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"o2pc/internal/proto"
)

func startEchoServer(t *testing.T) (net.Addr, *Server) {
	t.Helper()
	srv := NewServer("b", func(ctx context.Context, from string, m any) (any, error) {
		if v, ok := m.(proto.VoteRequest); ok {
			return proto.VoteReply{Commit: true, Reason: v.TxnID + " from " + from}, nil
		}
		return m, nil
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr(), srv
}

// TestTCPProtoRoundTrip pins that protocol messages cross the wire via the
// binary codec and come back as the same value types the in-process
// Network delivers.
func TestTCPProtoRoundTrip(t *testing.T) {
	addr, _ := startEchoServer(t)
	client := NewTCPClient(map[string]string{"b": addr.String()})
	defer client.Close()
	raw, err := client.Call(context.Background(), "a", "b", proto.VoteRequest{TxnID: "T9"})
	if err != nil {
		t.Fatalf("call: %v", err)
	}
	reply, ok := raw.(proto.VoteReply)
	if !ok || !reply.Commit || reply.Reason != "T9 from a" {
		t.Fatalf("reply = %#v", raw)
	}
	// A request with every container shape survives the round trip.
	req := proto.ExecRequest{TxnID: "T10", Ops: []proto.Operation{proto.AddMin("acct", -40, 0)},
		Comp: proto.CompSemantic, Protocol: proto.O2PC, Marking: proto.MarkP1,
		TransMarks: []string{"T1", "T2"}, Visited: true, Round: 3}
	raw, err = client.Call(context.Background(), "a", "b", req)
	if err != nil {
		t.Fatalf("exec echo: %v", err)
	}
	got := raw.(proto.ExecRequest)
	if got.TxnID != "T10" || len(got.Ops) != 1 || !got.Ops[0].HasMin || got.TransMarks[1] != "T2" || got.Round != 3 {
		t.Fatalf("exec echo = %#v", got)
	}
}

// TestTCPServerTornFrame pins transport robustness: a connection killed
// mid-envelope must neither wedge the server nor poison other
// connections — a fresh call right after the torn one succeeds.
func TestTCPServerTornFrame(t *testing.T) {
	addr, _ := startEchoServer(t)

	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	// A valid header announcing 64 payload bytes, then only 5 of them, then
	// the kill: the server sees a torn frame.
	frame, err := appendRequestFrame(nil, "a", proto.VoteRequest{TxnID: "TTORN-padding-so-the-frame-is-long"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frame[:frameHdrSize+5]); err != nil {
		t.Fatalf("partial write: %v", err)
	}
	conn.Close()

	client := NewTCPClient(map[string]string{"b": addr.String()})
	defer client.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := client.Call(ctx, "a", "b", proto.VoteRequest{TxnID: "T1"}); err != nil {
		t.Fatalf("call after torn frame: %v", err)
	}
}

// TestTCPServerDecodeErrorReply pins the typed decode error: garbage that
// fails the magic check is answered with a decode-error frame naming the
// problem — not a silent connection drop — and then the conn is closed
// (the stream cannot be resynchronized).
func TestTCPServerDecodeErrorReply(t *testing.T) {
	addr, _ := startEchoServer(t)
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET / HTTP/1.1\r\n\r\n")); err != nil {
		t.Fatalf("write: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	kind, payload, err := readFrame(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("expected a decode-error frame, got read error %v", err)
	}
	if kind != frameDecodeErr {
		t.Fatalf("frame kind = %d, want decode-error", kind)
	}
	if !strings.Contains(string(payload), "magic") {
		t.Fatalf("decode-error payload %q does not name the bad magic", payload)
	}
	// The server closes after the notice.
	if _, err := io.ReadAll(conn); err != nil && !errors.Is(err, io.EOF) {
		t.Fatalf("post-notice read: %v", err)
	}
}

// TestTCPVersionMismatch pins the negotiation byte both ways: a server
// seeing a future version refuses with ErrWireVersion detail, and a client
// whose peer answers with a different version surfaces a typed error
// rather than misparsing the stream.
func TestTCPVersionMismatch(t *testing.T) {
	addr, _ := startEchoServer(t)

	// Old/new client against this server: stamp version+1 on a frame.
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	frame, err := appendRequestFrame(nil, "a", proto.VoteRequest{TxnID: "T1"})
	if err != nil {
		t.Fatal(err)
	}
	frame[2] = proto.WireVersion + 1
	if _, err := conn.Write(frame); err != nil {
		t.Fatalf("write: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	kind, payload, err := readFrame(bufio.NewReader(conn), nil)
	if err != nil || kind != frameDecodeErr {
		t.Fatalf("version mismatch answer: kind=%d payload=%q err=%v", kind, payload, err)
	}
	if !strings.Contains(string(payload), "version") {
		t.Fatalf("decode-error payload %q does not name the version", payload)
	}

	// Client against a peer speaking another version: the fake server
	// echoes a reply frame stamped version+1.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		if _, _, err := readFrame(bufio.NewReader(c), nil); err != nil {
			return
		}
		reply, _ := appendReplyFrame(nil, "", proto.Ack{TxnID: "T1"})
		reply[2] = proto.WireVersion + 1
		//o2pcvet:ignore errflow -- test fake peer; the client-side assertion below is the check
		_, _ = c.Write(reply)
	}()
	client := NewTCPClient(map[string]string{"b": ln.Addr().String()})
	defer client.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err = client.Call(ctx, "a", "b", proto.VoteRequest{TxnID: "T1"})
	if !errors.Is(err, ErrWireVersion) {
		t.Fatalf("err = %v, want ErrWireVersion", err)
	}
}

// TestWireVersion1FrameRefused pins the bump that added the exec+vote
// fields: a frame stamped with version 1 — whose ExecRequest and ExecReply
// lack the vote — is refused with ErrWireVersion rather than decoded.
func TestWireVersion1FrameRefused(t *testing.T) {
	for _, msg := range []any{proto.ExecRequest{TxnID: "T1"}, proto.ExecReply{OK: true}} {
		frame, err := appendRequestFrame(nil, "a", msg)
		if err != nil {
			t.Fatal(err)
		}
		frame[2] = 1
		if _, _, err := readFrame(bufio.NewReader(bytes.NewReader(frame)), nil); !errors.Is(err, ErrWireVersion) {
			t.Errorf("%T in a version-1 frame: err = %v, want ErrWireVersion", msg, err)
		}
	}
}

// TestTCPNonVocabularyBodyFailsAtSender pins the loud failure that replaced
// the gob fallback: a body outside the protocol vocabulary is refused by
// the caller with proto.ErrUnknownWireType, and not one byte of it reaches
// the connection.
func TestTCPNonVocabularyBodyFailsAtSender(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	received := make(chan []byte, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			received <- nil
			return
		}
		defer c.Close()
		b, _ := io.ReadAll(c) // ends when the client closes; the byte count is the check
		received <- b
	}()

	client := NewTCPClient(map[string]string{"b": ln.Addr().String()})
	_, err = client.Call(context.Background(), "a", "b", struct{ X int }{1})
	if !errors.Is(err, proto.ErrUnknownWireType) {
		t.Fatalf("err = %v, want proto.ErrUnknownWireType", err)
	}
	client.Close()
	ln.Close() // unblocks Accept should the client never have dialled
	select {
	case b := <-received:
		if len(b) != 0 {
			t.Fatalf("%d bytes reached the connection: % x", len(b), b)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server side never saw the connection close")
	}
}

// TestGobBodyKindIsDecodeError pins that body kind 2, which carried gob
// blobs before the fallback was removed, is now a decode error.
func TestGobBodyKindIsDecodeError(t *testing.T) {
	if _, err := decodeBody([]byte{2, 0x0e, 0xff}); !errors.Is(err, ErrDecode) {
		t.Fatalf("err = %v, want ErrDecode", err)
	}
}

// TestBatchHandlerOverTCP pins the pass-through benchmark/node.go relies
// on: a server whose handler is wrapped in BatchHandler answers exactly as
// the bare handler would.
func TestBatchHandlerOverTCP(t *testing.T) {
	srv := NewServer("s0", BatchHandler(func(ctx context.Context, from string, m any) (any, error) {
		return proto.Ack{TxnID: m.(proto.Decision).TxnID + "@" + from, Marked: true}, nil
	}, nil))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	stop := srv.Start(ln)
	defer func() {
		if err := stop(); err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	client := NewTCPClient(map[string]string{"s0": ln.Addr().String()})
	defer client.Close()
	raw, err := client.Call(context.Background(), "c0", "s0", proto.Decision{TxnID: "T1", Commit: true})
	if err != nil {
		t.Fatalf("call: %v", err)
	}
	if ack, ok := raw.(proto.Ack); !ok || ack.TxnID != "T1@c0" || !ack.Marked {
		t.Fatalf("reply = %#v", raw)
	}
}
