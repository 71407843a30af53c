package rpc

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// The TCP transport frames each RPC as a binary frame pair (frame.go) on a
// fresh or pooled connection. It exists for the cmd/ multi-process
// deployment; simulations use Network.

// Server serves a node's handler over TCP.
type Server struct {
	node    string
	handler Handler
	ln      net.Listener

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]bool
}

// NewServer returns a server for node backed by handler; call Serve to
// accept connections.
func NewServer(node string, handler Handler) *Server {
	return &Server{node: node, handler: handler, conns: make(map[net.Conn]bool)}
}

// Serve accepts connections on ln until Close, then returns nil; any other
// accept failure is returned. Each connection carries a sequential stream
// of RPCs.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed { // Close won the race with Serve's start
		s.mu.Unlock()
		ln.Close()
		return nil
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			if err == nil {
				conn.Close() // accepted after Close swept the live conns
			}
			return nil
		}
		if err != nil {
			s.mu.Unlock()
			return err
		}
		s.conns[conn] = true
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// Start runs Serve on ln in the background. The returned stop closes the
// server, waits for Serve to return, and reports its error (nil after a
// clean close), so no accept loop outlives the caller.
func (s *Server) Start(ln net.Listener) (stop func() error) {
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()
	return func() error {
		cerr := s.Close()
		if err := <-done; err != nil {
			return err
		}
		return cerr
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	var inBuf, outBuf []byte
	for {
		kind, payload, err := readFrame(br, inBuf)
		if err != nil {
			// A version mismatch or corrupt frame gets a typed decode-error
			// frame before the close, so the peer learns why instead of
			// seeing a silent hangup; a plain EOF/conn error gets nothing
			// (there is no one left to tell).
			if errors.Is(err, ErrWireVersion) || errors.Is(err, ErrDecode) {
				s.replyDecodeErr(bw, err)
			}
			return
		}
		inBuf = payload[:0]
		if kind != frameRequest {
			s.replyDecodeErr(bw, fmt.Errorf("%w: unexpected frame kind %d", ErrDecode, kind))
			return
		}
		from, body, err := decodeRequestPayload(payload)
		if err != nil {
			s.replyDecodeErr(bw, err)
			return
		}
		resp, err := s.handler(context.Background(), from, body)
		errText := ""
		if err != nil {
			errText = err.Error()
		}
		out, err := appendReplyFrame(outBuf[:0], errText, resp)
		if err != nil {
			// The handler produced a reply the codec cannot ship; report it
			// as a remote error rather than killing the stream.
			//o2pcvet:ignore errflow -- a nil-body error frame always encodes; the error path cannot recurse
			out, _ = appendReplyFrame(outBuf[:0], "rpc: unencodable reply: "+err.Error(), nil)
		}
		outBuf = out[:0]
		if _, err := bw.Write(out); err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

// replyDecodeErr best-effort sends the typed decode-error frame; the
// caller closes the connection either way (the stream lost framing).
func (s *Server) replyDecodeErr(bw *bufio.Writer, err error) {
	//o2pcvet:ignore errflow -- best-effort courtesy frame on an already-broken conn; the close follows regardless
	_, _ = bw.Write(appendDecodeErrFrame(nil, err.Error()))
	//o2pcvet:ignore errflow -- see above
	_ = bw.Flush()
}

// Close stops the server and closes active connections.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	for conn := range s.conns {
		conn.Close()
	}
	return err
}

// TCPClient is a Caller that maps node names to TCP addresses.
//
// Each in-flight call owns a whole connection, drawn from a per-peer idle
// pool (up to maxIdlePerPeer kept warm) and dialled fresh beyond that. A
// single shared connection would serialize every call to a peer behind the
// slowest one — with the server handling each connection's requests
// sequentially, one subtransaction blocked in a lock wait at a site would
// stall the lock holder's own vote and decision traffic to that site on
// the client side, turning every lock conflict into a timeout convoy.
type TCPClient struct {
	mu    sync.Mutex
	addrs map[string]string
	idle  map[string][]*tcpConn
	open  map[*tcpConn]bool // every live conn, pooled or checked out
}

// maxIdlePerPeer bounds the warm connections kept per peer; calls beyond
// the bound dial and close ephemeral connections instead of growing the
// pool.
const maxIdlePerPeer = 16

type tcpConn struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	// buf is the conn's scratch encode/read buffer; the conn is owned by
	// one call at a time, so reuse is race-free.
	buf []byte
}

// NewTCPClient returns a client over the given node -> "host:port" map.
func NewTCPClient(addrs map[string]string) *TCPClient {
	cp := make(map[string]string, len(addrs))
	for k, v := range addrs {
		cp[k] = v
	}
	return &TCPClient{addrs: cp, idle: make(map[string][]*tcpConn), open: make(map[*tcpConn]bool)}
}

// checkout returns a connection to "to" for this call's exclusive use:
// the most recently parked idle one, else a fresh dial.
func (c *TCPClient) checkout(to string) (*tcpConn, error) {
	c.mu.Lock()
	if pool := c.idle[to]; len(pool) > 0 {
		tc := pool[len(pool)-1]
		c.idle[to] = pool[:len(pool)-1]
		c.mu.Unlock()
		return tc, nil
	}
	addr, ok := c.addrs[to]
	c.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownNode, to)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("%w: %s (%v)", ErrUnreachable, to, err)
	}
	tc := &tcpConn{conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}
	c.mu.Lock()
	if c.open == nil { // Closed while dialling: refuse to leak the conn
		c.mu.Unlock()
		conn.Close()
		return nil, fmt.Errorf("%w: %s (client closed)", ErrUnreachable, to)
	}
	c.open[tc] = true
	c.mu.Unlock()
	return tc, nil
}

// checkin parks a healthy connection back in to's idle pool, or closes it
// when the pool is full or the client is closed.
func (c *TCPClient) checkin(to string, tc *tcpConn) {
	c.mu.Lock()
	if c.open != nil && c.open[tc] && len(c.idle[to]) < maxIdlePerPeer {
		c.idle[to] = append(c.idle[to], tc)
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	c.drop(tc)
}

func (c *TCPClient) drop(tc *tcpConn) {
	c.mu.Lock()
	delete(c.open, tc)
	c.mu.Unlock()
	tc.conn.Close()
}

// Call implements Caller over TCP. Transport failures surface as
// ErrUnreachable so that protocol-level retry logic is transport-agnostic;
// frame-level failures (version mismatch, torn frame, server decode-error
// notice) additionally match ErrWireVersion/ErrDecode for diagnosis.
func (c *TCPClient) Call(ctx context.Context, from, to string, req any) (any, error) {
	tc, err := c.checkout(to)
	if err != nil {
		return nil, err
	}
	dl := zeroTime
	if d, ok := ctx.Deadline(); ok {
		dl = d
	}
	if err := tc.conn.SetDeadline(dl); err != nil {
		c.drop(tc)
		return nil, fmt.Errorf("%w: set deadline for %s (%v)", ErrUnreachable, to, err)
	}
	out, err := appendRequestFrame(tc.buf[:0], from, req)
	if err != nil {
		c.checkin(to, tc) // the conn is fine; the message was not
		return nil, err
	}
	tc.buf = out[:0]
	if _, err := tc.bw.Write(out); err != nil {
		c.drop(tc)
		return nil, fmt.Errorf("%w: send to %s (%v)", ErrUnreachable, to, err)
	}
	if err := tc.bw.Flush(); err != nil {
		c.drop(tc)
		return nil, fmt.Errorf("%w: send to %s (%v)", ErrUnreachable, to, err)
	}
	kind, payload, err := readFrame(tc.br, nil)
	if err != nil {
		c.drop(tc)
		if errors.Is(err, ErrWireVersion) || errors.Is(err, ErrDecode) {
			return nil, fmt.Errorf("%w: recv from %s: %w", ErrUnreachable, to, err)
		}
		return nil, fmt.Errorf("%w: recv from %s (%v)", ErrUnreachable, to, err)
	}
	switch kind {
	case frameReply:
	case frameDecodeErr:
		// The server refused our frame with a typed notice and is closing
		// the conn; surface its reason verbatim.
		c.drop(tc)
		return nil, fmt.Errorf("%w: peer %s rejected frame: %s", ErrDecode, to, string(payload))
	default:
		c.drop(tc)
		return nil, fmt.Errorf("%w: unexpected frame kind %d from %s", ErrDecode, kind, to)
	}
	errText, body, err := decodeReplyPayload(payload)
	if err != nil {
		c.drop(tc)
		return nil, fmt.Errorf("%w: reply from %s: %w", ErrUnreachable, to, err)
	}
	c.checkin(to, tc)
	if errText != "" {
		return nil, fmt.Errorf("rpc: remote error from %s: %s", to, errText)
	}
	return body, nil
}

// Close closes every connection, idle or in flight, and stops the client
// from pooling or dialling new ones.
func (c *TCPClient) Close() error {
	c.mu.Lock()
	open := c.open
	c.open = nil
	c.idle = nil
	c.mu.Unlock()
	for tc := range open {
		tc.conn.Close()
	}
	return nil
}

var zeroTime time.Time

var _ Caller = (*TCPClient)(nil)
