package rpc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"o2pc/internal/proto"
)

type ping struct{ N int }
type pong struct{ N int }

func echoHandler(ctx context.Context, from string, req any) (any, error) {
	p, ok := req.(ping)
	if !ok {
		return nil, fmt.Errorf("bad request %T", req)
	}
	return pong{N: p.N + 1}, nil
}

func TestNetworkCall(t *testing.T) {
	n := NewNetwork(Config{})
	n.Register("b", echoHandler)
	resp, err := n.Call(context.Background(), "a", "b", ping{N: 1})
	if err != nil {
		t.Fatalf("call: %v", err)
	}
	if resp.(pong).N != 2 {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestNetworkUnknownNode(t *testing.T) {
	n := NewNetwork(Config{})
	_, err := n.Call(context.Background(), "a", "ghost", ping{})
	if !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("err = %v", err)
	}
}

func TestNetworkDownNode(t *testing.T) {
	n := NewNetwork(Config{})
	n.Register("b", echoHandler)
	n.SetDown("b", true)
	if _, err := n.Call(context.Background(), "a", "b", ping{}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v", err)
	}
	n.SetDown("b", false)
	if _, err := n.Call(context.Background(), "a", "b", ping{}); err != nil {
		t.Fatalf("recovered node unreachable: %v", err)
	}
}

func TestNetworkPartition(t *testing.T) {
	n := NewNetwork(Config{})
	n.Register("a", echoHandler)
	n.Register("b", echoHandler)
	n.SetPartition("a", "b", true)
	if _, err := n.Call(context.Background(), "a", "b", ping{}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("partitioned call: %v", err)
	}
	if _, err := n.Call(context.Background(), "b", "a", ping{}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("partition must be bidirectional")
	}
	// Other links unaffected.
	n.Register("c", echoHandler)
	if _, err := n.Call(context.Background(), "a", "c", ping{}); err != nil {
		t.Fatalf("unrelated link affected: %v", err)
	}
	n.SetPartition("a", "b", false)
	if _, err := n.Call(context.Background(), "a", "b", ping{}); err != nil {
		t.Fatalf("healed link unreachable: %v", err)
	}
}

func TestNetworkLatencyBounds(t *testing.T) {
	n := NewNetwork(Config{MinLatency: 2 * time.Millisecond, MaxLatency: 4 * time.Millisecond})
	n.Register("b", echoHandler)
	start := time.Now()
	const calls = 5
	for i := 0; i < calls; i++ {
		if _, err := n.Call(context.Background(), "a", "b", ping{}); err != nil {
			t.Fatalf("call: %v", err)
		}
	}
	elapsed := time.Since(start)
	// Each call pays two one-way delays of at least MinLatency.
	if min := time.Duration(calls) * 2 * 2 * time.Millisecond; elapsed < min {
		t.Fatalf("elapsed %v < minimum %v", elapsed, min)
	}
}

func TestNetworkDrop(t *testing.T) {
	n := NewNetwork(Config{DropProb: 1.0})
	n.Register("b", echoHandler)
	if _, err := n.Call(context.Background(), "a", "b", ping{}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("dropped call: %v", err)
	}
}

func TestNetworkCountsRequestAndReply(t *testing.T) {
	n := NewNetwork(Config{})
	n.Register("b", echoHandler)
	for i := 0; i < 3; i++ {
		_, _ = n.Call(context.Background(), "a", "b", ping{})
	}
	counts := n.Counts()
	if got := counts.Counter("rpc.ping").Value(); got != 3 {
		t.Fatalf("ping count = %d", got)
	}
	if got := counts.Counter("rpc.pong").Value(); got != 3 {
		t.Fatalf("pong count = %d", got)
	}
}

func TestNetworkContextCancel(t *testing.T) {
	n := NewNetwork(Config{MinLatency: 50 * time.Millisecond, MaxLatency: 60 * time.Millisecond})
	n.Register("b", echoHandler)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := n.Call(ctx, "a", "b", ping{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
}

func TestNetworkConcurrentCalls(t *testing.T) {
	n := NewNetwork(Config{MaxLatency: time.Millisecond})
	n.Register("b", echoHandler)
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			resp, err := n.Call(context.Background(), "a", "b", ping{N: g})
			if err != nil || resp.(pong).N != g+1 {
				t.Errorf("call %d: %v %v", g, resp, err)
			}
		}(g)
	}
	wg.Wait()
}

func TestDeterministicDropPatternWithSeed(t *testing.T) {
	pattern := func() string {
		n := NewNetwork(Config{DropProb: 0.5, Seed: 7})
		n.Register("b", echoHandler)
		out := make([]byte, 0, 20)
		for i := 0; i < 20; i++ {
			if _, err := n.Call(context.Background(), "a", "b", ping{}); err != nil {
				out = append(out, 'x')
			} else {
				out = append(out, '.')
			}
		}
		return string(out)
	}
	a, b := pattern(), pattern()
	if a != b {
		t.Fatalf("seeded drop patterns diverged: %q vs %q", a, b)
	}
	if a == "...................." || a == "xxxxxxxxxxxxxxxxxxxx" {
		t.Fatalf("drop probability not applied: %q", a)
	}
}

func TestTCPRoundTrip(t *testing.T) {
	srv := NewServer("b", func(ctx context.Context, from string, m any) (any, error) {
		r := m.(proto.VoteRequest)
		return proto.VoteReply{Commit: true, Reason: r.TxnID + " from " + from}, nil
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	client := NewTCPClient(map[string]string{"b": ln.Addr().String()})
	defer client.Close()
	raw, err := client.Call(context.Background(), "a", "b", proto.VoteRequest{TxnID: "hi"})
	if err != nil {
		t.Fatalf("call: %v", err)
	}
	if raw.(proto.VoteReply).Reason != "hi from a" {
		t.Fatalf("resp = %+v", raw)
	}
	// Sequential reuse of the pooled connection.
	if _, err := client.Call(context.Background(), "a", "b", proto.VoteRequest{TxnID: "again"}); err != nil {
		t.Fatalf("second call: %v", err)
	}
}

func TestTCPRemoteError(t *testing.T) {
	srv := NewServer("b", func(ctx context.Context, from string, m any) (any, error) {
		return nil, errors.New("handler exploded")
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	client := NewTCPClient(map[string]string{"b": ln.Addr().String()})
	defer client.Close()
	_, err = client.Call(context.Background(), "a", "b", proto.VoteRequest{})
	if err == nil || !errorsContain(err, "handler exploded") {
		t.Fatalf("err = %v", err)
	}
}

// TestTCPConcurrentCallsNotSerialized pins the per-call connection
// property: a call whose handler is blocked must not stall other calls to
// the same peer. With a single shared connection, a subtransaction stuck
// in a lock wait at a site would block the lock holder's own vote traffic
// and turn every lock conflict into a timeout convoy.
func TestTCPConcurrentCallsNotSerialized(t *testing.T) {
	release := make(chan struct{})
	srv := NewServer("b", func(ctx context.Context, from string, m any) (any, error) {
		if m.(proto.VoteRequest).TxnID == "slow" {
			<-release
		}
		return proto.VoteReply{Commit: true}, nil
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	client := NewTCPClient(map[string]string{"b": ln.Addr().String()})
	defer client.Close()

	slowDone := make(chan error, 1)
	go func() {
		_, err := client.Call(context.Background(), "a", "b", proto.VoteRequest{TxnID: "slow"})
		slowDone <- err
	}()

	// The fast call must complete while the slow handler is still parked.
	fastCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := client.Call(fastCtx, "a", "b", proto.VoteRequest{TxnID: "fast"}); err != nil {
		t.Fatalf("fast call blocked behind slow one: %v", err)
	}
	close(release)
	if err := <-slowDone; err != nil {
		t.Fatalf("slow call: %v", err)
	}
}

// TestTCPPoolReuse checks that finished calls park their connections for
// reuse instead of dialling per call.
func TestTCPPoolReuse(t *testing.T) {
	srv := NewServer("b", func(ctx context.Context, from string, m any) (any, error) {
		return proto.VoteReply{Commit: true}, nil
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	client := NewTCPClient(map[string]string{"b": ln.Addr().String()})
	defer client.Close()
	for i := 0; i < 5; i++ {
		if _, err := client.Call(context.Background(), "a", "b", proto.VoteRequest{TxnID: "x"}); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	client.mu.Lock()
	idle, open := len(client.idle["b"]), len(client.open)
	client.mu.Unlock()
	if idle != 1 || open != 1 {
		t.Fatalf("after sequential calls: %d idle, %d open conns, want 1 and 1", idle, open)
	}
}

func TestTCPUnknownNode(t *testing.T) {
	client := NewTCPClient(map[string]string{})
	if _, err := client.Call(context.Background(), "a", "nope", proto.VoteRequest{}); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("err = %v", err)
	}
}

func TestTCPUnreachable(t *testing.T) {
	client := NewTCPClient(map[string]string{"b": "127.0.0.1:1"}) // nothing listens
	if _, err := client.Call(context.Background(), "a", "b", proto.VoteRequest{}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v", err)
	}
}

func errorsContain(err error, sub string) bool {
	return err != nil && len(err.Error()) >= len(sub) &&
		(func() bool {
			s := err.Error()
			for i := 0; i+len(sub) <= len(s); i++ {
				if s[i:i+len(sub)] == sub {
					return true
				}
			}
			return false
		})()
}
