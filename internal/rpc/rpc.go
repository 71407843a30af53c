// Package rpc provides the message transport between coordinators and
// sites.
//
// Two transports implement the same Caller interface:
//
//   - Network: an in-process simulated network with configurable one-way
//     latency, jitter, message loss, link partitions and node crashes. All
//     simulation experiments run over it; its per-message-type census is
//     the data source for experiment E6 ("no extra messages beyond 2PC").
//   - TCP (tcp.go): a framed binary TCP transport for the multi-process
//     deployment under cmd/.
//
// Every request and every reply counts as one message, mirroring the
// paper's three-round accounting (request-for-vote, vote, decision).
package rpc

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"o2pc/internal/metrics"
	"o2pc/internal/proto"
	"o2pc/internal/sim"
	"o2pc/internal/trace"
)

// Handler processes one inbound request at a node.
type Handler func(ctx context.Context, from string, req any) (any, error)

// BatchHandler returns h unchanged. It exists only because
// benchmark/node.go still wraps its site handler in it and BENCHMARK.json
// freezes the benchmark/ sources; delete it together with that call.
func BatchHandler(h Handler, _ sim.Clock) Handler { return h }

// Caller issues a request to a named node and waits for its reply.
type Caller interface {
	Call(ctx context.Context, from, to string, req any) (any, error)
}

// Transport errors.
var (
	// ErrUnreachable is returned when the destination is down, partitioned
	// away, or the message was dropped.
	ErrUnreachable = errors.New("rpc: destination unreachable")
	// ErrUnknownNode is returned for destinations that were never
	// registered.
	ErrUnknownNode = errors.New("rpc: unknown node")
)

// Config parameterizes the simulated network.
type Config struct {
	// MinLatency and MaxLatency bound the one-way delay applied to every
	// message; the actual delay is uniform in [Min, Max].
	MinLatency time.Duration
	MaxLatency time.Duration
	// DropProb is the probability that any single message is lost (the
	// caller observes ErrUnreachable).
	DropProb float64
	// Seed seeds the network's private RNG; 0 selects a fixed default so
	// simulations are reproducible by default.
	Seed int64
	// Clock supplies the network's notion of time (latency waits). Nil
	// defaults to the real clock; the deterministic simulation harness
	// passes a sim.VirtualClock.
	Clock sim.Clock
	// Tracer, when set, records msg.send/msg.recv/msg.drop events for
	// every message crossing the network.
	Tracer *trace.Tracer
}

// linkKey identifies one directed link for per-link randomness.
type linkKey struct{ from, to string }

// netState is the network's topology snapshot: which nodes exist, which are
// down, and which directed links are severed. It is immutable once
// published — mutators clone the current snapshot under the network mutex
// and swap the pointer, so the per-message reachability checks are plain
// atomic loads instead of mutex acquisitions (topology changes are rare;
// messages are the hot path).
type netState struct {
	nodes       map[string]Handler
	down        map[string]bool
	partitioned map[string]map[string]bool
}

// Network is the in-process simulated transport.
type Network struct {
	cfg    Config
	seed   int64
	clock  sim.Clock
	tracer *trace.Tracer

	mu    sync.Mutex
	links map[linkKey]*rand.Rand
	state atomic.Pointer[netState]

	counts *metrics.Registry
	// census lazily caches the counters for the known protocol messages so
	// steady-state per-message accounting is one atomic increment, not a
	// registry lookup under a mutex. Entries are created on first sight of
	// each type, preserving the census property that only message types
	// actually sent appear in Counts() (experiment E6 relies on that).
	census [censusKinds]atomic.Pointer[metrics.Counter]
}

// census indices, one per protocol message type; censusOther covers
// anything outside the protocol vocabulary (counted via the registry
// directly).
const (
	censusExecRequest = iota
	censusExecReply
	censusVoteRequest
	censusVoteReply
	censusDecision
	censusAck
	censusResolveRequest
	censusResolveReply
	censusRepAccept
	censusRepReply
	censusRepNewTerm
	censusRepNewTermReply
	censusScanRequest
	censusScanReply
	censusKinds
	censusOther = -1
)

// NewNetwork returns a network with the given configuration.
func NewNetwork(cfg Config) *Network {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	n := &Network{
		cfg:    cfg,
		seed:   seed,
		clock:  sim.OrReal(cfg.Clock),
		tracer: cfg.Tracer,
		links:  make(map[linkKey]*rand.Rand),
		counts: metrics.NewRegistry(),
	}
	n.state.Store(&netState{
		nodes:       make(map[string]Handler),
		down:        make(map[string]bool),
		partitioned: make(map[string]map[string]bool),
	})
	return n
}

// mutate applies f to a deep copy of the current topology snapshot and
// publishes the result. The network mutex serializes concurrent mutators.
func (n *Network) mutate(f func(*netState)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	cur := n.state.Load()
	next := &netState{
		nodes:       make(map[string]Handler, len(cur.nodes)),
		down:        make(map[string]bool, len(cur.down)),
		partitioned: make(map[string]map[string]bool, len(cur.partitioned)),
	}
	for k, v := range cur.nodes {
		next.nodes[k] = v
	}
	for k, v := range cur.down {
		next.down[k] = v
	}
	for k, m := range cur.partitioned {
		mm := make(map[string]bool, len(m))
		for k2, v := range m {
			mm[k2] = v
		}
		next.partitioned[k] = mm
	}
	f(next)
	n.state.Store(next)
}

// linkRNG returns the directed link's private RNG, creating it on first
// use. Per-link RNGs keep the delay/drop sequence of one link independent
// of traffic on every other link: under the virtual clock a run's outcome
// then depends only on the seed, not on which goroutine drew first from a
// shared stream. Callers must hold n.mu.
func (n *Network) linkRNG(from, to string) *rand.Rand {
	k := linkKey{from, to}
	if r, ok := n.links[k]; ok {
		return r
	}
	h := fnv.New64a()
	h.Write([]byte(from))
	h.Write([]byte{0})
	h.Write([]byte(to))
	r := rand.New(rand.NewSource(int64(h.Sum64()) ^ n.seed))
	n.links[k] = r
	return r
}

// Register installs the handler for a node name, replacing any previous
// handler.
func (n *Network) Register(node string, h Handler) {
	n.mutate(func(st *netState) { st.nodes[node] = h })
}

// SetDown marks a node crashed (true) or recovered (false). Messages to a
// down node are lost after the usual delay.
func (n *Network) SetDown(node string, down bool) {
	n.mutate(func(st *netState) { st.down[node] = down })
}

// SetPartition severs (or heals) the bidirectional link between a and b.
func (n *Network) SetPartition(a, b string, severed bool) {
	n.SetOneWayPartition(a, b, severed)
	n.SetOneWayPartition(b, a, severed)
}

// SetOneWayPartition severs (or heals) only the from -> to direction:
// requests from `from` are lost, but traffic the other way still flows.
// Useful for isolating one protocol round (e.g. decisions but not votes).
func (n *Network) SetOneWayPartition(from, to string, severed bool) {
	n.mutate(func(st *netState) {
		m, ok := st.partitioned[from]
		if !ok {
			m = make(map[string]bool)
			st.partitioned[from] = m
		}
		m[to] = severed
	})
}

// Counts returns the message census registry. Counter names are message
// type names (e.g. "proto.ExecRequest").
func (n *Network) Counts() *metrics.Registry { return n.counts }

// delay computes one random one-way latency for the from -> to link.
func (n *Network) delay(from, to string) time.Duration {
	// cfg is immutable after construction: a degenerate latency range
	// needs no RNG draw and — on the zero-latency configurations the
	// benchmarks run — no mutex either.
	if n.cfg.MaxLatency <= n.cfg.MinLatency {
		return n.cfg.MinLatency
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	span := n.cfg.MaxLatency - n.cfg.MinLatency
	return n.cfg.MinLatency + time.Duration(n.linkRNG(from, to).Int63n(int64(span)))
}

func (n *Network) dropped(from, to string) bool {
	if n.cfg.DropProb <= 0 {
		return false
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.linkRNG(from, to).Float64() < n.cfg.DropProb
}

// reachable reports whether a message from -> to can currently be
// delivered.
func (n *Network) reachable(from, to string) (Handler, error) {
	st := n.state.Load()
	h, ok := st.nodes[to]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownNode, to)
	}
	if st.down[to] {
		return nil, fmt.Errorf("%w: node %s is down", ErrUnreachable, to)
	}
	if st.partitioned[from][to] {
		return nil, fmt.Errorf("%w: link %s<->%s partitioned", ErrUnreachable, from, to)
	}
	return h, nil
}

func (n *Network) count(msg any) {
	kind := msgKind(msg)
	if kind == censusOther {
		n.counts.Counter(msgName(msg)).Inc()
		return
	}
	c := n.census[kind].Load()
	if c == nil {
		// Registry.Counter is idempotent, so a racing first sight of the
		// same type caches the same counter.
		c = n.counts.Counter(censusNames[kind])
		n.census[kind].Store(c)
	}
	c.Inc()
}

// censusNames spells each census kind the way "%T" would a value of the
// type ("proto.ExecRequest"), the counter-name convention of E6.
var censusNames = [censusKinds]string{
	censusExecRequest:     "proto.ExecRequest",
	censusExecReply:       "proto.ExecReply",
	censusVoteRequest:     "proto.VoteRequest",
	censusVoteReply:       "proto.VoteReply",
	censusDecision:        "proto.Decision",
	censusAck:             "proto.Ack",
	censusResolveRequest:  "proto.ResolveRequest",
	censusResolveReply:    "proto.ResolveReply",
	censusRepAccept:       "proto.RepAccept",
	censusRepReply:        "proto.RepReply",
	censusRepNewTerm:      "proto.RepNewTerm",
	censusRepNewTermReply: "proto.RepNewTermReply",
	censusScanRequest:     "proto.ScanRequest",
	censusScanReply:       "proto.ScanReply",
}

// msgKind classifies a message into its census slot, or censusOther for
// types outside the protocol vocabulary.
func msgKind(msg any) int {
	switch msg.(type) {
	case proto.ExecRequest, *proto.ExecRequest:
		return censusExecRequest
	case proto.ExecReply, *proto.ExecReply:
		return censusExecReply
	case proto.VoteRequest, *proto.VoteRequest:
		return censusVoteRequest
	case proto.VoteReply, *proto.VoteReply:
		return censusVoteReply
	case proto.Decision, *proto.Decision:
		return censusDecision
	case proto.Ack, *proto.Ack:
		return censusAck
	case proto.ResolveRequest, *proto.ResolveRequest:
		return censusResolveRequest
	case proto.ResolveReply, *proto.ResolveReply:
		return censusResolveReply
	case proto.RepAccept, *proto.RepAccept:
		return censusRepAccept
	case proto.RepReply, *proto.RepReply:
		return censusRepReply
	case proto.RepNewTerm, *proto.RepNewTerm:
		return censusRepNewTerm
	case proto.RepNewTermReply, *proto.RepNewTermReply:
		return censusRepNewTermReply
	case proto.ScanRequest, *proto.ScanRequest:
		return censusScanRequest
	case proto.ScanReply, *proto.ScanReply:
		return censusScanReply
	default:
		return censusOther
	}
}

// msgName spells a message type compactly for trace details and census
// counter names ("proto.ExecRequest" rather than "*proto.ExecRequest").
// The protocol messages are enumerated explicitly: formatting "%T" per
// message was one of the hottest allocations on the commit path.
func msgName(msg any) string {
	if kind := msgKind(msg); kind != censusOther {
		return censusNames[kind]
	}
	return fmt.Sprintf("%T", msg)
}

// Call delivers req to node `to` and returns its reply, modeling one-way
// latency in each direction. Message loss, partitions and crashed nodes
// surface as ErrUnreachable (after the request's one-way delay, as a
// timeout would).
func (n *Network) Call(ctx context.Context, from, to string, req any) (any, error) {
	// Emit is nil-receiver-safe, but its arguments (TxnIDOf, msgName,
	// detail concatenation) are not free; guard every emission so untraced
	// runs pay nothing.
	traced := n.tracer != nil
	n.count(req)
	if traced {
		n.tracer.Emit(from, trace.EvMsgSend, proto.TxnIDOf(req), to, msgName(req))
	}
	if err := n.clock.Sleep(ctx, n.delay(from, to)); err != nil {
		return nil, err
	}
	if n.dropped(from, to) {
		if traced {
			n.tracer.Emit(to, trace.EvMsgDrop, proto.TxnIDOf(req), from, msgName(req))
		}
		return nil, fmt.Errorf("%w: request dropped", ErrUnreachable)
	}
	h, err := n.reachable(from, to)
	if err != nil {
		if traced {
			n.tracer.Emit(to, trace.EvMsgDrop, proto.TxnIDOf(req), from, msgName(req)+" unreachable")
		}
		return nil, err
	}
	if traced {
		n.tracer.Emit(to, trace.EvMsgRecv, proto.TxnIDOf(req), from, msgName(req))
	}
	resp, err := h(ctx, from, req)
	if err != nil {
		return nil, err
	}
	n.count(resp)
	if traced {
		n.tracer.Emit(to, trace.EvMsgSend, proto.TxnIDOf(req), from, msgName(resp))
	}
	if err := n.clock.Sleep(ctx, n.delay(to, from)); err != nil {
		return nil, err
	}
	if n.dropped(to, from) {
		if traced {
			n.tracer.Emit(from, trace.EvMsgDrop, proto.TxnIDOf(req), to, msgName(resp))
		}
		return nil, fmt.Errorf("%w: reply dropped", ErrUnreachable)
	}
	// The sender may have crashed or been partitioned away while the reply
	// was in flight. (The sender need not be a registered node: pure
	// clients may call without serving.)
	st := n.state.Load()
	if st.down[from] || st.partitioned[to][from] {
		if traced {
			n.tracer.Emit(from, trace.EvMsgDrop, proto.TxnIDOf(req), to, msgName(resp)+" undeliverable")
		}
		return nil, fmt.Errorf("%w: reply undeliverable", ErrUnreachable)
	}
	if traced {
		n.tracer.Emit(from, trace.EvMsgRecv, proto.TxnIDOf(req), to, msgName(resp))
	}
	return resp, nil
}

var _ Caller = (*Network)(nil)
