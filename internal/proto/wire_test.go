package proto

import (
	"bytes"
	"encoding/gob"
	"errors"
	"reflect"
	"testing"
)

// Tags 9 and 10 carried batch envelopes in an earlier codec generation,
// and tag 11 RepBegin; they stay reserved so that later tags keep their
// values.
var reservedTags = []byte{9, 10, 11}

func init() {
	for _, m := range []any{ExecRequest{}, ExecReply{}, VoteRequest{}, VoteReply{}, Decision{}, Ack{},
		ResolveRequest{}, ResolveReply{}, RepAccept{}, RepReply{}, RepNewTerm{}, RepNewTermReply{},
		ScanRequest{}, ScanReply{}} {
		gob.Register(m)
	}
}

// gobRoundTrip pushes msg through an interface-typed gob encode/decode. Its
// output is the equivalence reference for the binary codec — in particular
// gob's zero-value elision means empty slices and maps come back nil.
func gobRoundTrip(t testing.TB, msg any) any {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&msg); err != nil {
		t.Fatalf("gob encode %T: %v", msg, err)
	}
	var out any
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatalf("gob decode %T: %v", msg, err)
	}
	return out
}

func wireRoundTrip(t testing.TB, msg any) any {
	t.Helper()
	b, err := AppendMessage(nil, msg)
	if err != nil {
		t.Fatalf("AppendMessage %T: %v", msg, err)
	}
	out, err := DecodeMessage(b)
	if err != nil {
		t.Fatalf("DecodeMessage %T: %v", msg, err)
	}
	return out
}

// sampleMessages builds one instance of every wire message from the fuzzed
// primitives, exercising nil/empty/occupied shapes of each container.
func sampleMessages(id, key, s string, val []byte, d1, d2 int64, b1, b2, b3 bool, n uint8) []any {
	ops := []Operation{
		{Kind: OpKind(n%5 + 1), Key: key, Value: val, Delta: d1, Min: d2, HasMin: b1},
		Read(key + "r"),
		AddMin(key, d2, d1),
	}
	marks := []string{id, s}
	if b2 {
		marks = nil
	}
	var reads map[string][]byte
	if b3 {
		reads = map[string][]byte{key: val, s: nil, "": {}}
	}
	ws := []WitnessDelta{{Forward: id, Site: s}, {}}
	if b1 && b2 {
		ws = nil
	}
	txns := []RepTxnState{
		{TxnID: id, Sites: marks, Marking: MarkProtocol(n % 4), AccTerm: uint64(d1), Commit: b2},
		{},
	}
	if b3 {
		txns = nil
	}
	scanned := []ScanTxn{{TxnID: id, Marking: MarkProtocol(n % 4), Incarnation: uint64(d2)}, {}}
	if b1 {
		scanned = nil
	}
	return []any{
		ExecRequest{TxnID: id, Ops: ops, Comp: CompMode(n%4 + 1), Compensator: s,
			Protocol: Protocol(n%3 + 1), Marking: MarkProtocol(n % 4), TransMarks: marks,
			Visited: b1, Round: int(n), Vote: b2, Last: b3, Incarnation: uint64(d1)},
		ExecRequest{},
		ExecReply{OK: b1, Rejected: b2, Fatal: b3, Reason: s, Reads: reads,
			Marks: marks, Witnesses: ws, Err: id},
		ExecReply{OK: true, Reads: reads, Marks: marks, Witnesses: ws,
			Vote: VoteReply{Commit: b1, ReadOnly: b3, Reason: s, Witnesses: ws}},
		VoteRequest{TxnID: id},
		VoteReply{Commit: b1, ReadOnly: b2, Reason: s, Witnesses: ws},
		Decision{TxnID: id, Commit: b1, Unmarks: marks, Sync: uint64(d2)},
		Ack{TxnID: id, Marked: b2, LSN: uint64(d1), Synced: uint64(d2), Boot: uint64(n)},
		ResolveRequest{TxnID: id},
		ResolveReply{Known: b1, Commit: b2},
		RepAccept{Group: s, Term: uint64(d2), TxnID: id, Commit: b1, Sites: marks,
			Marking: MarkProtocol(n % 4)},
		RepAccept{},
		RepReply{OK: b2, Term: uint64(d1)},
		RepNewTerm{Group: s, Term: uint64(d2)},
		RepNewTermReply{OK: b1, Term: uint64(d1), Txns: txns},
		RepNewTermReply{},
		ScanRequest{Incarnation: uint64(d1)},
		ScanReply{Txns: scanned, Latest: uint64(d2)},
		ScanReply{},
	}
}

// FuzzWireCodec pins the binary codec against gob: for every protocol
// message shape, decode(encode(m)) must equal what a gob round trip of m
// produces (same values, same nil-vs-empty normalization). The same
// encoding under a reserved tag must be rejected.
func FuzzWireCodec(f *testing.F) {
	f.Add("T1", "acct", "s0", []byte{1, 2, 3}, int64(-40), int64(0), true, false, true, uint8(3))
	f.Add("", "", "", []byte(nil), int64(0), int64(0), false, false, false, uint8(0))
	f.Add("T\x00x", "k\xff", "росо", []byte{0}, int64(1<<62), int64(-1<<62), true, true, true, uint8(255))
	// A 2PC exec+vote: Vote set on the request, a YES with witnesses on the reply.
	f.Add("T2", "acct", "site unilaterally aborted", []byte{7}, int64(5), int64(0), true, true, false, uint8(0))
	f.Fuzz(func(t *testing.T, id, key, s string, val []byte, d1, d2 int64, b1, b2, b3 bool, n uint8) {
		for _, msg := range sampleMessages(id, key, s, val, d1, d2, b1, b2, b3, n) {
			got := wireRoundTrip(t, msg)
			want := gobRoundTrip(t, msg)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%T diverged:\nbinary: %#v\ngob:    %#v", msg, got, want)
			}
			b, _ := AppendMessage(nil, msg)
			for _, tag := range reservedTags {
				b[0] = tag
				if _, err := DecodeMessage(b); !errors.Is(err, ErrUnknownWireType) {
					t.Fatalf("%T under reserved tag %d: err = %v", msg, tag, err)
				}
			}
		}
	})
}

// FuzzWireDecode feeds raw bytes to the decoder: anything may be rejected,
// nothing may panic or over-allocate, and everything accepted must
// re-encode and re-decode to the same value (decode/encode/decode fixpoint).
func FuzzWireDecode(f *testing.F) {
	seed, _ := AppendMessage(nil, ExecRequest{TxnID: "T1", Ops: []Operation{Read("k")}})
	f.Add(seed)
	// A two-message batch envelope as the earlier generation framed it.
	f.Add([]byte{9, 2, wtVoteRequest, 1, 'x', wtAck, 1, 'y', 1})
	f.Add([]byte{10, 1, 0, 0})
	f.Add([]byte{})
	// The exec+vote fields: a request carrying the VOTE-REQ, and a reply
	// carrying a read-only vote and a witness.
	seed, _ = AppendMessage(nil, ExecRequest{TxnID: "T2", Protocol: TwoPC, Vote: true, Last: true})
	f.Add(seed)
	seed, _ = AppendMessage(nil, ExecReply{OK: true, Witnesses: []WitnessDelta{{Forward: "T0", Site: "s0"}},
		Vote: VoteReply{Commit: true, ReadOnly: true, Reason: "r"}})
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := DecodeMessage(data)
		if len(data) > 0 && bytes.IndexByte(reservedTags, data[0]) >= 0 && !errors.Is(err, ErrUnknownWireType) {
			t.Fatalf("reserved tag %d: err = %v", data[0], err)
		}
		if err != nil {
			return
		}
		b, err := AppendMessage(nil, msg)
		if err != nil {
			t.Fatalf("decoded %T does not re-encode: %v", msg, err)
		}
		again, err := DecodeMessage(b)
		if err != nil {
			t.Fatalf("re-encoded %T does not decode: %v", msg, err)
		}
		if !reflect.DeepEqual(msg, again) {
			t.Fatalf("decode/encode/decode fixpoint broken:\nfirst:  %#v\nsecond: %#v", msg, again)
		}
	})
}

// TestWireCodecDeterministic pins byte-level determinism: maps are encoded
// in sorted key order, so the same message always yields the same bytes
// (the exposure records in site WALs rely on this for byte-identical
// same-seed runs).
func TestWireCodecDeterministic(t *testing.T) {
	m := ExecReply{OK: true, Reads: map[string][]byte{"b": {2}, "a": {1}, "c": nil, "d": {4}}}
	first, err := AppendMessage(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		// Rebuild the map each time so iteration-order variance would show.
		again, err := AppendMessage(nil, ExecReply{OK: true,
			Reads: map[string][]byte{"d": {4}, "c": nil, "b": {2}, "a": {1}}})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, again) {
			t.Fatalf("encoding not deterministic:\n% x\n% x", first, again)
		}
	}
}

// TestWireCodecRejectsUnknown pins the loud-failure contract for messages
// outside the vocabulary and for unknown tag bytes.
func TestWireCodecRejectsUnknown(t *testing.T) {
	if _, err := AppendMessage(nil, struct{ X int }{1}); err == nil {
		t.Fatal("encoding a non-protocol type succeeded")
	}
	if _, err := DecodeMessage([]byte{0xEE, 1, 2, 3}); err == nil {
		t.Fatal("decoding an unknown tag succeeded")
	}
	// Trailing garbage after a valid message is a framing error.
	b, _ := AppendMessage(nil, Ack{TxnID: "T", Marked: true})
	if _, err := DecodeMessage(append(b, 0x7)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// TestWireExecVoteRoundTrip pins the exec+vote fields: the VOTE-REQ (and
// the last-subtransaction flag) on an ExecRequest and the vote, with its own and the exec's witnesses, on an
// ExecReply survive the codec, and a stand-alone VoteReply shares the
// vote's encoding.
func TestWireExecVoteRoundTrip(t *testing.T) {
	ws := []WitnessDelta{{Forward: "T0", Site: "s1"}}
	for _, msg := range []any{
		ExecRequest{TxnID: "T1", Ops: []Operation{AddMin("acct", -5, 0)}, Protocol: Paxos, Vote: true},
		ExecRequest{TxnID: "T1", Protocol: TwoPC, Vote: true, Last: true},
		ExecReply{OK: true, Marks: []string{"T0"}, Witnesses: ws,
			Vote: VoteReply{Commit: true, ReadOnly: true, Reason: "read-only", Witnesses: ws}},
		ExecReply{OK: true, Vote: VoteReply{Reason: "site unilaterally aborted"}},
	} {
		if got := wireRoundTrip(t, msg); !reflect.DeepEqual(got, msg) {
			t.Errorf("round trip:\n got %#v\nwant %#v", got, msg)
		}
	}
	vote := VoteReply{Commit: true, Reason: "x", Witnesses: ws}
	reply, _ := AppendMessage(nil, ExecReply{Vote: vote})
	alone, _ := AppendMessage(nil, vote)
	if !bytes.HasSuffix(reply, alone[1:]) {
		t.Errorf("ExecReply.Vote is not encoded as a tagless VoteReply:\n% x\n% x", reply, alone)
	}
}
