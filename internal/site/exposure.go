package site

import (
	"encoding/binary"
	"fmt"

	"o2pc/internal/proto"
)

// exposure is the Aux payload of a RecExposed record: everything a
// restarted site needs to resume an exposed-but-undecided subtransaction
// from its WAL alone — the coordinator to direct the decision inquiry at,
// and the original request, whose operation list drives the semantic
// compensation plan on an ABORT decision (re-deriving a plan from
// before-images would erase interleaved committed updates; the paper's
// semantic atomicity demands the inverse operations instead).
//
// The payload is opaque to the wal package (it frames Aux as a string and
// only this package interprets it): the protocol's binary codec behind a
// one-byte magic.
type exposure struct {
	Coord string
	Req   proto.ExecRequest
}

// exposureMagic tags the binary Aux encoding.
const exposureMagic = 0xEB

// encodeExposure serializes e for the RecExposed Aux field: magic byte,
// uvarint-length-prefixed coordinator name, then the request through the
// proto wire codec.
func encodeExposure(e exposure) string {
	buf := make([]byte, 0, 64+len(e.Coord)+len(e.Req.TxnID)+16*len(e.Req.Ops))
	buf = append(buf, exposureMagic)
	buf = binary.AppendUvarint(buf, uint64(len(e.Coord)))
	buf = append(buf, e.Coord...)
	buf, err := proto.AppendMessage(buf, &e.Req)
	if err != nil {
		// ExecRequest is in the wire vocabulary; Append cannot fail on it.
		panic(fmt.Sprintf("site: encoding exposure for %s: %v", e.Req.TxnID, err))
	}
	return string(buf)
}

// decodeExposure parses a RecExposed Aux payload. A payload without the
// magic byte — including the JSON form that earlier builds wrote — is an
// error, so Recover fails instead of guessing.
func decodeExposure(aux string) (exposure, error) {
	if len(aux) == 0 || aux[0] != exposureMagic {
		return exposure{}, fmt.Errorf("site: decoding exposure record: missing %#x magic", exposureMagic)
	}
	b := []byte(aux[1:])
	n, used := binary.Uvarint(b)
	if used <= 0 || uint64(len(b)-used) < n {
		return exposure{}, fmt.Errorf("site: decoding exposure record: truncated coordinator name")
	}
	coord := string(b[used : used+int(n)])
	msg, err := proto.DecodeMessage(b[used+int(n):])
	if err != nil {
		return exposure{}, fmt.Errorf("site: decoding exposure record: %w", err)
	}
	req, ok := msg.(proto.ExecRequest)
	if !ok {
		return exposure{}, fmt.Errorf("site: decoding exposure record: unexpected %T payload", msg)
	}
	return exposure{Coord: coord, Req: req}, nil
}
