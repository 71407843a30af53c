package site

import (
	"reflect"
	"strings"
	"testing"

	"o2pc/internal/proto"
)

func sampleExposure() exposure {
	return exposure{
		Coord: "c1",
		Req: proto.ExecRequest{
			TxnID:      "T42",
			Ops:        []proto.Operation{proto.Write("x", []byte("7")), proto.Add("acct", -3), proto.Read("y")},
			Comp:       proto.CompSemantic,
			Protocol:   proto.O2PC,
			Marking:    proto.MarkP2,
			TransMarks: []string{"s1", "s3"},
			Visited:    true,
		},
	}
}

// TestExposureBinaryRoundTrip pins the binary Aux encoding: encode →
// decode is the identity, and the payload is not JSON anymore.
func TestExposureBinaryRoundTrip(t *testing.T) {
	e := sampleExposure()
	aux := encodeExposure(e)
	if aux[0] != exposureMagic {
		t.Fatalf("binary exposure starts with %#x, want magic %#x", aux[0], exposureMagic)
	}
	got, err := decodeExposure(aux)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, e) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, e)
	}
}

// TestExposureDecodeErrors: corrupt payloads must fail loudly, not yield
// a zero exposure that would silently skip compensation.
func TestExposureDecodeErrors(t *testing.T) {
	aux := encodeExposure(sampleExposure())
	for name, bad := range map[string]string{
		"empty":          "",
		"truncated":      aux[:len(aux)/2],
		"no magic":       "coord=c1",
		"bad coord len":  string([]byte{exposureMagic, 0xFF}),
		"trailing bytes": aux + "x",
	} {
		if _, err := decodeExposure(bad); err == nil {
			t.Errorf("%s: decode accepted corrupt payload %q", name, bad)
		} else if !strings.Contains(err.Error(), "exposure record") {
			t.Errorf("%s: error %v lacks exposure context", name, err)
		}
	}
}
