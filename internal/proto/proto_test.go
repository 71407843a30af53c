package proto

import "testing"

func TestOperationConstructors(t *testing.T) {
	if op := Read("k"); op.Kind != OpRead || op.Key != "k" {
		t.Fatalf("Read: %+v", op)
	}
	if op := Write("k", []byte("v")); op.Kind != OpWrite || string(op.Value) != "v" {
		t.Fatalf("Write: %+v", op)
	}
	if op := Delete("k"); op.Kind != OpDelete {
		t.Fatalf("Delete: %+v", op)
	}
	if op := Add("k", -3); op.Kind != OpAdd || op.Delta != -3 || op.HasMin {
		t.Fatalf("Add: %+v", op)
	}
	if op := AddMin("k", -3, 0); !op.HasMin || op.Min != 0 {
		t.Fatalf("AddMin: %+v", op)
	}
}

func TestStringMethods(t *testing.T) {
	cases := map[string]string{
		TwoPC.String():           "2PC",
		O2PC.String():            "O2PC",
		MarkNone.String():        "none",
		MarkP1.String():          "P1",
		MarkP2.String():          "P2",
		OpRead.String():          "read",
		OpWrite.String():         "write",
		OpDelete.String():        "delete",
		OpAdd.String():           "add",
		CompSemantic.String():    "semantic",
		CompBeforeImage.String(): "before-image",
		CompCustom.String():      "custom",
		CompNone.String():        "none",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("got %q want %q", got, want)
		}
	}
	// Unknown values still render something.
	if Protocol(99).String() == "" || MarkProtocol(99).String() == "" ||
		OpKind(99).String() == "" || CompMode(99).String() == "" {
		t.Errorf("unknown enum values must render")
	}
}
