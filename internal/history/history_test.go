package history

import (
	"testing"

	"o2pc/internal/storage"
)

func TestRecorderSequencesPerSite(t *testing.T) {
	r := NewRecorder()
	r.Record("s0", "T1", OpWrite, "a", "")
	r.Record("s1", "T1", OpWrite, "a", "")
	r.Record("s0", "T2", OpRead, "a", "T1")
	h := r.Snapshot()
	s0 := h.OpsAt("s0")
	if len(s0) != 2 || s0[0].Seq != 1 || s0[1].Seq != 2 {
		t.Fatalf("s0 ops = %+v", s0)
	}
	s1 := h.OpsAt("s1")
	if len(s1) != 1 || s1[0].Seq != 1 {
		t.Fatalf("s1 ops = %+v", s1)
	}
}

func TestDeclareAndFate(t *testing.T) {
	r := NewRecorder()
	r.Declare("T1", KindGlobal, "")
	r.Declare("CT1", KindCompensating, "T1")
	r.SetFate("T1", FateAborted)
	h := r.Snapshot()
	if h.KindOf("T1") != KindGlobal || h.KindOf("CT1") != KindCompensating {
		t.Fatalf("kinds wrong")
	}
	if h.FateOf("T1") != FateAborted {
		t.Fatalf("fate = %v", h.FateOf("T1"))
	}
	if h.CompensationOf("T1") != "CT1" {
		t.Fatalf("compensation link = %q", h.CompensationOf("T1"))
	}
	if h.CompensationOf("T9") != "" {
		t.Fatalf("phantom compensation")
	}
}

func TestUnknownNodeDefaultsLocal(t *testing.T) {
	r := NewRecorder()
	r.Record("s0", "Lx", OpRead, "a", "")
	h := r.Snapshot()
	if h.KindOf("Lx") != KindLocal {
		t.Fatalf("kind = %v", h.KindOf("Lx"))
	}
	if h.FateOf("Lx") != FateUnknown {
		t.Fatalf("fate = %v", h.FateOf("Lx"))
	}
}

func TestDeclarePreservesFate(t *testing.T) {
	r := NewRecorder()
	r.SetFate("T1", FateCommitted)
	r.Declare("T1", KindGlobal, "")
	if r.Snapshot().FateOf("T1") != FateCommitted {
		t.Fatalf("Declare clobbered fate")
	}
}

func TestSitesSorted(t *testing.T) {
	r := NewRecorder()
	r.Record("s2", "T1", OpWrite, "a", "")
	r.Record("s0", "T1", OpWrite, "a", "")
	h := r.Snapshot()
	sites := h.Sites()
	if len(sites) != 2 || sites[0] != "s0" || sites[1] != "s2" {
		t.Fatalf("sites = %v", sites)
	}
}

func TestConflicts(t *testing.T) {
	w := func(site, txn string, key storage.Key) Op {
		return Op{Site: site, Txn: txn, Type: OpWrite, Key: key}
	}
	r := func(site, txn string, key storage.Key) Op {
		return Op{Site: site, Txn: txn, Type: OpRead, Key: key}
	}
	cases := []struct {
		a, b Op
		want bool
	}{
		{w("s0", "T1", "a"), w("s0", "T2", "a"), true},  // w-w
		{w("s0", "T1", "a"), r("s0", "T2", "a"), true},  // w-r
		{r("s0", "T1", "a"), w("s0", "T2", "a"), true},  // r-w
		{r("s0", "T1", "a"), r("s0", "T2", "a"), false}, // r-r
		{w("s0", "T1", "a"), w("s0", "T1", "a"), false}, // same txn
		{w("s0", "T1", "a"), w("s1", "T2", "a"), false}, // different site
		{w("s0", "T1", "a"), w("s0", "T2", "b"), false}, // different key
	}
	for i, tc := range cases {
		if got := Conflicts(tc.a, tc.b); got != tc.want {
			t.Errorf("case %d: Conflicts = %v, want %v", i, got, tc.want)
		}
	}
}

func TestSnapshotIsolation(t *testing.T) {
	r := NewRecorder()
	r.Record("s0", "T1", OpWrite, "a", "")
	h := r.Snapshot()
	r.Record("s0", "T2", OpWrite, "a", "")
	if len(h.Ops) != 1 {
		t.Fatalf("snapshot grew after later records")
	}
}

func TestKindAndFateStrings(t *testing.T) {
	if KindGlobal.String() != "T" || KindCompensating.String() != "CT" || KindLocal.String() != "L" {
		t.Fatalf("kind strings")
	}
	if OpRead.String() != "r" || OpWrite.String() != "w" {
		t.Fatalf("op strings")
	}
	if FateCommitted.String() != "committed" || FateAborted.String() != "aborted" || FateUnknown.String() != "unknown" {
		t.Fatalf("fate strings")
	}
}

func TestVoidSiteOps(t *testing.T) {
	r := NewRecorder()
	r.Record("s0", "T1", OpWrite, "a", "")
	r.Record("s0", "T2", OpWrite, "a", "")
	r.Record("s1", "T1", OpWrite, "b", "")
	r.VoidSiteOps("s0", "T1")
	h := r.Snapshot()
	for _, op := range h.Ops {
		if op.Site == "s0" && op.Txn == "T1" {
			t.Fatalf("voided op survived: %+v", op)
		}
	}
	if len(h.OpsAt("s0")) != 1 || len(h.OpsAt("s1")) != 1 {
		t.Fatalf("unrelated ops disturbed: s0=%d s1=%d", len(h.OpsAt("s0")), len(h.OpsAt("s1")))
	}
	// Voiding an absent pair is a no-op.
	r.VoidSiteOps("s9", "T9")
	if len(r.Snapshot().Ops) != 2 {
		t.Fatalf("no-op void changed history")
	}
}
