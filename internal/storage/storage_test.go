package storage

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func TestGetMissing(t *testing.T) {
	s := NewStore()
	_, err := s.Get("nope")
	if !IsNotFound(err) {
		t.Fatalf("err = %v, want not-found", err)
	}
	if err.Error() == "" {
		t.Fatalf("not-found error has empty message")
	}
}

func TestPutGet(t *testing.T) {
	s := NewStore()
	if _, existed := s.Put("a", Value("v1"), "T1"); existed {
		t.Fatalf("fresh key reported as existing")
	}
	rec, err := s.Get("a")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if string(rec.Value) != "v1" || rec.Writer != "T1" {
		t.Fatalf("rec = %+v", rec)
	}
}

func TestPutReturnsPrevious(t *testing.T) {
	s := NewStore()
	s.Put("a", Value("v1"), "T1")
	prev, existed := s.Put("a", Value("v2"), "T2")
	if !existed || string(prev.Value) != "v1" || prev.Writer != "T1" {
		t.Fatalf("prev = %+v existed=%v", prev, existed)
	}
	rec, _ := s.Get("a")
	if string(rec.Value) != "v2" || rec.Writer != "T2" {
		t.Fatalf("rec = %+v", rec)
	}
}

func TestVersionMonotonic(t *testing.T) {
	s := NewStore()
	var last uint64
	for i := 0; i < 10; i++ {
		s.Put("k", EncodeInt64(int64(i)), "T")
		rec, _ := s.Get("k")
		if rec.Version <= last {
			t.Fatalf("version not monotonic: %d after %d", rec.Version, last)
		}
		last = rec.Version
	}
}

func TestDeleteTombstone(t *testing.T) {
	s := NewStore()
	s.Put("a", Value("v"), "T1")
	prev, existed := s.Delete("a", "T2")
	if !existed || string(prev.Value) != "v" {
		t.Fatalf("prev = %+v", prev)
	}
	if _, err := s.Get("a"); !IsNotFound(err) {
		t.Fatalf("deleted key readable: %v", err)
	}
	// The tombstone is still visible through GetAny.
	rec, ok := s.GetAny("a")
	if !ok || !rec.Deleted || rec.Writer != "T2" {
		t.Fatalf("tombstone = %+v ok=%v", rec, ok)
	}
}

func TestRestorePreservesPayloadAndWriter(t *testing.T) {
	s := NewStore()
	s.Put("a", Value("orig"), "T1")
	orig, _ := s.Get("a")
	s.Put("a", Value("changed"), "T2")

	s.Restore(Record{Key: "a", Value: orig.Value}, "CT2")
	rec, err := s.Get("a")
	if err != nil {
		t.Fatalf("Get after restore: %v", err)
	}
	if string(rec.Value) != "orig" {
		t.Fatalf("value = %q, want orig", rec.Value)
	}
	if rec.Writer != "CT2" {
		t.Fatalf("writer = %q, want CT2 (attribution)", rec.Writer)
	}
	if rec.Version <= orig.Version {
		t.Fatalf("restore did not advance version: %d <= %d", rec.Version, orig.Version)
	}
}

func TestRemoveErasesKey(t *testing.T) {
	s := NewStore()
	s.Put("a", Value("v"), "T1")
	s.Remove("a")
	if _, ok := s.GetAny("a"); ok {
		t.Fatalf("removed key still present")
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d, want 0", s.Len())
	}
}

func TestLenExcludesTombstones(t *testing.T) {
	s := NewStore()
	s.Put("a", Value("v"), "T")
	s.Put("b", Value("v"), "T")
	s.Delete("a", "T")
	if got := s.Len(); got != 1 {
		t.Fatalf("Len = %d, want 1", got)
	}
	// Every way a record changes keeps the count: undo re-installing a
	// tombstone or a live value, a write over a tombstone, removals, and a
	// snapshot load (which carries live records only).
	for _, step := range []struct {
		do   func()
		want int
	}{
		{func() { s.Restore(Record{Key: "b", Deleted: true}, "U") }, 0},
		{func() { s.Restore(Record{Key: "b", Value: Value("v")}, "U") }, 1},
		{func() { s.Put("a", Value("w"), "T") }, 2},
		{func() { s.Delete("b", "T"); s.Remove("b") }, 1},
		{func() { s.Remove("a"); s.Remove("nope") }, 0},
		{func() { s.Put("c", Value("v"), "T"); s.LoadSnapshot(s.Snapshot()) }, 1},
	} {
		step.do()
		if got := s.Len(); got != step.want {
			t.Fatalf("Len = %d, want %d", got, step.want)
		}
	}
}

func TestKeysSorted(t *testing.T) {
	s := NewStore()
	for _, k := range []Key{"c", "a", "b"} {
		s.Put(k, Value("v"), "T")
	}
	keys := s.Keys()
	want := []Key{"a", "b", "c"}
	if len(keys) != len(want) {
		t.Fatalf("keys = %v", keys)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("keys = %v, want %v", keys, want)
		}
	}
}

func TestSnapshotIsDeepCopy(t *testing.T) {
	s := NewStore()
	s.Put("a", Value("v1"), "T")
	snap := s.Snapshot()
	s.Put("a", Value("v2"), "T")
	if string(snap["a"].Value) != "v1" {
		t.Fatalf("snapshot mutated by later write")
	}
	snap["a"].Value[0] = 'X'
	rec, _ := s.Get("a")
	if string(rec.Value) != "v2" {
		t.Fatalf("store mutated through snapshot")
	}
}

func TestLoadSnapshotRoundTrip(t *testing.T) {
	s := NewStore()
	for i := 0; i < 5; i++ {
		s.Put(Key(fmt.Sprintf("k%d", i)), EncodeInt64(int64(i)), "T")
	}
	snap := s.Snapshot()
	s2 := NewStore()
	s2.LoadSnapshot(snap)
	if s2.Len() != s.Len() {
		t.Fatalf("len mismatch: %d vs %d", s2.Len(), s.Len())
	}
	for _, k := range s.Keys() {
		a, _ := s.Get(k)
		b, err := s2.Get(k)
		if err != nil || !bytes.Equal(a.Value, b.Value) {
			t.Fatalf("key %s mismatch: %v vs %v (%v)", k, a.Value, b.Value, err)
		}
	}
	// Version counter must not regress below the snapshot's max.
	if s2.Version() == 0 {
		t.Fatalf("version counter not restored")
	}
}

func TestGetReturnsCopy(t *testing.T) {
	s := NewStore()
	s.Put("a", Value("abc"), "T")
	rec, _ := s.Get("a")
	rec.Value[0] = 'X'
	again, _ := s.Get("a")
	if string(again.Value) != "abc" {
		t.Fatalf("store mutated through Get result")
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := Key(fmt.Sprintf("k%d", g%4))
			for i := 0; i < 200; i++ {
				s.Put(key, EncodeInt64(int64(i)), "T")
				if rec, err := s.Get(key); err == nil && len(rec.Value) != 8 {
					t.Errorf("corrupt value length %d", len(rec.Value))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestInt64Codec(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 1 << 40, -(1 << 40), 9223372036854775807, -9223372036854775808} {
		got, err := DecodeInt64(EncodeInt64(v))
		if err != nil || got != v {
			t.Fatalf("roundtrip %d -> %d (%v)", v, got, err)
		}
	}
}

func TestInt64CodecQuick(t *testing.T) {
	f := func(v int64) bool {
		got, err := DecodeInt64(EncodeInt64(v))
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeInt64BadLength(t *testing.T) {
	if _, err := DecodeInt64(Value("short")); err == nil {
		t.Fatalf("want error for short value")
	}
	if _, err := DecodeInt64(nil); err == nil {
		t.Fatalf("want error for nil value")
	}
}

func TestMustDecodeInt64Panics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("MustDecodeInt64 did not panic on bad input")
		}
	}()
	MustDecodeInt64(Value("x"))
}

func TestStringCodec(t *testing.T) {
	if got := DecodeString(EncodeString("héllo")); got != "héllo" {
		t.Fatalf("got %q", got)
	}
}
