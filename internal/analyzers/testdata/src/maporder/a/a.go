package a

import (
	"maps"
	"slices"
	"sort"

	"maporder/internal/helper"
	"maporder/internal/rpc"
	"maporder/internal/wal"
)

func direct(l *wal.FileLog, m map[string]int) {
	for k := range m {
		_, _ = l.Append(wal.Record{Key: k}) // want `wal\.FileLog\.Append called inside range over map m`
	}
}

func collected(l *wal.FileLog, m map[string]int) {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	for _, k := range keys {
		_, _ = l.Append(wal.Record{Key: k}) // want `called inside range over map-ordered slice keys`
	}
	sort.Strings(keys)
	for _, k := range keys {
		_, _ = l.Append(wal.Record{Key: k})
	}
}

func sortedIdiom(l *wal.FileLog, m map[string]int) {
	for _, k := range slices.Sorted(maps.Keys(m)) {
		_, _ = l.Append(wal.Record{Key: k})
	}
}

func collectKeepsOrder(l *wal.FileLog, m map[string]int) {
	ks := slices.Collect(maps.Keys(m))
	for _, k := range ks {
		_, _ = l.Append(wal.Record{Key: k}) // want `called inside range over map-ordered slice ks`
	}
}

func taintedArg(l *wal.FileLog, m map[string]int) {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	_ = l.Checkpoint(keys) // want `argument keys carries map-iteration order into wal\.FileLog\.Checkpoint`
}

func sortedArg(l *wal.FileLog, m map[string]int) {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	_ = l.Checkpoint(keys)
}

func crossPackage(l *wal.FileLog, m map[string]wal.Record) {
	for _, rec := range m {
		_ = helper.Forward(l, rec) // want `helper\.Forward called inside range over map m`
	}
}

func logAll(l *wal.FileLog, keys []string) {
	for _, k := range keys {
		_, _ = l.Append(wal.Record{Key: k})
	}
}

func viaLocalHelper(l *wal.FileLog, m map[string]int) {
	for k := range m {
		logAll(l, []string{k}) // want `a\.logAll called inside range over map m`
	}
}

func annotated(l *wal.FileLog, m map[string]int) {
	for k := range m {
		//o2pcvet:ignore maporder -- fixture: order-insensitive aggregate under test
		_, _ = l.Append(wal.Record{Key: k})
	}
}

// batchFanout is the per-peer coalescing shape: flushing one envelope
// per peer by ranging the bucket map ships envelopes in map order.
func batchFanout(c *rpc.Caller, buckets map[string][]wal.Record) {
	for peer := range buckets {
		_ = c.Call(peer, buckets[peer]) // want `rpc\.Caller\.Call called inside range over map buckets`
	}
}

// batchFanoutSorted flushes peers in sorted order: clean.
func batchFanoutSorted(c *rpc.Caller, buckets map[string][]wal.Record) {
	for _, peer := range slices.Sorted(maps.Keys(buckets)) {
		_ = c.Call(peer, buckets[peer])
	}
}

// batchPayloadTainted builds one envelope's contents by ranging a map:
// the payload itself carries map order onto the wire even though the
// Call sits outside any range.
func batchPayloadTainted(c *rpc.Caller, waiters map[string]wal.Record) {
	var msgs []wal.Record
	for _, w := range waiters {
		msgs = append(msgs, w)
	}
	_ = c.Call("s0", msgs) // want `argument msgs carries map-iteration order into rpc\.Caller\.Call`
}
