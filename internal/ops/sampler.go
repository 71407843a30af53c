package ops

import (
	"runtime"
	"time"

	"o2pc/internal/metrics"
)

// sampler refreshes live runtime gauges in a registry on every scrape. It
// is the one deliberately non-deterministic corner of the metrics surface:
// the gauges read the real runtime and real elapsed time, which is why
// only the cluster binaries build an ops plane, never the virtual-time
// harness.
type sampler struct {
	goroutines *metrics.Gauge
	heapAlloc  *metrics.Gauge
	heapObj    *metrics.Gauge
	gcCycles   *metrics.Gauge
	uptime     *metrics.Gauge
}

func newSampler(reg *metrics.Registry) *sampler {
	reg.SetHelp("ops_goroutines", "live goroutine count (wall-clock sampler)")
	reg.SetHelp("ops_heap_alloc_bytes", "bytes of allocated heap objects (wall-clock sampler)")
	return &sampler{
		goroutines: reg.Gauge("ops_goroutines"),
		heapAlloc:  reg.Gauge("ops_heap_alloc_bytes"),
		heapObj:    reg.Gauge("ops_heap_objects"),
		gcCycles:   reg.Gauge("ops_gc_cycles"),
		uptime:     reg.Gauge("ops_uptime_seconds"),
	}
}

func (s *sampler) sample(uptime time.Duration) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.goroutines.Set(int64(runtime.NumGoroutine()))
	s.heapAlloc.Set(int64(ms.HeapAlloc))
	s.heapObj.Set(int64(ms.HeapObjects))
	s.gcCycles.Set(int64(ms.NumGC))
	s.uptime.Set(int64(uptime.Seconds()))
}

// enableProfiles switches on block and mutex profiling at modest rates so
// /debug/pprof/{block,mutex} carry data. The rates are process-global;
// disableProfiles restores them on Shutdown.
func enableProfiles() {
	runtime.SetBlockProfileRate(100_000) // one sample per 100µs blocked
	runtime.SetMutexProfileFraction(5)
}

func disableProfiles() {
	runtime.SetBlockProfileRate(0)
	runtime.SetMutexProfileFraction(0)
}
