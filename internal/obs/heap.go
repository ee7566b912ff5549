package obs

import "runtime"

// HeapCounters is a snapshot of the runtime's cumulative heap-allocation
// totals. Both values are monotonically increasing over the life of the
// process, so the difference of two snapshots is the number of objects and
// bytes allocated between them — the same quantities testing.B reports as
// allocs/op and B/op, but readable around an arbitrary code region.
type HeapCounters struct {
	Objects uint64
	Bytes   uint64
}

// HeapMark samples the exact cumulative allocation totals when the
// registry is enabled and returns the zero value otherwise. It reads
// runtime.ReadMemStats, which flushes every P's allocation cache first:
// runtime/metrics totals miss what those caches still hold, so their
// phase attribution shifts with GOMAXPROCS. ReadMemStats stops the world,
// so callers take marks only outside their timed intervals.
func (r *Registry) HeapMark() HeapCounters {
	if !r.Enabled() {
		return HeapCounters{}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return HeapCounters{Objects: ms.Mallocs, Bytes: ms.TotalAlloc}
}

// HeapGauges publishes the allocation delta since the given mark as two
// gauges, "<phase>.heap_allocs" and "<phase>.heap_bytes". The
// "_allocs"/"_bytes" suffixes mark them as non-deterministic (GC assists
// and timer goroutines allocate too), so RunStats.Deterministic strips
// them alongside the "_ns" times; CI gates them through explicit budgets
// instead of byte comparison. No-op on a nil registry.
func (r *Registry) HeapGauges(phase string, base HeapCounters) {
	if !r.Enabled() {
		return
	}
	now := r.HeapMark()
	r.SetGauge(phase+".heap_allocs", int64(now.Objects-base.Objects))
	r.SetGauge(phase+".heap_bytes", int64(now.Bytes-base.Bytes))
}
