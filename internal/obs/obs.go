// Package obs is the pipeline's observability layer: named counters and
// gauges with atomic updates, hierarchical wall+CPU spans wrapping each
// pipeline phase (and each detection worker shard), and a stable,
// versioned JSON run report (RunStats) that the CLI, the bench harness and
// CI's bench gate consume.
//
// The whole API is nil-safe: a nil *Registry, *Counter or *Span turns
// every method into a no-op, so instrumentation stays inline on hot paths
// and compiles down to a predictable nil-check when observability is
// disabled. Benchmarked on the pairwise-check hot path the disabled
// registry costs under 2% (see BenchmarkParallelDetectObs).
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically updated atomic int64. The zero value is
// ready to use; a nil Counter discards updates.
type Counter struct {
	v atomic.Int64
}

// NewCounter returns a standalone counter not attached to any registry
// (used where stats must stay cheap and always-on, e.g. lockset tables,
// and may later be bound into a registry snapshot).
func NewCounter() *Counter { return &Counter{} }

// Add atomically adds n. No-op on a nil counter.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc adds 1. No-op on a nil counter.
func (c *Counter) Inc() { c.Add(1) }

// Load atomically reads the value; 0 on a nil counter.
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Set atomically replaces the value (gauge semantics). No-op on nil.
func (c *Counter) Set(n int64) {
	if c == nil {
		return
	}
	c.v.Store(n)
}

// DefBuckets are the default histogram bucket bounds in seconds, tuned
// for request/analysis latencies (sub-millisecond cache hits through
// multi-second cold analyses).
var DefBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// Histogram is a fixed-bucket histogram with atomic per-bucket counters,
// following the package's nil-safe design: a nil Histogram discards
// observations, so callers hold and observe unconditionally. Bounds are
// inclusive upper bounds in ascending order; values above the last bound
// land in an implicit +Inf bucket. The exposition (Prometheus text,
// RunStats snapshot) reports cumulative bucket counts.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

// NewHistogram returns a standalone histogram over the given ascending
// bounds (DefBuckets when nil).
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value. No-op on a nil histogram; the disabled path
// is a single nil check, like Counter.Add.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v, i.e. the le bucket
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since start — the common
// latency-instrumentation call. No-op on nil.
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(start).Seconds())
}

// Count returns the total number of observations; 0 on nil.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values; 0 on nil.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Bounds returns the finite upper bounds (not a copy; do not modify).
func (h *Histogram) Bounds() []float64 {
	if h == nil {
		return nil
	}
	return h.bounds
}

// Cumulative returns the cumulative count at or below each finite bound,
// aligned with Bounds. The total (the +Inf bucket) is Count.
func (h *Histogram) Cumulative() []int64 {
	if h == nil {
		return nil
	}
	out := make([]int64, len(h.bounds))
	var acc int64
	for i := range h.bounds {
		acc += h.counts[i].Load()
		out[i] = acc
	}
	return out
}

// Registry interns counters, gauges and histograms by name and owns the
// span tree. All methods are safe for concurrent use and no-ops on a nil
// receiver.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Counter
	hists    map[string]*Histogram

	start time.Time
	roots []*Span
	cur   *Span // innermost open span started by StartSpan
}

// New returns an enabled registry.
func New() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Counter{},
		hists:    map[string]*Histogram{},
		start:    time.Now(),
	}
}

// Enabled reports whether the registry collects anything.
func (r *Registry) Enabled() bool { return r != nil }

// Counter interns the named counter. Returns nil on a nil registry, so
// the result can be held and updated unconditionally.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram interns the named histogram over the given bounds (DefBuckets
// when nil). The bounds of the first interning win; later calls with
// different bounds return the existing histogram. Returns nil on a nil
// registry, so the result can be held and observed unconditionally.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = NewHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// SetGauge records a point-in-time value (sizes, configuration). Gauges
// are reported separately from counters in RunStats.
func (r *Registry) SetGauge(name string, v int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	g := r.gauges[name]
	if g == nil {
		g = &Counter{}
		r.gauges[name] = g
	}
	r.mu.Unlock()
	g.Set(v)
}

// Span is one timed region of the pipeline. Spans form a tree: phases
// started from the driver goroutine nest via Registry.StartSpan /
// Span.End, and concurrent shards (detection workers) hang off an open
// phase via Span.Child. Wall time is the span's own clock; CPU time is
// the process-wide rusage delta over the span, so concurrent children
// overlap (their CPU sums can exceed the parent's wall time by design).
type Span struct {
	Name string

	reg    *Registry
	parent *Span

	// concurrent marks spans opened via Child: they run on their own
	// goroutine (worker shards) and are exported on distinct trace tids.
	concurrent bool

	start    time.Time
	startCPU time.Duration

	mu       sync.Mutex
	children []*Span
	wall     time.Duration
	cpu      time.Duration
	ended    bool
}

// StartSpan opens a span as a child of the innermost open span (or as a
// root). Ends must be properly nested; concurrent regions use Child.
// Returns nil (a no-op span) on a nil registry.
func (r *Registry) StartSpan(name string) *Span {
	if r == nil {
		return nil
	}
	s := &Span{Name: name, reg: r, start: time.Now(), startCPU: processCPU()}
	r.mu.Lock()
	s.parent = r.cur
	if r.cur != nil {
		r.cur.addChild(s)
	} else {
		r.roots = append(r.roots, s)
	}
	r.cur = s
	r.mu.Unlock()
	return s
}

// Child opens a concurrent child span. Unlike StartSpan it does not
// become the registry's innermost span, so any number of children may be
// open at once (one per worker shard). No-op on a nil span.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{Name: name, reg: s.reg, parent: s, concurrent: true, start: time.Now(), startCPU: processCPU()}
	s.addChild(c)
	return c
}

func (s *Span) addChild(c *Span) {
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
}

// End closes the span, recording wall and CPU time. If the span is the
// registry's innermost open span the cursor pops back to its parent.
// No-op on a nil or already-ended span.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.wall = time.Since(s.start)
	s.cpu = processCPU() - s.startCPU
	s.mu.Unlock()
	if s.reg != nil {
		s.reg.mu.Lock()
		if s.reg.cur == s {
			s.reg.cur = s.parent
		}
		s.reg.mu.Unlock()
	}
}

// Wall returns the recorded wall time (the running time if not ended).
func (s *Span) Wall() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ended {
		return time.Since(s.start)
	}
	return s.wall
}
