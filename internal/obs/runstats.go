package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// SchemaVersion identifies the RunStats JSON layout. Bump it on any
// field rename or semantic change; CI's bench gate and downstream
// consumers key on it.
const SchemaVersion = 1

// RunStats is the machine-readable run report: per-phase wall/CPU spans,
// the counter and gauge maps, and derived rates (cache hit rates, worker
// utilization). Zero-valued counters and gauges are omitted so reports
// stay small and the golden schema is insensitive to unexercised paths.
type RunStats struct {
	Schema   int                       `json:"schema"`
	Phases   []PhaseStats              `json:"phases,omitempty"`
	Counters map[string]int64          `json:"counters,omitempty"`
	Gauges   map[string]int64          `json:"gauges,omitempty"`
	Rates    map[string]float64        `json:"rates,omitempty"`
	Hists    map[string]HistogramStats `json:"histograms,omitempty"`
	// Introspection is the per-origin cost-attribution section (its own
	// schema, see introspect.go), attached by the driver after the
	// pipeline settles rather than collected through the registry.
	Introspection *Introspection `json:"introspection,omitempty"`
}

// PhaseStats is one span in the report tree.
type PhaseStats struct {
	Name string `json:"name"`
	// StartNS is the span's start offset from the registry's creation, so
	// the tree can be replayed on an absolute timeline (trace export).
	StartNS int64 `json:"start_ns,omitempty"`
	WallNS  int64 `json:"wall_ns,omitempty"`
	CPUNS   int64 `json:"cpu_ns,omitempty"`
	// Concurrent marks worker-shard spans (opened via Span.Child); they
	// overlap their siblings and are exported on distinct trace tids.
	Concurrent bool         `json:"concurrent,omitempty"`
	Children   []PhaseStats `json:"children,omitempty"`
}

// HistogramStats is a histogram frozen into the report: cumulative counts
// at each finite upper bound (the +Inf bucket equals Count). Bounds stay
// finite so the report marshals as plain JSON numbers.
type HistogramStats struct {
	Bounds     []float64 `json:"bounds"`
	Cumulative []int64   `json:"cumulative"`
	Count      int64     `json:"count"`
	Sum        float64   `json:"sum"`
}

// Snapshot freezes the registry into a RunStats report. Open spans are
// reported with their running wall time. Safe to call while counters are
// still being updated (values are read atomically), though a settled
// pipeline gives a consistent report.
func (r *Registry) Snapshot() *RunStats {
	if r == nil {
		return nil
	}
	rs := &RunStats{Schema: SchemaVersion}
	r.mu.Lock()
	roots := append([]*Span(nil), r.roots...)
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Counter, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()

	for _, s := range roots {
		rs.Phases = append(rs.Phases, s.stats())
	}
	rs.Counters = loadNonZero(counters)
	rs.Gauges = loadNonZero(gauges)
	rs.Rates = deriveRates(rs.Counters, rs.Gauges)
	for k, h := range hists {
		if h.Count() == 0 {
			continue // like zero-valued counters, unexercised histograms are omitted
		}
		if rs.Hists == nil {
			rs.Hists = map[string]HistogramStats{}
		}
		rs.Hists[k] = HistogramStats{
			Bounds:     h.Bounds(),
			Cumulative: h.Cumulative(),
			Count:      h.Count(),
			Sum:        h.Sum(),
		}
	}
	return rs
}

func loadNonZero(m map[string]*Counter) map[string]int64 {
	out := map[string]int64{}
	for k, c := range m {
		if v := c.Load(); v != 0 {
			out[k] = v
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

func (s *Span) stats() PhaseStats {
	s.mu.Lock()
	ps := PhaseStats{Name: s.Name, WallNS: int64(s.wall), CPUNS: int64(s.cpu), Concurrent: s.concurrent}
	if s.reg != nil {
		ps.StartNS = int64(s.start.Sub(s.reg.start))
	}
	if !s.ended {
		ps.WallNS = int64(time.Since(s.start))
		ps.CPUNS = int64(processCPU() - s.startCPU)
	}
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		ps.Children = append(ps.Children, c.stats())
	}
	return ps
}

// deriveRates computes the well-known derived metrics from the raw
// counter families, where present:
//
//	shb.reach_hit_rate      = shb.reach_hits / (hits + misses)
//	race.worker_utilization = race.worker_busy_ns / (workers × detect wall)
func deriveRates(counters, gauges map[string]int64) map[string]float64 {
	rates := map[string]float64{}
	ratio := func(name string, num, den int64) {
		if den > 0 {
			rates[name] = float64(num) / float64(den)
		}
	}
	ratio("shb.reach_hit_rate",
		counters["shb.reach_hits"],
		counters["shb.reach_hits"]+counters["shb.reach_misses"])
	if w := gauges["race.workers"]; w > 0 {
		ratio("race.worker_utilization",
			gauges["race.worker_busy_ns"],
			w*gauges["race.detect_wall_ns"])
	}
	if len(rates) == 0 {
		return nil
	}
	return rates
}

// Deterministic returns a copy of the report with every run-dependent
// value stripped: span wall/CPU times zeroed, counters and gauges whose
// name ends in "_ns", "_allocs" or "_bytes" dropped, time-derived rates
// dropped, and span
// children sorted by name (concurrent worker shards finish in arbitrary
// order). Two runs of the same workload at Workers=1 produce identical
// Deterministic reports, which is what the golden schema test and CI's
// bench gate compare; times are reported but never gated.
func (rs *RunStats) Deterministic() *RunStats {
	if rs == nil {
		return nil
	}
	out := &RunStats{Schema: rs.Schema}
	for _, p := range rs.Phases {
		out.Phases = append(out.Phases, detPhase(p))
	}
	out.Counters = dropTimes(rs.Counters)
	out.Gauges = dropTimes(rs.Gauges)
	delete(out.Gauges, "race.workers") // resolved from GOMAXPROCS
	if len(out.Gauges) == 0 {
		out.Gauges = nil
	}
	for k, v := range rs.Rates {
		if k == "race.worker_utilization" {
			continue
		}
		if out.Rates == nil {
			out.Rates = map[string]float64{}
		}
		out.Rates[k] = v
	}
	out.Introspection = rs.Introspection.Deterministic()
	return out
}

func detPhase(p PhaseStats) PhaseStats {
	out := PhaseStats{Name: p.Name}
	for _, c := range p.Children {
		out.Children = append(out.Children, detPhase(c))
	}
	sort.SliceStable(out.Children, func(i, j int) bool {
		return out.Children[i].Name < out.Children[j].Name
	})
	return out
}

func dropTimes(m map[string]int64) map[string]int64 {
	var out map[string]int64
	for k, v := range m {
		// "_allocs"/"_bytes" are the heap-allocation gauges (see
		// Registry.HeapGauges): background allocation makes them jitter
		// like times, so they are budget-gated rather than byte-compared.
		if strings.HasSuffix(k, "_ns") || strings.HasSuffix(k, "_allocs") || strings.HasSuffix(k, "_bytes") {
			continue
		}
		if out == nil {
			out = map[string]int64{}
		}
		out[k] = v
	}
	return out
}

// MarshalIndent renders the report as stable, human-diffable JSON (map
// keys sort lexicographically).
func (rs *RunStats) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(rs, "", "  ")
}

// WriteFile writes the indented JSON report to path.
func (rs *RunStats) WriteFile(path string) error {
	data, err := rs.MarshalIndent()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// WriteSpans prints the span tree with wall and CPU times, one line per
// span, indented by depth — the -trace-spans output.
func (r *Registry) WriteSpans(w io.Writer) {
	if r == nil {
		return
	}
	rs := r.Snapshot()
	for _, p := range rs.Phases {
		writePhase(w, p, 0)
	}
}

func writePhase(w io.Writer, p PhaseStats, depth int) {
	fmt.Fprintf(w, "%s%-*s wall=%-12v cpu=%v\n",
		strings.Repeat("  ", depth), 24-2*depth, p.Name,
		durNS(p.WallNS), durNS(p.CPUNS))
	for _, c := range p.Children {
		writePhase(w, c, depth+1)
	}
}

func durNS(ns int64) string {
	if ns == 0 {
		return "0"
	}
	return time.Duration(ns).String()
}
