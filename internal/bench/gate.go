package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"o2/internal/obs"
	"o2/internal/workload"
)

// The bench gate is CI's drift detector: it runs three fixed workload
// presets (one Dacapo-style, one distributed-system, one C-server) through
// the full pipeline at Workers=1, freezes each run's observability report,
// and compares the deterministic projection — pairs checked, per-phase
// size counters, cache hit rates, races — against a checked-in golden
// file. Wall/CPU times are carried in the emitted artifact (BENCH_ci.json)
// for trend tracking but are never gated. Heap allocations sit in between:
// too jittery for byte comparison, too important to leave ungated, so the
// golden carries explicit per-phase ceilings (see AllocBudgets).

// GatePresetNames are the fixed gate workloads, chosen to cover the three
// benchmark families while keeping the gate fast.
var GatePresetNames = []string{"avrora", "zookeeper", "memcached"}

// GateReport is the bench gate's machine-readable artifact.
type GateReport struct {
	Schema  int          `json:"schema"`
	Presets []GatePreset `json:"presets"`
	// GoSync is the report-only channel-heavy workload section (see
	// GoSyncGateStats). Timing-dependent, never golden-gated — but
	// computing it hard-fails if a channel/WaitGroup-ordered handoff
	// field races.
	GoSync *GoSyncGateStats `json:"gosync,omitempty"`
	// AllocBudgets are the hard per-preset per-phase heap-allocation
	// ceilings, keyed "preset/phase" (phases: allocBudgetPhases), measured
	// exactly (see obs.Registry.HeapMark). Unlike the byte-compared
	// counters, allocation counts jitter slightly (GC assists, timer
	// goroutines), so -update-golden records measured×1.10
	// plus a small noise floor (see budgetFromMeasured) and every gate run
	// fails if a phase allocates more than its ceiling
	// — i.e. regresses by more than 10% over the recorded baseline. Times
	// are never gated; allocations are.
	AllocBudgets map[string]AllocBudget `json:"alloc_budgets,omitempty"`
}

// AllocBudget is one phase's allocation ceiling (objects and bytes).
type AllocBudget struct {
	Allocs int64 `json:"allocs"`
	Bytes  int64 `json:"bytes"`
}

// allocBudgetPhases are the phases with hard allocation budgets: all four
// analysis phases.
var allocBudgetPhases = []string{"pta", "osa", "shb", "detect"}

// measuredAllocs extracts the per-preset per-phase heap-allocation gauges
// from the report, keyed like AllocBudgets.
func (r *GateReport) measuredAllocs() map[string]AllocBudget {
	out := map[string]AllocBudget{}
	for _, p := range r.Presets {
		if p.Stats == nil {
			continue
		}
		for _, ph := range allocBudgetPhases {
			out[p.Name+"/"+ph] = AllocBudget{
				Allocs: p.Stats.Gauges[ph+".heap_allocs"],
				Bytes:  p.Stats.Gauges[ph+".heap_bytes"],
			}
		}
	}
	return out
}

// budgetFromMeasured converts measured allocation counts into ceilings:
// 10% relative headroom plus a small absolute noise floor. The floor
// matters for phases the optimization drove to near-zero (avrora's
// detect measures single-digit allocs): the heap counters are
// process-global, so a stray timer or GC-assist allocation from another
// goroutine must not fail CI on a phase whose 10% headroom rounds to
// nothing.
func budgetFromMeasured(m map[string]AllocBudget) map[string]AllocBudget {
	const (
		allocSlack = 32
		byteSlack  = 8192
	)
	out := make(map[string]AllocBudget, len(m))
	for k, v := range m {
		out[k] = AllocBudget{
			Allocs: v.Allocs + v.Allocs/10 + allocSlack,
			Bytes:  v.Bytes + v.Bytes/10 + byteSlack,
		}
	}
	return out
}

// checkAllocBudgets fails if any measured phase exceeds its recorded
// ceiling. Budgets absent from the golden (older golden files) gate
// nothing, so the check is backward-compatible.
func checkAllocBudgets(measured, budgets map[string]AllocBudget) error {
	var over []string
	for k, b := range budgets {
		m, ok := measured[k]
		if !ok {
			continue
		}
		if m.Allocs > b.Allocs {
			over = append(over, fmt.Sprintf("%s: %d allocs > budget %d", k, m.Allocs, b.Allocs))
		}
		if m.Bytes > b.Bytes {
			over = append(over, fmt.Sprintf("%s: %d heap bytes > budget %d", k, m.Bytes, b.Bytes))
		}
	}
	if len(over) == 0 {
		return nil
	}
	sort.Strings(over)
	return fmt.Errorf("bench gate: allocation budget exceeded (>10%% regression; re-baseline with -update-golden if intended):\n  %s",
		strings.Join(over, "\n  "))
}

// GatePreset is one workload's gate entry.
type GatePreset struct {
	Name     string        `json:"name"`
	Policy   string        `json:"policy"`
	Races    int           `json:"races"`
	TimedOut bool          `json:"timed_out,omitempty"`
	Stats    *obs.RunStats `json:"stats"`
}

// RunGate executes the gate workloads. Worker count is pinned to 1 so
// every counter in the report — including the cache hit/miss splits,
// which depend on query order — is deterministic.
func RunGate(o Opts) (*GateReport, error) {
	rep := &GateReport{Schema: obs.SchemaVersion}
	for _, name := range GatePresetNames {
		p, ok := workload.ByName(name)
		if !ok {
			return nil, fmt.Errorf("bench gate: unknown preset %q", name)
		}
		run := o
		run.Workers = 1
		run.Obs = obs.New()
		// Park the collector for the measured pipeline: the heap-alloc
		// gauges otherwise jitter ±25% with GC pacer timing (a collection
		// landing mid-phase perturbs growth reallocation counts), far too
		// noisy for the 10% budget gate. With GC off they repeat to ±0.5%.
		// Each preset's pipeline peaks at a few MB, so running it
		// uncollected is safe.
		runtime.GC()
		oldGC := debug.SetGCPercent(-1)
		pl := RunPipeline(p, POPA, run)
		debug.SetGCPercent(oldGC)
		gp := GatePreset{
			Name:     name,
			Policy:   POPA.Name(),
			TimedOut: pl.TimedOut,
			Stats:    run.Obs.Snapshot(),
		}
		if pl.Detect.Report != nil {
			gp.Races = len(pl.Detect.Report.Races)
		}
		rep.Presets = append(rep.Presets, gp)
	}
	gsPreset, ok := workload.ByName("gosync")
	if !ok {
		return nil, fmt.Errorf("bench gate: unknown preset %q", "gosync")
	}
	gsRun := o
	gsRun.Workers = 1
	gs, err := RunGoSyncGate(RunPipeline(gsPreset, POPA, gsRun), gsPreset.Name)
	if err != nil {
		return nil, fmt.Errorf("bench gate: %w", err)
	}
	rep.GoSync = gs
	return rep, nil
}

// Deterministic projects the report onto its gated fields: times are
// stripped from every preset's stats (see obs.RunStats.Deterministic) and
// the report-only gosync section is dropped.
func (r *GateReport) Deterministic() *GateReport {
	out := &GateReport{Schema: r.Schema}
	for _, p := range r.Presets {
		p.Stats = p.Stats.Deterministic()
		out.Presets = append(out.Presets, p)
	}
	return out
}

// MarshalIndent renders the report as stable, diffable JSON.
func (r *GateReport) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// CompareGolden checks the report's deterministic projection against the
// golden bytes and returns a drift error listing the differing lines.
func (r *GateReport) CompareGolden(golden []byte) error {
	var gr GateReport
	if err := json.Unmarshal(golden, &gr); err != nil {
		return fmt.Errorf("bench gate: bad golden file: %w", err)
	}
	want, err := gr.Deterministic().MarshalIndent()
	if err != nil {
		return err
	}
	got, err := r.Deterministic().MarshalIndent()
	if err != nil {
		return err
	}
	if bytes.Equal(got, want) {
		return nil
	}
	return fmt.Errorf("bench gate: stats drifted from golden:\n%s", diffLines(string(want), string(got)))
}

// diffLines is a minimal line diff: it reports lines present in only one
// of the two renderings (enough to localize a counter drift).
func diffLines(want, got string) string {
	wl := strings.Split(want, "\n")
	gl := strings.Split(got, "\n")
	count := func(ls []string) map[string]int {
		m := map[string]int{}
		for _, l := range ls {
			m[l]++
		}
		return m
	}
	wc, gc := count(wl), count(gl)
	var sb strings.Builder
	for _, l := range wl {
		if gc[l] < wc[l] {
			fmt.Fprintf(&sb, "  -%s\n", l)
			wc[l]--
		}
	}
	for _, l := range gl {
		if wc[l] < gc[l] {
			fmt.Fprintf(&sb, "  +%s\n", l)
			gc[l]--
		}
	}
	out := sb.String()
	if out == "" {
		out = "  (line ordering changed)"
	}
	return strings.TrimRight(out, "\n")
}

// Gate runs the gate workloads, writes the full (timed) report to
// statsPath if non-empty, and fails on any deterministic drift from the
// golden file. With update=true it rewrites the golden's deterministic
// projection instead of comparing.
func Gate(w io.Writer, o Opts, goldenPath, statsPath string, update bool) error {
	rep, err := RunGate(o)
	if err != nil {
		return err
	}
	if statsPath != "" {
		data, err := rep.MarshalIndent()
		if err != nil {
			return err
		}
		if err := os.WriteFile(statsPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "bench gate: wrote %s\n", statsPath)
	}
	for _, p := range rep.Presets {
		pairs := int64(0)
		if p.Stats != nil {
			pairs = p.Stats.Counters["race.pairs_checked"]
		}
		fmt.Fprintf(w, "bench gate: %-12s races=%-3d pairs=%d\n", p.Name, p.Races, pairs)
	}
	if rep.GoSync != nil {
		fmt.Fprintf(w, "bench gate: gosync %-10s races=%-3d pairs=%d shb=%d nodes/%d edges wall=%v [report-only]\n",
			rep.GoSync.Preset, rep.GoSync.Races, rep.GoSync.Pairs,
			rep.GoSync.SHBNodes, rep.GoSync.SHBEdges, time.Duration(rep.GoSync.WallNS))
	}
	if update {
		det := rep.Deterministic()
		det.AllocBudgets = budgetFromMeasured(rep.measuredAllocs())
		data, err := det.MarshalIndent()
		if err != nil {
			return err
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "bench gate: updated golden %s (%d alloc budgets)\n", goldenPath, len(det.AllocBudgets))
		return nil
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		return fmt.Errorf("bench gate: missing golden (run with -update-golden): %w", err)
	}
	if err := rep.CompareGolden(golden); err != nil {
		return err
	}
	var gr GateReport
	if err := json.Unmarshal(golden, &gr); err != nil {
		return fmt.Errorf("bench gate: bad golden file: %w", err)
	}
	if err := checkAllocBudgets(rep.measuredAllocs(), gr.AllocBudgets); err != nil {
		return err
	}
	fmt.Fprintf(w, "bench gate: ok (matches %s, %d alloc budgets honored)\n", goldenPath, len(gr.AllocBudgets))
	return nil
}
