// Package bench regenerates every table of the paper's evaluation (§5)
// over the synthetic workload presets and case studies. Absolute numbers
// differ from the paper (the substrate is minilang, not LLVM/WALA over the
// real corpus); the comparisons each table makes — who is faster, who
// reports fewer warnings, where timeouts appear — reproduce the paper's
// shapes. Budgets stand in for the paper's 4-hour timeout.
package bench

import (
	"time"

	"o2/internal/escape"
	"o2/internal/ir"
	"o2/internal/obs"
	"o2/internal/osa"
	"o2/internal/pta"
	"o2/internal/race"
	"o2/internal/shb"
	"o2/internal/workload"
)

// Opts configures a harness run.
type Opts struct {
	// StepBudget bounds each pointer analysis (0 = default 30M steps).
	StepBudget int64
	// PairBudget bounds each detection (0 = default 3M pairs).
	PairBudget int64
	// Quick restricts sweeps to a representative subset of presets.
	Quick bool
	// Workers sets the detection worker-pool size (0 = GOMAXPROCS,
	// 1 = sequential).
	Workers int
	// Obs receives phase spans and counters from every pipeline the
	// harness runs (nil = disabled). Sweeps over many presets accumulate
	// spans per phase; the CI gate uses one registry per preset instead.
	Obs *obs.Registry
}

// The default step budget plays the role of the paper's 4-hour timeout:
// calibrated so that 0-ctx, OPA and 1-CFA always fit while the deep-context
// blowups exceed it where the paper reports ">4h".
func (o Opts) steps() int64 {
	if o.StepBudget == 0 {
		return 500_000
	}
	return o.StepBudget
}

func (o Opts) pairs() int64 {
	if o.PairBudget == 0 {
		return 3_000_000
	}
	return o.PairBudget
}

// detectOpts is race.O2Options carrying the harness worker-pool and
// observability settings, so every table honors -workers and -stats-json.
func (o Opts) detectOpts() race.Options {
	opts := race.O2Options()
	opts.Workers = o.Workers
	opts.Obs = o.Obs
	return opts
}

// Policies compared throughout the evaluation, in paper column order.
var (
	P0    = pta.Policy{Kind: pta.Insensitive}
	POPA  = pta.Policy{Kind: pta.KOrigin, K: 1}
	P1CFA = pta.Policy{Kind: pta.KCFA, K: 1}
	P2CFA = pta.Policy{Kind: pta.KCFA, K: 2}
	P1Obj = pta.Policy{Kind: pta.KObj, K: 1}
	P2Obj = pta.Policy{Kind: pta.KObj, K: 2}
)

// AllPolicies is the Table 5/8 policy column order.
var AllPolicies = []pta.Policy{P0, POPA, P1CFA, P2CFA, P1Obj, P2Obj}

// PTARun is the result of one pointer-analysis execution.
type PTARun struct {
	A        *pta.Analysis
	Stats    pta.Stats
	Time     time.Duration
	TimedOut bool
}

// RunPTA executes one pointer analysis under a budget.
func RunPTA(prog *ir.Program, pol pta.Policy, entries ir.EntryConfig, stepBudget int64) PTARun {
	return RunPTAObs(prog, pol, entries, stepBudget, nil)
}

// RunPTAObs is RunPTA reporting into an observability registry.
func RunPTAObs(prog *ir.Program, pol pta.Policy, entries ir.EntryConfig, stepBudget int64, reg *obs.Registry) PTARun {
	a := pta.New(prog, pta.Config{Policy: pol, Entries: entries, StepBudget: stepBudget, Obs: reg})
	h0 := reg.HeapMark()
	t0 := time.Now()
	err := a.Solve()
	dt := time.Since(t0)
	reg.HeapGauges("pta", h0)
	return PTARun{A: a, Stats: a.Stats(), Time: dt, TimedOut: err != nil}
}

// DetectRun is the result of one full detection pipeline stage (OSA + SHB
// + race engine) on top of a solved pointer analysis.
type DetectRun struct {
	Sharing  *osa.Result
	Graph    *shb.Graph
	Report   *race.Report
	OSATime  time.Duration
	SHBTime  time.Duration
	Time     time.Duration // detection only
	TimedOut bool
}

// RunDetect executes OSA, SHB construction and race detection. The
// registry in opts.Obs (if any) also observes the OSA and SHB phases and
// gets each phase's heap gauges; the marks sit outside the timed
// intervals.
func RunDetect(a *pta.Analysis, opts race.Options, android bool, pairBudget int64) DetectRun {
	opts.PairBudget = pairBudget
	reg := opts.Obs
	h := reg.HeapMark()
	t0 := time.Now()
	sharing := osa.AnalyzeWith(a, reg)
	osaTime := time.Since(t0)
	reg.HeapGauges("osa", h)
	h = reg.HeapMark()
	t0 = time.Now()
	g := shb.Build(a, shb.Config{AndroidEvents: android, Obs: reg})
	shbTime := time.Since(t0)
	reg.HeapGauges("shb", h)
	h = reg.HeapMark()
	t0 = time.Now()
	rep := race.Detect(a, sharing, g, opts)
	detectTime := time.Since(t0)
	reg.HeapGauges("detect", h)
	return DetectRun{
		Sharing: sharing, Graph: g, Report: rep,
		OSATime: osaTime, SHBTime: shbTime, Time: detectTime,
		TimedOut: rep.TimedOut,
	}
}

// Pipeline runs PTA + detection for one preset and policy.
type Pipeline struct {
	PTA    PTARun
	Detect DetectRun
	// Total is PTA + OSA + SHB + detection (the paper's race-detection
	// columns include the pointer analysis).
	Total    time.Duration
	TimedOut bool
}

// RunPipeline runs the full O2 pipeline on a generated preset program.
func RunPipeline(p workload.Preset, pol pta.Policy, o Opts) Pipeline {
	entries := ir.DefaultEntryConfig()
	prog := workload.Build(p, entries)
	return RunPipelineProg(prog, pol, entries, o, false)
}

// RunPipelineProg runs the full pipeline on an existing program.
func RunPipelineProg(prog *ir.Program, pol pta.Policy, entries ir.EntryConfig, o Opts, android bool) Pipeline {
	pr := RunPTAObs(prog, pol, entries, o.steps(), o.Obs)
	if pr.TimedOut {
		return Pipeline{PTA: pr, Total: pr.Time, TimedOut: true}
	}
	dr := RunDetect(pr.A, o.detectOpts(), android, o.pairs())
	return Pipeline{
		PTA: pr, Detect: dr,
		Total:    pr.Time + dr.OSATime + dr.SHBTime + dr.Time,
		TimedOut: dr.TimedOut,
	}
}

// RunEscape runs the TLOA-style escape analysis (over 2-CFA, per §5.1.2)
// on a preset. The bool reports whether the underlying pointer analysis
// timed out (TLOA inherits the timeout).
func RunEscape(p workload.Preset, o Opts) (*escape.Report, time.Duration, bool) {
	entries := ir.DefaultEntryConfig()
	prog := workload.Build(p, entries)
	pr := RunPTA(prog, P2CFA, entries, o.steps())
	if pr.TimedOut {
		return nil, pr.Time, true
	}
	rep := escape.Analyze(pr.A)
	return rep, pr.Time + rep.Elapsed, false
}
