package o2

import (
	"context"
	"fmt"
	"sort"

	"o2/internal/ir"
	"o2/internal/lang"
	"o2/internal/summary"
	"o2/internal/unit"
)

// IncStats reports what the incremental front end did for one run. It
// is attached to Result.Inc by AnalyzeIncremental; the same numbers are
// published as obs counters (inc.units_total, inc.units_reused,
// inc.units_recomputed, inc.replay_errors, inc.fallbacks) so they show
// up in RunStats without extra wiring.
type IncStats struct {
	// UnitsTotal is the number of units the program decomposed into.
	UnitsTotal int `json:"units_total"`
	// UnitsReused is how many units replayed a cached summary.
	UnitsReused int `json:"units_reused"`
	// UnitsRecomputed is how many units were lowered from source (the
	// "dirty" units: content, dependency, config or schema changed — or
	// simply never seen).
	UnitsRecomputed int `json:"units_recomputed"`
	// ReplayErrors counts cached fragments that failed to replay and
	// fell back to re-lowering that unit (sound: never wrong, only
	// slower).
	ReplayErrors int `json:"replay_errors,omitempty"`
	// Fallback is set when the whole program bypassed per-unit reuse
	// (nil store, extraction failure, or a change class the summaries
	// cannot express); FallbackReason says why.
	Fallback       bool   `json:"fallback,omitempty"`
	FallbackReason string `json:"fallback_reason,omitempty"`
}

// DirtyRatio is recomputed units over total (1.0 for a fallback or an
// empty program: nothing was reused).
func (s *IncStats) DirtyRatio() float64 {
	if s.UnitsTotal == 0 || s.Fallback {
		return 1
	}
	return float64(s.UnitsRecomputed) / float64(s.UnitsTotal)
}

// AnalyzeIncremental compiles and analyzes files with per-unit summary
// reuse: the program is split into class/method/function units, each
// keyed by the digest of its canonical content, its transitive
// dependency closure, the config fingerprint and the summary schema
// version. Units whose key hits the store replay their cached
// instruction fragment; only dirty units are lowered from source. The
// global phases (pointer analysis, OSA, SHB, detection) always run on
// the stitched program, so the report is identical to a from-scratch
// Analyze by construction — reuse only skips front-end work. Change
// classes the summaries cannot express (and programs that defeat unit
// identity) fall back to whole-program compilation, never to wrong
// results. Result.Inc reports what happened.
func AnalyzeIncremental(ctx context.Context, files map[string]string, cfg Config, store *summary.Store) (*Result, error) {
	cfg = cfg.normalize()
	st := &IncStats{}
	if store == nil {
		return incrementalFull(ctx, files, cfg, "no summary store", st)
	}
	names := make([]string, 0, len(files))
	for n := range files {
		names = append(names, n)
	}
	sort.Strings(names)
	var asts []*lang.File
	for _, n := range names {
		f, err := lang.Parse(n, files[n])
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCompile, err)
		}
		asts = append(asts, f)
	}
	man, err := unit.ExtractASTs(asts, cfg.Entries)
	if err != nil {
		return incrementalFull(ctx, files, cfg, "unit extraction: "+err.Error(), st)
	}
	if man.FullReason != "" {
		return incrementalFull(ctx, files, cfg, man.FullReason, st)
	}
	sh, err := lang.Declare(asts, cfg.Entries)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCompile, err)
	}
	fp := cfg.Fingerprint()
	// Units are processed in declaration order — library-class
	// auto-declaration must evolve exactly as in whole-program lowering.
	for _, id := range man.Order {
		u := man.Units[id]
		st.UnitsTotal++
		key := summary.Key(fp, u.ClosureDigest)
		if cached, ok := store.Get(key); ok && replayUnit(sh, u, cached, st) {
			st.UnitsReused++
			continue
		}
		if err := recomputeUnit(sh, u, key, store); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCompile, err)
		}
		st.UnitsRecomputed++
	}
	publishIncStats(cfg, st)
	res, err := Analyze(ctx, sh.Prog(), cfg)
	if err != nil {
		return nil, err
	}
	res.Inc = st
	return res, nil
}

// replayUnit replays a cached summary into the unit's shell. A replay
// failure resets the shell and reports false, sending the unit down the
// recompute path.
func replayUnit(sh *lang.Shell, u *unit.Unit, s *summary.Summary, st *IncStats) bool {
	if u.Kind == unit.KindClass {
		return true // the shell is fully declared already
	}
	fn := shellFunc(sh, u)
	if fn == nil || s.Frag == nil {
		return false
	}
	if err := unit.DecodeBody(sh.Prog(), sh.FuncByName, fn, u.File, u.BaseLine, s.Frag); err != nil {
		st.ReplayErrors++
		fn.ResetBody()
		return false
	}
	return true
}

// recomputeUnit lowers a dirty unit from source and refreshes its store
// entry. Bodies the fragment codec cannot round-trip stay uncached (they
// are recomputed every run) rather than failing the analysis.
func recomputeUnit(sh *lang.Shell, u *unit.Unit, key string, store *summary.Store) error {
	if u.Kind == unit.KindClass {
		store.Put(key, summary.DeriveClass(u))
		return nil
	}
	var err error
	if u.Kind == unit.KindMethod {
		err = sh.LowerMethod(u.File, u.Class, u.Decl)
	} else {
		err = sh.LowerFunc(u.File, u.Decl)
	}
	if err != nil {
		return err
	}
	fn := shellFunc(sh, u)
	if frag, ferr := unit.EncodeBody(fn, u.BaseLine); ferr == nil {
		store.Put(key, summary.Derive(u, fn, frag))
	}
	return nil
}

// shellFunc resolves a body unit to its declared shell function.
func shellFunc(sh *lang.Shell, u *unit.Unit) *ir.Func {
	if u.Kind == unit.KindMethod {
		return sh.Method(u.Class, u.Name)
	}
	return sh.FreeFunc(u.Name)
}

// incrementalFull is the sound whole-program fallback: compile and
// analyze exactly like AnalyzeSourceCtx, carrying the fallback reason
// in Result.Inc.
func incrementalFull(ctx context.Context, files map[string]string, cfg Config, reason string, st *IncStats) (*Result, error) {
	st.Fallback = true
	st.FallbackReason = reason
	cfg.Obs.Counter("inc.fallbacks").Inc()
	prog, err := lang.CompileFiles(files, cfg.Entries)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCompile, err)
	}
	res, err := Analyze(ctx, prog, cfg)
	if err != nil {
		return nil, err
	}
	res.Inc = st
	return res, nil
}

func publishIncStats(cfg Config, st *IncStats) {
	if cfg.Obs == nil {
		return
	}
	cfg.Obs.Counter("inc.units_total").Add(int64(st.UnitsTotal))
	cfg.Obs.Counter("inc.units_reused").Add(int64(st.UnitsReused))
	cfg.Obs.Counter("inc.units_recomputed").Add(int64(st.UnitsRecomputed))
	cfg.Obs.Counter("inc.replay_errors").Add(int64(st.ReplayErrors))
}
