package truth

import (
	"context"
	"strings"
	"sync"
	"testing"

	"o2"
	"o2/internal/obs"
	"o2/internal/report"
	"o2/internal/summary"
)

// The incremental-vs-full equivalence harness. The invariant is exact:
// for every corpus program and every metamorphic edit, the canonical
// race-key set of a warm incremental analysis must be byte-identical to
// a from-scratch analysis of the same text. There is no tolerance — a
// single diverging key means a cached summary replayed into the wrong
// program.

func keyIdents(keys []report.RaceKey) string {
	ids := make([]string, len(keys))
	for i, k := range keys {
		ids[i] = k.Ident()
	}
	return strings.Join(ids, "\n")
}

// requireSameKeys asserts byte-identical canonical key sets.
func requireSameKeys(t *testing.T, what string, want, got []report.RaceKey) {
	t.Helper()
	if keyIdents(want) != keyIdents(got) {
		t.Errorf("%s: race sets differ\n--- full ---\n%s\n--- incremental ---\n%s",
			what, keyIdents(want), keyIdents(got))
	}
}

// TestIncrementalEquivalenceCorpus runs every corpus program cold and
// warm through the incremental path and checks both against the full
// pipeline. A warm rerun of unchanged source must reuse every unit.
func TestIncrementalEquivalenceCorpus(t *testing.T) {
	corpus, err := Corpus()
	if err != nil {
		t.Fatal(err)
	}
	for i := range corpus {
		p := &corpus[i]
		t.Run(p.Name, func(t *testing.T) {
			full, err := p.ActualKeys()
			if err != nil {
				t.Fatal(err)
			}
			store := summary.NewStore(0)
			cold, coldSt, err := p.IncrementalKeys(store)
			if err != nil {
				t.Fatal(err)
			}
			requireSameKeys(t, "cold", full, cold)
			if !coldSt.Fallback && coldSt.UnitsRecomputed != coldSt.UnitsTotal {
				t.Errorf("cold run on empty store reused units: %+v", coldSt)
			}
			warm, warmSt, err := p.IncrementalKeys(store)
			if err != nil {
				t.Fatal(err)
			}
			requireSameKeys(t, "warm", full, warm)
			if !warmSt.Fallback {
				if warmSt.UnitsRecomputed != 0 || warmSt.UnitsReused != warmSt.UnitsTotal {
					t.Errorf("warm rerun of unchanged source not fully reused: %+v", warmSt)
				}
				if warmSt.DirtyRatio() != 0 {
					t.Errorf("warm dirty ratio = %v, want 0", warmSt.DirtyRatio())
				}
			}
		})
	}
}

// TestIncrementalEquivalenceMetamorphic is the edit-sequence arm: for
// every program, seed the store cold on the original source, apply each
// metamorphic transform as the "edit", and compare a warm incremental
// analysis of the edited text against a from-scratch analysis of the
// same text. Both paths see identical input, so the keys must be
// byte-identical with no line mapping.
func TestIncrementalEquivalenceMetamorphic(t *testing.T) {
	corpus, err := Corpus()
	if err != nil {
		t.Fatal(err)
	}
	for i := range corpus {
		p := &corpus[i]
		t.Run(p.Name, func(t *testing.T) {
			// Seed from the canonical form: transforms emit canonical
			// text, so units untouched by the edit keep their digests
			// and genuinely replay from the store.
			canonical, err := FormattedSource(p, Transforms()[0])
			if err != nil {
				t.Fatal(err)
			}
			for _, tr := range Transforms() {
				store := summary.NewStore(0)
				if _, _, err := incrementalKeysText(p, canonical, store); err != nil {
					t.Fatalf("%s: cold seed: %v", tr.Name, err)
				}
				text, err := FormattedSource(p, tr)
				if err != nil {
					t.Fatalf("%s: %v", tr.Name, err)
				}
				res, err := o2AnalyzeText(p, text)
				if err != nil {
					t.Fatalf("%s: full analysis of edited text: %v", tr.Name, err)
				}
				full := report.Canonical(res.Report, res.Analysis.Origins)
				inc, st, err := incrementalKeysText(p, text, store)
				if err != nil {
					t.Fatalf("%s: warm incremental analysis: %v", tr.Name, err)
				}
				requireSameKeys(t, tr.Name, full, inc)
				if !st.Fallback && st.UnitsReused+st.UnitsRecomputed != st.UnitsTotal {
					t.Errorf("%s: unit accounting broken: %+v", tr.Name, st)
				}
				// Content digests are position-independent and fragment
				// lines are decl-relative, so edits that only reformat
				// or move declarations must replay every unit.
				if !st.Fallback && (tr.Name == "pretty-print" || tr.Name == "reorder-decls") &&
					st.UnitsReused != st.UnitsTotal {
					t.Errorf("%s: expected full reuse, got %+v", tr.Name, st)
				}
			}
		})
	}
}

// oneUnitEdit appends a redundant self-assignment line inside the body
// of the named method/function by textual insertion on the canonical
// form — a strictly local edit that dirties exactly one body unit.
func oneUnitEdit(t *testing.T, p *Program, marker string) string {
	t.Helper()
	text, err := FormattedSource(p, Transforms()[0]) // canonical pretty-print
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(text, "\n")
	for i, ln := range lines {
		if strings.Contains(ln, marker) {
			indent := ln[:len(ln)-len(strings.TrimLeft(ln, "\t"))]
			edited := append([]string{}, lines[:i+1]...)
			edited = append(edited, indent+"\txq_inc_edit = null;")
			edited = append(edited, lines[i+1:]...)
			return strings.Join(edited, "\n")
		}
	}
	t.Fatalf("marker %q not found in canonical source:\n%s", marker, text)
	return ""
}

// TestIncrementalOneUnitEdit is the acceptance criterion in miniature:
// a warm re-analysis after a one-unit edit must recompute strictly
// fewer units than the cold run, remain key-identical to a from-scratch
// run, and say so through the obs counters.
func TestIncrementalOneUnitEdit(t *testing.T) {
	corpus, err := Corpus()
	if err != nil {
		t.Fatal(err)
	}
	var p *Program
	for i := range corpus {
		if corpus[i].Name == "thread_counter" {
			p = &corpus[i]
		}
	}
	if p == nil {
		t.Fatal("corpus program thread_counter missing")
	}
	canonical, err := FormattedSource(p, Transforms()[0])
	if err != nil {
		t.Fatal(err)
	}
	store := summary.NewStore(0)
	_, coldSt, err := incrementalKeysText(p, canonical, store)
	if err != nil {
		t.Fatal(err)
	}
	if coldSt.Fallback {
		t.Fatalf("thread_counter unexpectedly fell back: %s", coldSt.FallbackReason)
	}
	if coldSt.UnitsTotal < 3 {
		t.Fatalf("need a multi-unit program, got %d units", coldSt.UnitsTotal)
	}

	edited := oneUnitEdit(t, p, "main {")
	res, err := o2AnalyzeText(p, edited)
	if err != nil {
		t.Fatalf("full analysis of edited text: %v", err)
	}
	full := report.Canonical(res.Report, res.Analysis.Origins)

	reg := obs.New()
	cfg := p.Config()
	cfg.Obs = reg
	ires, err := o2.AnalyzeIncremental(context.Background(), map[string]string{p.File: edited}, cfg, store)
	if err != nil {
		t.Fatalf("warm incremental analysis: %v", err)
	}
	warm := report.Canonical(ires.Report, ires.Analysis.Origins)
	requireSameKeys(t, "one-unit edit", full, warm)

	st := ires.Inc
	if st.Fallback {
		t.Fatalf("one-unit edit fell back to full compilation: %s", st.FallbackReason)
	}
	if st.UnitsRecomputed >= coldSt.UnitsTotal {
		t.Errorf("warm edit recomputed %d units, cold total is %d — nothing was reused",
			st.UnitsRecomputed, coldSt.UnitsTotal)
	}
	if st.UnitsReused == 0 {
		t.Errorf("warm edit reused no units: %+v", st)
	}
	if r := st.DirtyRatio(); r <= 0 || r >= 1 {
		t.Errorf("dirty ratio %v, want in (0, 1)", r)
	}

	// The same facts must be visible through the observability layer:
	// RunStats carries the inc.* counters the scheduler and /metrics use.
	if ires.RunStats == nil {
		t.Fatal("RunStats missing despite Obs registry")
	}
	c := ires.RunStats.Counters
	if c["inc.units_total"] != int64(st.UnitsTotal) ||
		c["inc.units_reused"] != int64(st.UnitsReused) ||
		c["inc.units_recomputed"] != int64(st.UnitsRecomputed) {
		t.Errorf("obs counters disagree with IncStats: counters=%v stats=%+v", c, st)
	}
	if c["inc.units_recomputed"] >= c["inc.units_total"] {
		t.Errorf("obs counters: recomputed %d not strictly fewer than total %d",
			c["inc.units_recomputed"], c["inc.units_total"])
	}
}

// TestIncrementalConcurrentStore shares one summary store across
// concurrent warm re-analyses of several programs (run under -race in
// CI): every run must stay key-identical to the full pipeline while the
// store takes interleaved Get/Put traffic.
func TestIncrementalConcurrentStore(t *testing.T) {
	corpus, err := Corpus()
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{
		"thread_counter": true, "event_two_handlers": true,
		"figure2_origins": true, "mixed_thread_event": true,
	}
	var progs []*Program
	var fulls [][]report.RaceKey
	for i := range corpus {
		if p := &corpus[i]; names[p.Name] {
			full, err := p.ActualKeys()
			if err != nil {
				t.Fatal(err)
			}
			progs = append(progs, p)
			fulls = append(fulls, full)
		}
	}
	store := summary.NewStore(0)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		for i, p := range progs {
			wg.Add(1)
			go func(p *Program, full []report.RaceKey) {
				defer wg.Done()
				for round := 0; round < 3; round++ {
					got, _, err := p.IncrementalKeys(store)
					if err != nil {
						t.Errorf("%s: %v", p.Name, err)
						return
					}
					if keyIdents(full) != keyIdents(got) {
						t.Errorf("%s: concurrent warm run diverged from full", p.Name)
						return
					}
				}
			}(p, fulls[i])
		}
	}
	wg.Wait()
	if st := store.Stats(); st.Hits == 0 {
		t.Error("concurrent runs never hit the shared store")
	}
}

// TestIncrementalRecall is the hard gate on the incremental path: the
// corpus scored through warm summary replay must hold recall 1.0 and
// baseline precision, exactly like the full pipeline.
func TestIncrementalRecall(t *testing.T) {
	rep, err := EvaluateIncremental()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total.Recall != 1.0 {
		t.Fatalf("incremental path recall %.4f, want 1.0", rep.Total.Recall)
	}
	baseline, err := Baseline()
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.CheckAgainstBaseline(baseline); err != nil {
		t.Fatal(err)
	}
}

// TestIncrementalFallbackSound pins the fallback contract: with no
// store the incremental entry point still answers, marked as fallback,
// with the full pipeline's keys.
func TestIncrementalFallbackSound(t *testing.T) {
	corpus, err := Corpus()
	if err != nil {
		t.Fatal(err)
	}
	p := &corpus[0]
	full, err := p.ActualKeys()
	if err != nil {
		t.Fatal(err)
	}
	got, st, err := p.IncrementalKeys(nil)
	if err != nil {
		t.Fatal(err)
	}
	requireSameKeys(t, "nil store", full, got)
	if !st.Fallback || st.FallbackReason == "" {
		t.Errorf("nil store should report fallback, got %+v", st)
	}
	if st.DirtyRatio() != 1 {
		t.Errorf("fallback dirty ratio = %v, want 1", st.DirtyRatio())
	}
}
