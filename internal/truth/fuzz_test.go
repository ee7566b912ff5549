package truth

import (
	"context"
	"errors"
	"testing"
	"time"

	"o2"
	"o2/internal/ir"
	"o2/internal/lang"
	"o2/internal/report"
)

// fuzzCfg bounds fuzz-driven analyses: mutated sources can nest origins
// arbitrarily deep, and an unbudgeted pointer analysis would turn that
// into a hang rather than a finding.
func fuzzCfg() o2.Config {
	cfg := o2.DefaultConfig()
	cfg.Workers = 1
	cfg.StepBudget = 500_000
	cfg.TimeBudget = 2 * time.Second
	return cfg
}

// budgetErr reports errors that mean "input too expensive", not "bug".
func budgetErr(err error) bool {
	return errors.Is(err, o2.ErrBudget) || errors.Is(err, o2.ErrCanceled)
}

// FuzzMetamorphic feeds arbitrary minilang sources through the
// metamorphic transforms: for any program that parses and analyzes within
// budget, every transform must preserve the canonical race-key set. The
// fuzzer hunts for programs where renaming, reordering, wrapping or
// dispatch permutation changes the report — each such input is an
// order-sensitivity bug in the pipeline.
func FuzzMetamorphic(f *testing.F) {
	corpus, err := Corpus()
	if err != nil {
		f.Fatal(err)
	}
	seeds := map[string]bool{
		"thread_counter": true, "event_two_handlers": true,
		"figure2_origins": true, "array_basic": true,
		"join_partial": true, "fp_flag_protocol": true,
		"gosync_select_arm_race": true, "gosync_chan_race_before_recv": true,
		"gosync_wg_fanin": true,
	}
	for i := range corpus {
		if p := &corpus[i]; seeds[p.Name] {
			for w := range Transforms() {
				f.Add(p.Source, byte(w))
			}
		}
	}
	f.Fuzz(func(t *testing.T, src string, which byte) {
		if len(src) > 4096 {
			t.Skip("oversized input")
		}
		file, err := lang.Parse("fuzz.mini", src)
		if err != nil {
			t.Skip("does not parse")
		}
		cfg := fuzzCfg()
		res, err := o2.AnalyzeSourceCtx(context.Background(), "fuzz.mini", src, cfg)
		if err != nil {
			t.Skip("base program does not analyze") // semantic or budget error
		}
		base := report.Canonical(res.Report, res.Analysis.Origins)

		trs := Transforms()
		tr := trs[int(which)%len(trs)]
		tr.Apply(file, ir.DefaultEntryConfig())
		text, lines := lang.Format(file)
		tres, err := o2.AnalyzeSourceCtx(context.Background(), "fuzz.mini", text, cfg)
		if err != nil {
			if budgetErr(err) {
				t.Skip("transformed program over budget")
			}
			// The base program analyzed fine; the transform (or the printer
			// underneath it) broke it. That is a real bug.
			t.Fatalf("transform %s broke the program: %v\n--- transformed ---\n%s", tr.Name, err, text)
		}
		got := report.Canonical(tres.Report, tres.Analysis.Origins)
		for i := range got {
			a, okA := lines[got[i].ALine]
			b, okB := lines[got[i].BLine]
			if !okA || !okB {
				t.Fatalf("transform %s: race %s has no original line", tr.Name, got[i].Ident())
			}
			got[i].ALine, got[i].BLine = a, b
		}
		got = report.Normalize(got)
		if !report.SameKeys(base, got) {
			t.Errorf("race set changed under %s:\n--- original keys ---\n%s--- transformed keys ---\n%s--- transformed source ---\n%s",
				tr.Name, keySet(base), keySet(got), text)
		}
	})
}
