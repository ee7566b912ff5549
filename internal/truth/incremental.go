package truth

import (
	"context"
	"fmt"

	"o2"
	"o2/internal/report"
	"o2/internal/summary"
)

// The incremental arm of the oracle: the corpus and the metamorphic
// transforms double as the equivalence suite for per-unit summary
// reuse. The contract under test is absolute — for any program and any
// edit, analyzing warm through the summary store must produce the
// byte-identical canonical race-key set a from-scratch analysis does,
// and the corpus labels must score identically (recall 1.0 included).

// IncrementalKeys analyzes the program through the incremental path
// against store, returning the canonical race keys and the reuse stats.
func (p *Program) IncrementalKeys(store *summary.Store) ([]report.RaceKey, *o2.IncStats, error) {
	return incrementalKeysText(p, p.Source, store)
}

// incrementalKeysText analyzes replacement source text for p through
// the incremental path (same file name, so keys stay comparable).
func incrementalKeysText(p *Program, text string, store *summary.Store) ([]report.RaceKey, *o2.IncStats, error) {
	res, err := o2.AnalyzeIncremental(context.Background(), map[string]string{p.File: text}, p.Config(), store)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", p.Name, err)
	}
	return report.Canonical(res.Report, res.Analysis.Origins), res.Inc, nil
}

// EvaluateIncremental scores the corpus through the incremental path
// under the same labels Evaluate uses. Each program is analyzed cold
// into a fresh per-unit store and then warm again from it; the *warm*
// run is scored, so the gate measures the replayed-summary report, not
// the freshly-lowered one. Divergence between the two runs, or a warm
// rerun of unchanged source that recomputes any unit, is an error
// rather than a score.
func EvaluateIncremental() (*EvalReport, error) {
	corpus, err := Corpus()
	if err != nil {
		return nil, err
	}
	var scores []ProgramScore
	for i := range corpus {
		p := &corpus[i]
		store := summary.NewStore(0)
		cold, _, err := p.IncrementalKeys(store)
		if err != nil {
			return nil, err
		}
		warm, st, err := p.IncrementalKeys(store)
		if err != nil {
			return nil, err
		}
		if !report.SameKeys(cold, warm) {
			return nil, fmt.Errorf("%s: warm incremental keys diverge from cold", p.Name)
		}
		if !st.Fallback && st.UnitsRecomputed != 0 {
			return nil, fmt.Errorf("%s: warm rerun of unchanged source recomputed %d/%d units",
				p.Name, st.UnitsRecomputed, st.UnitsTotal)
		}
		scores = append(scores, ScoreProgram(p.Name, p.Category, p.Expected, warm))
	}
	return BuildEval(scores), nil
}
