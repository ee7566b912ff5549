package truth

import (
	"context"
	"strings"
	"testing"

	"o2"
	"o2/internal/report"
	"o2/internal/summary"
)

// insertEdit applies one textual single-unit edit to src: a statement
// inserted after the target-th block-opening line (a null store, a
// self-copy, or a bare return), or a fresh free function appended to
// the file (a declaration-environment change). The edited text may not
// parse — callers skip those inputs; edits need not preserve races,
// because the oracle compares two analyses of the *same* edited text.
func insertEdit(src string, editKind, target byte) (string, bool) {
	stmt := ""
	switch editKind % 4 {
	case 0:
		stmt = "xq_fz = null;"
	case 1:
		stmt = "xq_fz = xq_fz;"
	case 2:
		stmt = "return;"
	case 3:
		return src + "\nfunc zq_fz(p) {\n\tp.zqf = null;\n}\n", true
	}
	lines := strings.Split(src, "\n")
	var sites []int
	for i, ln := range lines {
		if strings.HasSuffix(strings.TrimSpace(ln), "{") {
			sites = append(sites, i)
		}
	}
	if len(sites) == 0 {
		return "", false
	}
	at := sites[int(target)%len(sites)]
	indent := lines[at][:len(lines[at])-len(strings.TrimLeft(lines[at], " \t"))]
	out := make([]string, 0, len(lines)+1)
	out = append(out, lines[:at+1]...)
	out = append(out, indent+"\t"+stmt)
	out = append(out, lines[at+1:]...)
	return strings.Join(out, "\n"), true
}

// FuzzIncremental hunts for divergence between the incremental and full
// pipelines: for any source that parses and analyzes within budget, a
// cold incremental run must produce the same canonical race keys as a
// from-scratch run; and after a random single-unit edit, a *warm*
// incremental run reusing the cold store must match a from-scratch run
// of the edited text. Any mismatch is a summary-reuse soundness bug —
// a cached fragment replayed into a program it no longer belongs to.
func FuzzIncremental(f *testing.F) {
	corpus, err := Corpus()
	if err != nil {
		f.Fatal(err)
	}
	seeds := map[string]bool{
		"thread_counter": true, "event_two_handlers": true,
		"figure2_origins": true, "mixed_thread_event": true,
		"lock_partial": true, "array_basic": true,
		"gosync_chan_ping_pong": true, "gosync_select_ordered": true,
		"gosync_uber_double_done": true,
	}
	for i := range corpus {
		if p := &corpus[i]; seeds[p.Name] {
			for kind := byte(0); kind < 4; kind++ {
				f.Add(p.Source, kind, byte(i))
			}
		}
	}
	f.Fuzz(func(t *testing.T, src string, editKind, target byte) {
		if len(src) > 4096 {
			t.Skip("oversized input")
		}
		cfg := fuzzCfg()
		full, err := o2.AnalyzeSourceCtx(context.Background(), "fuzz.mini", src, cfg)
		if err != nil {
			t.Skip("base program does not analyze")
		}
		base := report.Canonical(full.Report, full.Analysis.Origins)

		store := summary.NewStore(0)
		cold, err := o2.AnalyzeIncremental(context.Background(), map[string]string{"fuzz.mini": src}, cfg, store)
		if err != nil {
			if budgetErr(err) {
				t.Skip("incremental run over budget")
			}
			t.Fatalf("full analysis succeeded but incremental failed: %v\n--- source ---\n%s", err, src)
		}
		coldKeys := report.Canonical(cold.Report, cold.Analysis.Origins)
		if !report.SameKeys(base, coldKeys) {
			t.Errorf("cold incremental diverges from full:\n--- full ---\n%s--- incremental ---\n%s--- source ---\n%s",
				keySet(base), keySet(coldKeys), src)
		}

		edited, ok := insertEdit(src, editKind, target)
		if !ok {
			return
		}
		efull, err := o2.AnalyzeSourceCtx(context.Background(), "fuzz.mini", edited, cfg)
		if err != nil {
			t.Skip("edited program does not analyze") // parse, semantic or budget error
		}
		ebase := report.Canonical(efull.Report, efull.Analysis.Origins)
		warm, err := o2.AnalyzeIncremental(context.Background(), map[string]string{"fuzz.mini": edited}, cfg, store)
		if err != nil {
			if budgetErr(err) {
				t.Skip("warm incremental run over budget")
			}
			t.Fatalf("full analysis of edited text succeeded but warm incremental failed: %v\n--- edited ---\n%s", err, edited)
		}
		warmKeys := report.Canonical(warm.Report, warm.Analysis.Origins)
		if !report.SameKeys(ebase, warmKeys) {
			t.Errorf("warm incremental diverges from full after edit (kind %d):\n--- full ---\n%s--- incremental ---\n%s--- edited ---\n%s",
				editKind%4, keySet(ebase), keySet(warmKeys), edited)
		}
		if st := warm.Inc; st != nil && !st.Fallback && st.UnitsReused+st.UnitsRecomputed != st.UnitsTotal {
			t.Errorf("unit accounting broken: %+v", st)
		}
	})
}
