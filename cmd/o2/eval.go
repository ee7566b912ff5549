package main

import (
	"flag"
	"fmt"
	"os"

	"o2"
	"o2/internal/report"
	"o2/internal/truth"
	"o2/internal/workload"
)

// runEval implements `o2 eval`: score the analysis against the embedded
// ground-truth oracle corpus and check the result against the checked-in
// precision baseline.
//
//	o2 eval              print per-category precision/recall and gate
//	o2 eval -json        print the versioned EvalReport JSON (the exact
//	                     bytes to check in as internal/truth/baseline.json)
//	o2 eval -metamorphic also run the metamorphic invariance suite (all
//	                     source transforms over the corpus, all IR
//	                     transforms over three workload presets)
//
// Exit codes follow the shared contract: 0 when the gate passes, 1 when
// evaluation completed but the gate fails (recall below 1.0, precision
// below baseline, or a metamorphic invariance violation), and the usual
// 2-6 for usage, parse, budget, cancel and internal errors.
func runEval(args []string) int {
	fs := flag.NewFlagSet("eval", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit the EvalReport JSON (baseline format) instead of the table")
	metamorphic := fs.Bool("metamorphic", false, "also check metamorphic race-set invariance")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: o2 eval [-json] [-metamorphic]")
		return exitUsage
	}
	rep, err := truth.Evaluate()
	if err != nil {
		return failAnalysis(err)
	}
	if *jsonOut {
		data, err := rep.MarshalIndent()
		if err != nil {
			return fail(exitInternal, err)
		}
		fmt.Println(string(data))
		return exitOK
	}
	fmt.Printf("%-18s %8s %4s %4s %4s %10s %8s %8s\n",
		"category", "programs", "tp", "fp", "fn", "precision", "recall", "f1")
	for _, c := range rep.Categories {
		fmt.Printf("%-18s %8d %4d %4d %4d %10.4f %8.4f %8.4f\n",
			c.Category, c.Programs, c.TP, c.FP, c.FN, c.Precision, c.Recall, c.F1)
	}
	t := rep.Total
	fmt.Printf("%-18s %8d %4d %4d %4d %10.4f %8.4f %8.4f\n",
		"total", len(rep.Programs), t.TP, t.FP, t.FN, t.Precision, t.Recall, t.F1)

	code := exitOK
	base, err := truth.Baseline()
	if err != nil {
		return fail(exitInternal, err)
	}
	if err := rep.CheckAgainstBaseline(base); err != nil {
		fmt.Fprintln(os.Stderr, "o2 eval: FAIL:", err)
		code = exitRaces
	} else {
		fmt.Println("o2 eval: ok (recall 1.0, precision at or above baseline)")
	}
	if *metamorphic {
		if mc := runMetamorphic(); mc != exitOK {
			return mc
		}
	}
	return code
}

// metamorphicPresets are the workloads the CLI invariance smoke covers,
// mirroring the bench gate's family spread.
var metamorphicPresets = []string{"avrora", "zookeeper", "memcached"}

// runMetamorphic checks that every source transform preserves each corpus
// program's canonical race-key set, and every IR transform each preset's.
func runMetamorphic() int {
	corpus, err := truth.Corpus()
	if err != nil {
		return failAnalysis(err)
	}
	checks, bad := 0, 0
	for i := range corpus {
		p := &corpus[i]
		base, err := p.ActualKeys()
		if err != nil {
			return failAnalysis(err)
		}
		for _, tr := range truth.Transforms() {
			got, err := truth.TransformedKeys(p, tr)
			if err != nil {
				return failAnalysis(err)
			}
			checks++
			if !report.SameKeys(base, got) {
				bad++
				fmt.Fprintf(os.Stderr, "o2 eval: metamorphic: %s/%s changed the race set\n", p.Name, tr.Name)
			}
		}
	}
	for _, name := range metamorphicPresets {
		preset, ok := workload.ByName(name)
		if !ok {
			return fail(exitInternal, fmt.Errorf("unknown preset %q", name))
		}
		cfg := o2.DefaultConfig()
		cfg.Workers = 1
		trs := truth.IRTransforms()
		base, err := truth.PresetKeys(preset, trs[0], cfg)
		if err != nil {
			return failAnalysis(err)
		}
		for _, tr := range trs[1:] {
			got, err := truth.PresetKeys(preset, tr, cfg)
			if err != nil {
				return failAnalysis(err)
			}
			checks++
			if !report.SameKeys(base, got) {
				bad++
				fmt.Fprintf(os.Stderr, "o2 eval: metamorphic: %s/%s changed the race set\n", name, tr.Name)
			}
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "o2 eval: metamorphic: %d/%d checks failed\n", bad, checks)
		return exitRaces
	}
	fmt.Printf("o2 eval: metamorphic ok (%d invariance checks)\n", checks)
	return exitOK
}
