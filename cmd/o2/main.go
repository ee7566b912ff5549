// Command o2 analyzes minilang programs for data races.
//
// Usage:
//
//	o2 [flags] file.mini [more.mini ...]    analyze files (legacy default)
//	o2 serve  [flags]                       run the batch-analysis HTTP service
//	o2 batch  [flags] dir|zip|ndjson|file   analyze a corpus: a table, or NDJSON records with -stream
//	o2 submit [flags] file.mini ...         submit to a running o2 serve
//	o2 eval   [flags]                       score against the oracle corpus
//
// Run `o2 <subcommand> -h` for per-command flags.
//
// Exit codes (all subcommands):
//
//	0  analysis completed, no races (for eval: gate passed)
//	1  analysis completed, races found (for eval: gate failed)
//	2  usage error (bad flags or arguments)
//	3  source parse / compile error
//	4  budget exhausted (step budget, time budget or deadline)
//	5  analysis canceled
//	6  internal error
//
// Multi-program runs (`o2 batch`) exit with the worst per-program
// outcome under the same table: a corpus with one unparsable program
// and ten clean ones exits 3, but all ten are still analyzed and
// reported — per-program failure lands in that program's table row or
// NDJSON record (exit_class), never aborts the batch. Both batch output
// forms run on one engine, o2.AnalyzeCorpus.
package main

import (
	"fmt"
	"os"

	"o2"
)

// Exit codes; see the package comment.
const (
	exitOK       = 0
	exitRaces    = 1
	exitUsage    = 2
	exitParse    = 3
	exitBudget   = 4
	exitCanceled = 5
	exitInternal = 6
)

// outcomeExit is the one outcome→exit-code map: every analysis outcome
// (o2.Classify, a job's error_kind, a record's exit_class) leaves the
// process through it.
var outcomeExit = map[o2.Outcome]int{
	o2.OutcomeOK:       exitOK,
	o2.OutcomeRaces:    exitRaces,
	o2.OutcomeParse:    exitParse,
	o2.OutcomeBudget:   exitBudget,
	o2.OutcomeCanceled: exitCanceled,
	o2.OutcomeInternal: exitInternal,
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	if len(args) > 0 {
		switch args[0] {
		case "serve":
			return runServe(args[1:])
		case "batch":
			return runBatch(args[1:])
		case "submit":
			return runSubmit(args[1:])
		case "analyze":
			return runAnalyze(args[1:])
		case "eval":
			return runEval(args[1:])
		case "help", "-h", "-help", "--help":
			fmt.Fprintln(os.Stderr, "usage: o2 [flags] file.mini ...")
			fmt.Fprintln(os.Stderr, "       o2 serve|batch|submit|analyze|eval [flags] ...")
			return exitUsage
		}
	}
	return runAnalyze(args)
}

func fail(code int, err error) int {
	fmt.Fprintln(os.Stderr, "o2:", err)
	return code
}

// failAnalysis reports a failed analysis and returns its outcome's exit
// code.
func failAnalysis(err error) int { return fail(outcomeExit[o2.Classify(err, 0)], err) }

// readFiles loads the named sources into the map form every entry point
// shares.
func readFiles(names []string) (map[string]string, error) {
	files := map[string]string{}
	for _, name := range names {
		src, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		files[name] = string(src)
	}
	return files, nil
}
