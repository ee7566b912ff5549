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
	"errors"
	"fmt"
	"os"

	"o2"
	"o2/internal/sched"
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

// exitCode classifies an analysis error into the process exit code.
// Parse errors are not typed by the lang package, so compile-step
// failures are classified at the call site via exitParseErr.
func exitCode(err error) int {
	switch {
	case err == nil:
		return exitOK
	case errors.Is(err, sched.ErrParse), errors.Is(err, o2.ErrCompile):
		return exitParse
	case errors.Is(err, o2.ErrBudget):
		return exitBudget
	case errors.Is(err, o2.ErrCanceled):
		return exitCanceled
	}
	return exitInternal
}

// kindExit maps a scheduler error kind onto the exit code.
func kindExit(kind sched.ErrKind) int {
	switch kind {
	case sched.KindNone:
		return exitOK
	case sched.KindParse:
		return exitParse
	case sched.KindBudget:
		return exitBudget
	case sched.KindCanceled:
		return exitCanceled
	}
	return exitInternal
}

func fail(code int, err error) int {
	fmt.Fprintln(os.Stderr, "o2:", err)
	return code
}

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
