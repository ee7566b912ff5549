package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"o2"
	"o2/internal/corpus"
)

// runBatch analyzes a corpus of minilang programs (each file is one
// program). Inputs are discovered by shape — directories, zip archives,
// NDJSON manifests or plain .mini files — and streamed through
// o2.AnalyzeCorpus: the corpus is never materialized in memory, and
// results arrive in input order as they complete.
//
// By default every program becomes one row of a table on stdout, with a
// totals line at the end. -stream emits one NDJSON record per program
// instead, with the totals on stderr so stdout stays pure NDJSON.
//
// Either way the exit code is the worst per-program outcome: a corpus
// with one parse failure and ten clean programs exits 3, and the other
// ten still get their rows/records (partial-failure contract).
func runBatch(args []string) int {
	fs := flag.NewFlagSet("batch", flag.ContinueOnError)
	ctxKind := fs.String("context", "origin", "context policy: origin, 0ctx, kcfa, kobj")
	k := fs.Int("k", 1, "context depth")
	jobs := fs.Int("jobs", 0, "concurrent analysis jobs (0 = GOMAXPROCS; capped at GOMAXPROCS)")
	jobTimeout := fs.Duration("job-timeout", 0, "per-program deadline (0 = none)")
	stream := fs.Bool("stream", false, "emit one NDJSON record per program, in input order")
	runStats := fs.Bool("run-stats", false, "with -stream: attach the full RunStats report to every record")
	progressEvery := fs.Duration("progress-interval", 0, "with -stream: interleave a schema-tagged progress record at most this often (0 = off)")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: o2 batch [flags] dir|corpus.zip|manifest.ndjson|file.mini ...")
		fs.PrintDefaults()
		return exitUsage
	}

	cfg := o2.DefaultConfig()
	pol, err := o2.PolicyByName(*ctxKind, *k)
	if err != nil {
		return fail(exitUsage, err)
	}
	cfg.Policy = pol

	parts := make([]corpus.Iterator, 0, fs.NArg())
	for _, arg := range fs.Args() {
		it, err := corpus.Open(arg)
		if err != nil {
			for _, p := range parts {
				p.Close()
			}
			return fail(exitUsage, err)
		}
		parts = append(parts, it)
	}
	it := corpus.Chain(parts...)
	defer it.Close()

	ccfg := o2.CorpusConfig{
		Config:         cfg,
		Workers:        *jobs,
		ProgramTimeout: *jobTimeout,
		CollectStats:   *stream && *runStats,
	}
	emit := tableRow
	if *stream {
		emit = streamRecords(*progressEvery)
	}
	worst := exitOK
	stats, err := o2.AnalyzeCorpus(context.Background(), it, ccfg, func(cr o2.CorpusResult) error {
		class, err := emit(cr)
		if code := outcomeExit[class]; code > worst {
			worst = code
		}
		return err
	})
	if err != nil {
		return failAnalysis(err)
	}
	if stats.Programs == 0 {
		return fail(exitUsage, fmt.Errorf("no %s programs found", corpus.Ext))
	}
	if *stream {
		fmt.Fprintf(os.Stderr, "o2 batch: %d programs, %d failed, %d races in %s (%.1f programs/s)\n",
			stats.Programs, stats.Failed, stats.Races, stats.Wall.Round(time.Millisecond),
			float64(stats.Programs)/stats.Wall.Seconds())
		return worst
	}
	fmt.Printf("\n%d jobs in %s (%.1f jobs/s, workers=%d)\n",
		stats.Programs, stats.Wall.Round(time.Millisecond),
		float64(stats.Programs)/stats.Wall.Seconds(), stats.Workers)
	return worst
}

// tableRow prints one program's table row, the header before the first
// row, and returns the program's exit class.
func tableRow(cr o2.CorpusResult) (o2.Outcome, error) {
	if cr.Index == 0 {
		fmt.Printf("%-40s %-9s %6s %12s %s\n", "PROGRAM", "STATE", "RACES", "WALL", "NOTE")
	}
	races := 0
	if cr.Err == nil {
		races = len(cr.Result.Races())
	}
	class := o2.Classify(cr.Err, races)
	state, note := "done", ""
	switch class {
	case o2.OutcomeOK, o2.OutcomeRaces:
	case o2.OutcomeCanceled:
		state, note = "canceled", string(class)+": "+firstLine(cr.Err.Error())
	default:
		state, note = "failed", string(class)+": "+firstLine(cr.Err.Error())
	}
	fmt.Printf("%-40s %-9s %6d %12s %s\n",
		trunc(cr.Name, 40), state, races, cr.Wall.Round(time.Microsecond), note)
	return class, nil
}

// streamRecords returns an emitter that writes one NDJSON record per
// program on stdout and returns the program's exit class. Per-program
// failures become error records (exit_class parse/budget/...) and the
// stream continues. Progress records interleave with result records on
// the same single emit goroutine, so the NDJSON stream stays strictly
// ordered; the interval throttles them to at most one per completed
// program.
func streamRecords(progressEvery time.Duration) func(o2.CorpusResult) (o2.Outcome, error) {
	w := corpus.NewWriter(os.Stdout)
	start := time.Now()
	lastProg := start
	done, racesSoFar := 0, int64(0)
	return func(cr o2.CorpusResult) (o2.Outcome, error) {
		rec := corpus.NewRecord(cr)
		if err := w.Write(rec); err != nil {
			return rec.ExitClass, err
		}
		done++
		racesSoFar += int64(rec.RaceCount)
		if progressEvery <= 0 || time.Since(lastProg) < progressEvery {
			return rec.ExitClass, nil
		}
		lastProg = time.Now()
		return rec.ExitClass, w.Write(&corpus.ProgressRecord{
			Schema:     corpus.RecordSchema,
			IsProgress: true,
			Done:       done,
			Index:      cr.Index,
			Program:    cr.Name,
			Races:      racesSoFar,
			WallNS:     int64(time.Since(start)),
		})
	}
}

func trunc(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return "..." + s[len(s)-n+3:]
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
