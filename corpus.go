package o2

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"o2/internal/obs"
	"o2/internal/pta"
	"o2/internal/ring"
)

// CorpusConfig configures a streaming corpus run: one analysis Config
// applied to every program, plus the pipeline's shape.
type CorpusConfig struct {
	// Config is the per-program analysis configuration. Its Obs field is
	// ignored; set CollectStats for per-program registries.
	Config
	// Workers is the number of parallel lex/parse/lower+analyze workers
	// (0 = GOMAXPROCS; larger values are clamped to GOMAXPROCS). Each
	// worker runs whole programs end to end; Config.Workers still
	// controls the detection pool inside a program and defaults to 1 here
	// so corpus-level parallelism does not oversubscribe. At most
	// 2×Workers programs are admitted beyond the emitted prefix, so peak
	// live memory is O(Workers), independent of corpus length.
	Workers int
	// ProgramTimeout is the per-program deadline (0 = none). An exceeded
	// deadline fails that program with ErrBudget and the stream continues
	// — per-program isolation, like any other program failure.
	ProgramTimeout time.Duration
	// CollectStats gives every program its own obs.Registry, so each
	// CorpusResult.Result carries a RunStats report.
	CollectStats bool
}

func (c CorpusConfig) withDefaults() CorpusConfig {
	if n := runtime.GOMAXPROCS(0); c.Workers <= 0 || c.Workers > n {
		c.Workers = n
	}
	if c.Config.Workers == 0 {
		c.Config.Workers = 1
	}
	return c
}

// CorpusResult is one program's outcome in a corpus stream, emitted in
// input order. Exactly one of Result and Err is set: a failed program is
// an error record, not a dead stream. The Result (and its points-to
// state) is only alive during the emit callback — the pipeline drops it
// afterwards, which is what keeps peak memory independent of corpus size.
type CorpusResult struct {
	// Index is the program's 0-based position in the input stream.
	Index int
	// Name is the source name.
	Name string
	// Result is the full analysis result (nil if Err is set).
	Result *Result
	// Err is the program's isolated failure: compile errors carry
	// ErrCompile, per-program deadlines ErrBudget.
	Err error
	// Wall is the program's queue-to-completion wall time.
	Wall time.Duration
}

// CorpusStats summarizes a completed corpus run.
type CorpusStats struct {
	// Programs is the number of programs emitted (including failures).
	Programs int `json:"programs"`
	// Workers is the number of parallel pipelines that ran.
	Workers int `json:"workers"`
	// Failed counts programs that produced an error record.
	Failed int `json:"failed"`
	// Races is the total race count across successful programs.
	Races int `json:"races"`
	// Wall is the end-to-end stream time.
	Wall time.Duration `json:"wall_ns"`
}

// corpusTask pairs a source with its reserved reorder slot.
type corpusTask struct {
	idx  int
	src  Source
	cell ring.Cell[CorpusResult]
}

// AnalyzeCorpus streams a corpus of independent programs through
// CorpusConfig.Workers parallel pipelines and calls emit for every
// program strictly in input order. It is the repository-scale frontend:
// sources are pulled lazily from iter (never materializing the corpus),
// fan out to workers, and funnel through a bounded reorder window of
// 2×Workers programs — a slow program backpressures admission instead of
// growing a buffer, so peak live heap is independent of corpus length.
//
// Per-program failures (compile errors, per-program deadlines) are
// isolated: the program's CorpusResult carries the error and the stream
// continues. The whole stream aborts only on iterator errors, an emit
// error, or ctx ending — a canceled ctx returns ErrCanceled, an expired
// deadline ErrBudget, matching Analyze's contract. emit runs on the
// caller's goroutine, sequentially; returning an error from it cancels
// the remaining work.
func AnalyzeCorpus(ctx context.Context, iter SourceIter, cfg CorpusConfig, emit func(CorpusResult) error) (*CorpusStats, error) {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	start := time.Now()
	ro := ring.NewReorder[CorpusResult](2 * cfg.Workers)
	tasks := make(chan corpusTask)

	var wg sync.WaitGroup
	for i := 0; i < cfg.Workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range tasks {
				t.cell.Complete(cfg.analyzeOne(ctx, t.idx, t.src))
			}
		}()
	}

	// The dispatcher owns input order: pull a source, reserve the next
	// reorder slot (blocking while the window is full — backpressure),
	// hand both to a worker. It is the only Open/Close caller. An
	// iterator failure is a stream failure: it lands in iterErr and
	// cancels everything in flight.
	iterErr := make(chan error, 1)
	go func() {
		defer ro.Close()
		defer close(tasks)
		for idx := 0; ; idx++ {
			src, ok, err := iter.Next()
			if err != nil {
				iterErr <- fmt.Errorf("corpus source %d: %w", idx, err)
				cancel()
				return
			}
			if !ok {
				return
			}
			cell, err := ro.Open(ctx)
			if err != nil {
				return
			}
			select {
			case tasks <- corpusTask{idx, src, cell}:
			case <-ctx.Done():
				cell.Complete(CorpusResult{Index: idx, Name: src.Name, Err: pta.CtxErr(ctx.Err())})
				return
			}
		}
	}()
	defer wg.Wait()

	// streamErr resolves how a terminated stream failed: an iterator
	// error wins (it caused the cancellation), otherwise the ctx verdict.
	streamErr := func() error {
		select {
		case err := <-iterErr:
			return err
		default:
		}
		if err := ctx.Err(); err != nil {
			return pta.CtxErr(err)
		}
		return nil
	}

	stats := &CorpusStats{Workers: cfg.Workers}
	for {
		cr, ok, err := ro.Next(ctx)
		if err != nil {
			cancel()
			return nil, streamErr()
		}
		if !ok {
			break
		}
		stats.Programs++
		if cr.Err != nil {
			stats.Failed++
		} else {
			stats.Races += len(cr.Result.Races())
		}
		if err := emit(cr); err != nil {
			cancel()
			return nil, err
		}
	}
	if err := streamErr(); err != nil {
		return nil, err
	}
	stats.Wall = time.Since(start)
	return stats, nil
}

// analyzeOne runs one program end to end with per-program isolation:
// every failure lands in the result record. The corpus-level ctx still
// cuts through — a canceled stream fails the program with ErrCanceled,
// and the consumer loop aborts on the same ctx.
func (cfg CorpusConfig) analyzeOne(ctx context.Context, idx int, src Source) CorpusResult {
	start := time.Now()
	pcfg := cfg.Config
	if cfg.CollectStats {
		pcfg.Obs = obs.New()
	} else {
		pcfg.Obs = nil
	}
	if cfg.ProgramTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.ProgramTimeout)
		defer cancel()
	}
	res, err := AnalyzeSources(ctx, []Source{src}, pcfg)
	cr := CorpusResult{Index: idx, Name: src.Name, Result: res, Err: err, Wall: time.Since(start)}
	if err != nil {
		cr.Result = nil
	}
	return cr
}
