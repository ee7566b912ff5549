// Tests of the streaming corpus pipeline: strict input-ordered emission
// with per-program failure isolation, result equality against the
// sequential path over the truth corpus, and the bounded-memory claim —
// peak live heap independent of corpus length.
package o2_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"o2"
	"o2/internal/report"
	"o2/internal/truth"
)

// genCorpusProgram builds the i-th synthetic program: two threads racing
// on a shared field (one guaranteed race), with a per-index class name so
// programs are distinct inputs rather than cache fodder.
func genCorpusProgram(i int) o2.Source {
	src := fmt.Sprintf(`
class S%[1]d { field data; }
class W%[1]d {
  field s;
  W%[1]d(s) { this.s = s; }
  run() { sh = this.s; sh.data = this; }
}
main {
  s = new S%[1]d();
  t1 = new W%[1]d(s);
  t2 = new W%[1]d(s);
  t1.start();
  t2.start();
}
`, i)
	return o2.Source{Name: fmt.Sprintf("gen-%04d.mini", i), Bytes: []byte(src)}
}

// genIter streams n generated programs, corrupting the ones whose index
// satisfies corrupt (nil = none). Programs are materialized one Next at
// a time — the iterator itself holds O(1) state, like a real corpus.
type genIter struct {
	n, i    int
	corrupt func(int) bool
}

func (g *genIter) Next() (o2.Source, bool, error) {
	if g.i >= g.n {
		return o2.Source{}, false, nil
	}
	src := genCorpusProgram(g.i)
	if g.corrupt != nil && g.corrupt(g.i) {
		src.Bytes = []byte("class { this is not minilang")
	}
	g.i++
	return src, true, nil
}

func corpusCfg(workers int) o2.CorpusConfig {
	return o2.CorpusConfig{Config: o2.DefaultConfig(), Workers: workers}
}

// TestAnalyzeCorpusOrderedWithFailures drives a corpus with corrupt
// programs scattered through it: emission must stay strictly
// input-ordered, every corrupt program must surface as an isolated
// ErrCompile record, and every healthy program must still be analyzed.
func TestAnalyzeCorpusOrderedWithFailures(t *testing.T) {
	const n = 40
	corrupt := func(i int) bool { return i%7 == 3 }
	it := &genIter{n: n, corrupt: corrupt}

	var seen []o2.CorpusResult
	stats, err := o2.AnalyzeCorpus(context.Background(), it, corpusCfg(4), func(cr o2.CorpusResult) error {
		seen = append(seen, cr)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != n || stats.Programs != n {
		t.Fatalf("emitted %d records, stats.Programs=%d, want %d", len(seen), stats.Programs, n)
	}
	wantFailed := 0
	for i, cr := range seen {
		if cr.Index != i {
			t.Fatalf("record %d carries index %d: emission is out of order", i, cr.Index)
		}
		if corrupt(i) {
			wantFailed++
			if cr.Err == nil || !errors.Is(cr.Err, o2.ErrCompile) {
				t.Fatalf("corrupt program %d: err = %v, want ErrCompile", i, cr.Err)
			}
			if cr.Result != nil {
				t.Fatalf("corrupt program %d carries a result", i)
			}
			continue
		}
		if cr.Err != nil {
			t.Fatalf("healthy program %d failed: %v", i, cr.Err)
		}
		if got := len(cr.Result.Races()); got != 1 {
			t.Fatalf("program %d: %d races, want 1", i, got)
		}
	}
	if stats.Failed != wantFailed {
		t.Fatalf("stats.Failed = %d, want %d", stats.Failed, wantFailed)
	}
	if stats.Races != n-wantFailed {
		t.Fatalf("stats.Races = %d, want %d", stats.Races, n-wantFailed)
	}
}

// TestAnalyzeCorpusMatchesSequential streams the whole truth corpus and
// checks every program's canonical race-key set against a sequential
// AnalyzeSources run under the same configuration — the stream must be a
// pure reordering of the eager path, never a different analysis.
func TestAnalyzeCorpusMatchesSequential(t *testing.T) {
	programs, err := truth.Corpus()
	if err != nil {
		t.Fatal(err)
	}
	cfg := o2.DefaultConfig()
	cfg.Workers = 1

	want := make([][]report.RaceKey, len(programs))
	srcs := make([]o2.Source, len(programs))
	for i, p := range programs {
		srcs[i] = p.AsSource()
		res, err := o2.AnalyzeSources(context.Background(), []o2.Source{srcs[i]}, cfg)
		if err != nil {
			t.Fatalf("%s: sequential analysis: %v", p.Name, err)
		}
		want[i] = report.Canonical(res.Report, res.Analysis.Origins)
	}

	ccfg := corpusCfg(4)
	ccfg.Config = cfg
	idx := 0
	_, err = o2.AnalyzeCorpus(context.Background(), o2.SliceSources(srcs), ccfg, func(cr o2.CorpusResult) error {
		if cr.Index != idx {
			t.Fatalf("emission order broken: got index %d at position %d", cr.Index, idx)
		}
		if cr.Err != nil {
			t.Fatalf("%s: streamed analysis failed: %v", cr.Name, cr.Err)
		}
		got := report.Canonical(cr.Result.Report, cr.Result.Analysis.Origins)
		if fmt.Sprint(got) != fmt.Sprint(want[idx]) {
			t.Fatalf("%s: streamed races %v != sequential %v", cr.Name, got, want[idx])
		}
		idx++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if idx != len(programs) {
		t.Fatalf("stream emitted %d of %d programs", idx, len(programs))
	}
}

// TestAnalyzeCorpusBoundedMemory streams a 1000-program corpus through a
// small window and samples the live heap along the way: peak live memory
// must stay bounded by the window, not grow with the corpus. The ceiling
// is deliberately generous (results are dropped after emit, so actual
// usage is a few MB) — the failure mode it guards against is retaining
// all thousand results, which costs an order of magnitude more.
func TestAnalyzeCorpusBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-program corpus")
	}
	const (
		n       = 1000
		ceiling = 64 << 20 // bytes of live heap
	)
	var ms runtime.MemStats
	var peak uint64
	sample := func() {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > peak {
			peak = ms.HeapAlloc
		}
	}
	sample() // baseline before the stream

	emitted := 0
	stats, err := o2.AnalyzeCorpus(context.Background(), &genIter{n: n}, corpusCfg(4), func(cr o2.CorpusResult) error {
		if cr.Err != nil {
			return cr.Err
		}
		emitted++
		if emitted%100 == 0 {
			sample()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Programs != n || stats.Races != n {
		t.Fatalf("programs=%d races=%d, want %d/%d", stats.Programs, stats.Races, n, n)
	}
	sample()
	t.Logf("peak live heap %.1f MB over %d programs", float64(peak)/(1<<20), n)
	if peak > ceiling {
		t.Fatalf("peak live heap %d bytes exceeds %d: corpus is being retained", peak, ceiling)
	}
}

// TestAnalyzeCorpusClampsWorkers: a worker count far beyond the host's
// CPUs runs GOMAXPROCS pipelines instead of sizing the reorder window by
// the request, and the stats report the workers that ran.
func TestAnalyzeCorpusClampsWorkers(t *testing.T) {
	stats, err := o2.AnalyzeCorpus(context.Background(), &genIter{n: 3}, corpusCfg(1<<40), func(o2.CorpusResult) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if want := runtime.GOMAXPROCS(0); stats.Workers != want || stats.Programs != 3 {
		t.Fatalf("workers=%d programs=%d, want %d/3", stats.Workers, stats.Programs, want)
	}
}

// TestAnalyzeCorpusIterError: an iterator failure is a stream failure —
// it aborts with the iterator's error, unlike a program failure.
func TestAnalyzeCorpusIterError(t *testing.T) {
	boom := errors.New("disk on fire")
	it := &errAfterIter{n: 5, err: boom}
	_, err := o2.AnalyzeCorpus(context.Background(), it, corpusCfg(2), func(o2.CorpusResult) error { return nil })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the iterator's error", err)
	}
}

type errAfterIter struct {
	n, i int
	err  error
}

func (g *errAfterIter) Next() (o2.Source, bool, error) {
	if g.i >= g.n {
		return o2.Source{}, false, g.err
	}
	src := genCorpusProgram(g.i)
	g.i++
	return src, true, nil
}

// TestAnalyzeCorpusEmitError: an emit error cancels the remaining work
// and surfaces as the stream's error.
func TestAnalyzeCorpusEmitError(t *testing.T) {
	stop := errors.New("consumer full")
	_, err := o2.AnalyzeCorpus(context.Background(), &genIter{n: 50}, corpusCfg(4), func(cr o2.CorpusResult) error {
		if cr.Index == 3 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) {
		t.Fatalf("err = %v, want the emit error", err)
	}
}

// TestAnalyzeCorpusCancel: canceling the stream's context aborts it with
// ErrCanceled, matching Analyze's contract.
func TestAnalyzeCorpusCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	_, err := o2.AnalyzeCorpus(ctx, &genIter{n: 10_000}, corpusCfg(2), func(cr o2.CorpusResult) error {
		if cr.Index == 2 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, o2.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

// TestAnalyzeCorpusProgramTimeout: a per-program deadline fails that
// program with ErrBudget and the stream keeps going.
func TestAnalyzeCorpusProgramTimeout(t *testing.T) {
	ccfg := corpusCfg(2)
	ccfg.ProgramTimeout = time.Nanosecond
	got := 0
	stats, err := o2.AnalyzeCorpus(context.Background(), &genIter{n: 4}, ccfg, func(cr o2.CorpusResult) error {
		got++
		if cr.Err == nil || !errors.Is(cr.Err, o2.ErrBudget) {
			t.Fatalf("program %d: err = %v, want ErrBudget", cr.Index, cr.Err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 4 || stats.Failed != 4 {
		t.Fatalf("emitted=%d failed=%d, want 4/4", got, stats.Failed)
	}
}

// TestAnalyzeSourcesDuplicateName: duplicate source names are a compile
// error, typed ErrCompile like any other front-end failure.
func TestAnalyzeSourcesDuplicateName(t *testing.T) {
	src := genCorpusProgram(0)
	dup := []o2.Source{src, src}
	_, err := o2.AnalyzeSources(context.Background(), dup, o2.DefaultConfig())
	if !errors.Is(err, o2.ErrCompile) {
		t.Fatalf("err = %v, want ErrCompile", err)
	}
	if !strings.Contains(fmt.Sprint(err), "duplicate") {
		t.Fatalf("err = %v, want a duplicate-name message", err)
	}
}
