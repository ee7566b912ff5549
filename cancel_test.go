package o2

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"o2/internal/cases"
	"o2/internal/lang"
	"o2/internal/obs"
	"o2/internal/workload"
)

// TestAnalyzeAlreadyCanceled: a context canceled before Analyze starts
// returns ErrCanceled without running any phase.
func TestAnalyzeAlreadyCanceled(t *testing.T) {
	prog, err := lang.Compile("fig2.mini", cases.Figure2, DefaultConfig().Entries)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = Analyze(ctx, prog, DefaultConfig())
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ErrCanceled must satisfy errors.Is(err, context.Canceled); got %v", err)
	}
}

// TestAnalyzeDeadlineIsBudget: an expired deadline maps onto ErrBudget —
// callers observe one error class for both TimeBudget and context
// deadlines.
func TestAnalyzeDeadlineIsBudget(t *testing.T) {
	prog, err := lang.Compile("fig2.mini", cases.Figure2, DefaultConfig().Entries)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err = Analyze(ctx, prog, DefaultConfig())
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("want ErrBudget for expired deadline, got %v", err)
	}
}

// TestTimeBudgetStillBudget: the legacy TimeBudget knob (now a derived
// context deadline) still aborts long runs with ErrBudget.
func TestTimeBudgetStillBudget(t *testing.T) {
	prog := workload.Build(workload.Scale(workload.Linux(), 4), DefaultConfig().Entries)
	cfg := DefaultConfig()
	cfg.TimeBudget = 5 * time.Millisecond
	_, err := Analyze(context.Background(), prog, cfg)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("want ErrBudget from TimeBudget, got %v", err)
	}
}

// TestCancelMidSolve: canceling while the pointer analysis is running
// returns promptly (well under the 100ms bound) with ErrCanceled.
func TestCancelMidSolve(t *testing.T) {
	// linux preset: solve alone takes tens of milliseconds, so canceling
	// after 5ms lands inside the solver step loop.
	prog := workload.Build(workload.Linux(), DefaultConfig().Entries)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := Analyze(ctx, prog, DefaultConfig())
	elapsed := time.Since(start)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v (after %v)", err, elapsed)
	}
	if elapsed > 5*time.Millisecond+100*time.Millisecond {
		t.Fatalf("cancellation not prompt: returned after %v", elapsed)
	}
}

// cancelMidDetect runs cfg over linux-x5 and cancels once detection has
// examined its first pairs, as a progress stream shows them. It requires
// ErrCanceled within 100ms of the cancel, and that detection had pairs
// left when it was canceled, so the test holds on any host speed.
func cancelMidDetect(t *testing.T, cfg Config) {
	prog := workload.Build(workload.Scale(workload.Linux(), 5), cfg.Entries)
	cfg.Progress = obs.NewProgress()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var (
		at         obs.ProgressSnapshot
		canceledAt time.Time
	)
	done, polled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(polled)
		tick := time.NewTicker(100 * time.Microsecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			if s := cfg.Progress.Snapshot(); s.Phase == "detect" && s.PairsDone > 0 {
				at, canceledAt = s, time.Now()
				cancel()
				return
			}
		}
	}()
	_, err := Analyze(ctx, prog, cfg)
	end := time.Now()
	close(done)
	<-polled
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v (progress at cancel: %+v)", err, at)
	}
	if at.PairsDone >= at.PairsTotal {
		t.Fatalf("canceled after detection examined all %d pairs; the test proved nothing about mid-detect cancellation", at.PairsTotal)
	}
	if lat := end.Sub(canceledAt); lat > 100*time.Millisecond {
		t.Fatalf("cancellation latency %v exceeds 100ms", lat)
	} else {
		t.Logf("canceled at %d of %d pairs; latency %v", at.PairsDone, at.PairsTotal, lat)
	}
}

// TestCancelMidDetect: canceling while the race-detection pair loop is
// running (the longest phase on linux-x5) returns within 100ms.
func TestCancelMidDetect(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second workload")
	}
	cancelMidDetect(t, DefaultConfig())
}

// TestCancelMidDetectParallel: same as above with a worker pool, proving
// the canceled latch stops all workers.
func TestCancelMidDetectParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second workload")
	}
	cfg := DefaultConfig()
	cfg.Workers = 4
	cancelMidDetect(t, cfg)
}

// TestAnalyzeSourceCtxCancel: the source-level entry point honors the
// context too (cancellation during analysis, after a successful compile).
func TestAnalyzeSourceCtxCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := AnalyzeSourceCtx(ctx, "fig2.mini", cases.Figure2, DefaultConfig())
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
}

// TestUncanceledRunUnaffected: a background context changes nothing — the
// Figure 2 race is still found.
func TestUncanceledRunUnaffected(t *testing.T) {
	res, err := AnalyzeSourceCtx(context.Background(), "fig2.mini", cases.Figure2, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Races()) != 1 {
		t.Fatalf("want 1 race on Figure 2, got %d", len(res.Races()))
	}
}

// TestClassify is the one outcome table: every way a run can end maps
// onto the wire string all surfaces report.
func TestClassify(t *testing.T) {
	for _, tc := range []struct {
		err   error
		races int
		want  Outcome
	}{
		{nil, 0, OutcomeOK},
		{nil, 3, OutcomeRaces},
		{ErrCompile, 0, OutcomeParse},
		{fmt.Errorf("%w: boom", ErrCompile), 0, OutcomeParse},
		{ErrBudget, 0, OutcomeBudget},
		{fmt.Errorf("job: %w", ErrBudget), 2, OutcomeBudget},
		{context.DeadlineExceeded, 0, OutcomeBudget},
		{ErrCanceled, 0, OutcomeCanceled},
		{context.Canceled, 0, OutcomeCanceled},
		{errors.New("boom"), 0, OutcomeInternal},
		{errors.New("disk on fire"), 1, OutcomeInternal},
	} {
		if got := Classify(tc.err, tc.races); got != tc.want {
			t.Errorf("Classify(%v, %d) = %s, want %s", tc.err, tc.races, got, tc.want)
		}
	}
}
