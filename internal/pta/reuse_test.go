package pta_test

import (
	"context"
	"errors"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"o2/internal/ir"
	"o2/internal/pta"
	"o2/internal/workload"
)

func solveProg(prog *ir.Program, stepBudget int64) (*pta.Analysis, error) {
	a := pta.New(prog, pta.Config{Policy: origin1(), Entries: ir.DefaultEntryConfig(), StepBudget: stepBudget})
	return a, a.Solve()
}

func preset(t *testing.T, name string) *ir.Program {
	t.Helper()
	p, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("no preset %s", name)
	}
	return workload.Build(p, ir.DefaultEntryConfig())
}

// solveCanceled solves the linux preset under a context canceled after a
// delay, adjusting the delay until the cancel lands inside SolveCtx: the
// solve returns ErrCanceled after it has made nodes.
func solveCanceled(t *testing.T) {
	t.Helper()
	entries := ir.DefaultEntryConfig()
	prog := workload.Build(workload.Linux(), entries)
	delay := time.Millisecond
	for range 12 {
		ctx, cancel := context.WithCancel(context.Background())
		time.AfterFunc(delay, cancel)
		a := pta.New(prog, pta.Config{Policy: origin1(), Entries: entries})
		err := a.SolveCtx(ctx)
		cancel()
		switch {
		case err == nil:
			delay /= 2 // the solve finished first
		case !errors.Is(err, pta.ErrCanceled):
			t.Fatalf("canceled solve: %v", err)
		case a.NumNodes() == 0:
			delay *= 2 // canceled before the solve began
		default:
			return
		}
	}
	t.Fatal("no cancel landed inside the solve")
}

// TestSolveReuseLeavesNoTrace runs solves that stop in every way in one
// process, so each solve after the first works in state an earlier one
// left in the pool: a complete solve, one stopped by its step budget and
// one canceled mid-solve. Every complete solve still matches
// TestPAGGolden's digest, including one of the first solve's program,
// whose functions an earlier solve has seen.
func TestSolveReuseLeavesNoTrace(t *testing.T) {
	want := readPAGGolden(t)
	check := func(name string, prog *ir.Program) {
		t.Helper()
		a, err := solveProg(prog, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := pagDigest(a); got != want[name] {
			t.Errorf("%s: PAG digest %s, golden %s", name, got, want[name])
		}
	}
	zk := preset(t, "zookeeper")
	check("zookeeper", zk)
	if _, err := solveProg(zk, 5000); !errors.Is(err, pta.ErrBudget) {
		t.Fatalf("step budget: got %v, want ErrBudget", err)
	}
	solveCanceled(t)
	check("avrora", preset(t, "avrora"))
	check("zookeeper", zk)
	check("zookeeper", preset(t, "zookeeper"))
}

// warmSolveBudget bounds what a zookeeper analysis allocates once the
// pool holds an earlier solve's working state: 942 KB in 3,179
// allocations measured (go1.24, amd64), plus the bench gate's 10% and
// noise floor. A solve that allocated its working state afresh would
// take about 1.97 MB.
var warmSolveBudget = struct{ allocs, bytes uint64 }{3179 + 318 + 32, 942_000 + 94_200 + 8192}

// raceBuild is set under the race detector, whose sync.Pool drops a
// quarter of the objects put in it.
var raceBuild bool

// TestWarmSolveAllocs holds a warm zookeeper analysis to warmSolveBudget,
// with the collector parked as the bench gate parks it. The pool keeps
// an object on the processor that put it, so a solve that moved to
// another one misses it; the best of three solves is measured.
func TestWarmSolveAllocs(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector's sync.Pool drops objects at random")
	}
	prog := preset(t, "zookeeper")
	solveWarm := func() {
		if _, err := solveProg(prog, 0); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	solveWarm()
	var best runtime.MemStats
	for i := range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		solveWarm()
		runtime.ReadMemStats(&after)
		allocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
		if i == 0 || bytes < best.TotalAlloc {
			best.Mallocs, best.TotalAlloc = allocs, bytes
		}
	}
	t.Logf("warm zookeeper analysis: %d allocations, %d bytes", best.Mallocs, best.TotalAlloc)
	if best.Mallocs > warmSolveBudget.allocs || best.TotalAlloc > warmSolveBudget.bytes {
		t.Errorf("warm zookeeper analysis allocated %d objects and %d bytes, budget %d and %d",
			best.Mallocs, best.TotalAlloc, warmSolveBudget.allocs, warmSolveBudget.bytes)
	}
}
