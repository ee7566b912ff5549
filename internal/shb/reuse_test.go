package shb_test

import (
	"context"
	"errors"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"o2/internal/ir"
	"o2/internal/pta"
	"o2/internal/shb"
	"o2/internal/workload"
)

// raceBuild is set under the race detector, whose sync.Pool drops a
// quarter of the objects put in it.
var raceBuild bool

// solve solves a program under the origin policy.
func solve(t *testing.T, prog *ir.Program) *pta.Analysis {
	t.Helper()
	a := pta.New(prog, pta.Config{Policy: pta.Policy{Kind: pta.KOrigin, K: 1}, Entries: ir.DefaultEntryConfig()})
	if err := a.Solve(); err != nil {
		t.Fatal(err)
	}
	return a
}

func solvePreset(t *testing.T, name string) *pta.Analysis {
	t.Helper()
	p, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("no preset %s", name)
	}
	return solve(t, workload.Build(p, ir.DefaultEntryConfig()))
}

// sameGraph reports how g differs from want: nodes, segments,
// inter-origin edges, regions and locksets.
func sameGraph(t *testing.T, name string, want, g *shb.Graph) {
	t.Helper()
	if !slices.Equal(g.Nodes, want.Nodes) {
		t.Errorf("%s: %d nodes differ from the first build's %d", name, len(g.Nodes), len(want.Nodes))
	}
	if !slices.EqualFunc(g.Segs, want.Segs, func(x, y *shb.Segment) bool { return *x == *y }) {
		t.Errorf("%s: segments differ from the first build's", name)
	}
	for s := range min(len(g.Segs), len(want.Segs)) {
		if !slices.Equal(g.OutEdges(shb.SegID(s)), want.OutEdges(shb.SegID(s))) {
			t.Errorf("%s: segment %d's edges differ from the first build's", name, s)
		}
	}
	if g.Regions != want.Regions || g.Locksets.Len() != want.Locksets.Len() {
		t.Errorf("%s: %d regions and %d locksets, first build %d and %d",
			name, g.Regions, g.Locksets.Len(), want.Regions, want.Locksets.Len())
	}
}

// buildCanceled builds a's graph under a context canceled as the build
// starts, until the cancel lands inside the walk: the build returns
// ErrCanceled after it has made nodes. The cancel trips the build's
// latch from another goroutine, so it needs a second processor.
func buildCanceled(t *testing.T, a *pta.Analysis) {
	t.Helper()
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	for range 12 {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		g, err := shb.BuildCtx(ctx, a, shb.Config{})
		switch {
		case err != nil && !errors.Is(err, pta.ErrCanceled):
			t.Fatalf("canceled build: %v", err)
		case err != nil && len(g.Nodes) > 0:
			return
		}
	}
	t.Fatal("no cancel landed inside the build")
}

// TestBuildReuseLeavesNoTrace builds graphs in one process, so each
// build after the first walks in the node buffer an earlier one left in
// the pool: zookeeper, avrora, zookeeper again, a linux build canceled
// mid-walk, then zookeeper and avrora once more. Every complete graph
// equals the first build of its preset node by node, with its segments
// and edges, and a build that found a buffer in the pool holds its nodes
// at their exact length. The collector is parked so that the pool keeps
// what the builds put in it.
func TestBuildReuseLeavesNoTrace(t *testing.T) {
	zk, av := solvePreset(t, "zookeeper"), solvePreset(t, "avrora")
	linux := solve(t, workload.Build(workload.Linux(), ir.DefaultEntryConfig()))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	first := map[*pta.Analysis]*shb.Graph{}
	pooled := 0
	check := func(name string, a *pta.Analysis) {
		t.Helper()
		warm := !raceBuild && shb.NodeBufferPooled()
		g := shb.Build(a, shb.Config{})
		if warm {
			pooled++
			if len(g.Nodes) != cap(g.Nodes) {
				t.Errorf("%s: a pooled build's nodes have len %d, cap %d", name, len(g.Nodes), cap(g.Nodes))
			}
		}
		if want, ok := first[a]; ok {
			sameGraph(t, name, want, g)
		} else {
			first[a] = g
		}
	}
	check("zookeeper", zk)
	check("avrora", av)
	check("zookeeper", zk)
	buildCanceled(t, linux)
	check("zookeeper", zk)
	check("avrora", av)
	if !raceBuild && pooled < 3 {
		t.Errorf("%d of 5 builds found a buffer in the pool, want at least 3", pooled)
	}
}

// warmBuildBudget bounds what a zookeeper SHB build allocates once the
// pool holds a node buffer an earlier build grew: 459,576 bytes in 1,311
// allocations measured (go1.24, amd64), 419 KB of them the exact copy of
// its 13,090 nodes, plus the bench gate's 10% and noise floor. A build
// that grew its arena afresh would take about 0.9 MB.
var warmBuildBudget = struct{ allocs, bytes uint64 }{1311 + 131 + 32, 459_576 + 45_958 + 8192}

// TestWarmBuildAllocs holds the third zookeeper build in a process to
// warmBuildBudget, with the collector parked as the bench gate parks it:
// the first build writes its own arena and leaves an empty buffer, the
// second fills that buffer, and from the third on a build copies its
// nodes out of a buffer that needs no growth. The pool keeps an object
// on the processor that put it, so a build that moved to another one
// misses it; the best of three builds from the third on is measured.
func TestWarmBuildAllocs(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector's sync.Pool drops objects at random")
	}
	a := solvePreset(t, "zookeeper")
	runtime.GC()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	shb.Build(a, shb.Config{})
	shb.Build(a, shb.Config{})
	var best runtime.MemStats
	for i := range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		shb.Build(a, shb.Config{})
		runtime.ReadMemStats(&after)
		allocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
		if i == 0 || bytes < best.TotalAlloc {
			best.Mallocs, best.TotalAlloc = allocs, bytes
		}
	}
	t.Logf("warm zookeeper build: %d allocations, %d bytes", best.Mallocs, best.TotalAlloc)
	if best.Mallocs > warmBuildBudget.allocs || best.TotalAlloc > warmBuildBudget.bytes {
		t.Errorf("warm zookeeper build allocated %d objects and %d bytes, budget %d and %d",
			best.Mallocs, best.TotalAlloc, warmBuildBudget.allocs, warmBuildBudget.bytes)
	}
}
