package race

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"o2/internal/obs"
	"o2/internal/pta"
	"o2/internal/shb"
)

// pairBudget is the shared atomic candidate-pair budget. Every worker
// reserves one unit per pair via take before checking it, so the total
// number of pairs examined never exceeds limit regardless of the worker
// count. A limit of 0 means unlimited. Cancellation rides alongside as a
// pta.Latch bridged from the detect context: checkGroup polls it on a
// stride (cancelStride iterations) and the group-claim loop polls it via
// stopped, so the two mechanisms always agree — a tripped latch stops the
// pair loop within one stride and stops group claiming at the next claim,
// without marking the budget as tripped (TimedOut stays false on pure
// cancellation; see TestCancelLatchAgreesWithPairBudget).
type pairBudget struct {
	limit   int64
	used    atomic.Int64
	tripped atomic.Bool
	latch   *pta.Latch // trips when the detect context ends; nil when not cancellable
}

// take reserves one pair. It returns false once the budget is exhausted,
// marking it as tripped; a failed reservation is rolled back so used never
// exceeds limit. With no limit it is a single branch.
func (b *pairBudget) take() bool {
	if b.limit <= 0 {
		return true
	}
	if b.tripped.Load() {
		return false
	}
	if b.used.Add(1) > b.limit {
		b.tripped.Store(true)
		b.used.Add(-1)
		return false
	}
	return true
}

// canceled reports whether the detect context ended: one atomic load (a
// nil compare when the context was never cancellable).
func (b *pairBudget) canceled() bool { return b.latch.Tripped() }

func (b *pairBudget) isTripped() bool { return b.tripped.Load() }

// stopped reports whether detection should claim no further groups,
// either because the pair budget tripped or the context ended.
func (b *pairBudget) stopped() bool { return b.tripped.Load() || b.latch.Tripped() }

// detectGroups checks the sorted candidate groups with a pool of workers
// and merges their results into rep. Workers claim group indices from a
// shared atomic cursor and write each result into its own slot; with one
// worker the pool is the calling goroutine. Once the pool drains, the
// slots merge in sorted key order, so the cross-group race dedup sees
// candidates in the order one worker would find them: the report is the
// same for every worker count whenever the budget does not trip, and a
// consistent lower bound when it does, since every claimed group returned
// its partial result from checkGroup and unclaimed groups hold zero
// results, which merge as nothing.
// It returns the summed busy time of the pool's goroutines (0 with one
// worker, or when observability is disabled), which Detect turns into the
// worker-utilization gauge: a worker is busy from pool entry until it runs
// out of groups, so the ratio busy/(workers × wall) exposes shard
// imbalance.
func (s *scratch) detectGroups(a *pta.Analysis, g *shb.Graph, opt Options, rep *Report, bud *pairBudget, workers int, sp *obs.Span) int64 {
	grp := &s.grouped
	keys := grp.keys
	results := zeroed(&s.results, len(keys))
	for len(s.workers) < workers {
		s.workers = append(s.workers, worker{seen: map[uint64]struct{}{}})
	}
	var next atomic.Int64
	run := func(w *worker) {
		w.tally = opt.newTally()
		// The per-origin tally merges additively on exit, so the
		// attribution totals are worker-count independent.
		defer opt.Attr.merge(w.tally)
		for !bud.stopped() {
			i := int(next.Add(1)) - 1
			if i >= len(keys) {
				return
			}
			results[i] = checkGroup(a, g, grp.group(i), opt, bud, w)
		}
	}
	var busyNS atomic.Int64
	if workers == 1 {
		run(&s.workers[0])
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				if sp != nil {
					ws := sp.Child(fmt.Sprintf("worker-%02d", w))
					start := time.Now()
					defer func() {
						busyNS.Add(int64(time.Since(start)))
						ws.End()
					}()
				}
				run(&s.workers[w])
			}(w)
		}
		wg.Wait()
	}

	// A canceled caller gets only the groups merged before the cancel, and
	// waits for no more races to be built. A tripped pair budget still
	// merges every group, so its report stays the consistent lower bound.
	merged := 0
	for ; merged < len(results) && !bud.canceled(); merged++ {
		rep.merge(&results[merged])
	}
	rep.Races = s.races(g, results[:merged], opt.Attr, opt.Progress)
	return busyNS.Load()
}
