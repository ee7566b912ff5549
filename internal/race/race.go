// Package race implements O2's static data race detection engine (§4): a
// hybrid happens-before + lockset analysis over the SHB graph, restricted
// to OSA's origin-shared locations, with the paper's three sound
// optimizations — integer-ID intra-origin happens-before, canonical
// lockset IDs intersected as bitsets, and lock-region merging. Each
// optimization can be disabled for the ablation benchmarks; disabling all
// of them (plus the OSA filter) yields the D4-style naive baseline.
package race

import (
	"cmp"
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"o2/internal/ir"
	"o2/internal/lockset"
	"o2/internal/obs"
	"o2/internal/osa"
	"o2/internal/pta"
	"o2/internal/shb"
)

// Options toggles the engine's optimizations (all true = full O2).
type Options struct {
	// RegionMerge merges accesses to the same location within one lock
	// region into a representative access (§4.1 third optimization).
	RegionMerge bool
	// CanonicalLocksets intersects canonical lockset IDs as bitsets
	// (lockset.Table.Intersects); when false, the sorted lock lists are
	// intersected element-wise on every check (§4.1 second optimization).
	CanonicalLocksets bool
	// HBCache caches cross-origin reachability frontiers; when false every
	// pair does a fresh graph traversal (§4.1 first optimization — the
	// intra-origin integer comparison itself is structural and stays).
	HBCache bool
	// OSAFilter restricts checking to OSA's origin-shared locations; when
	// false all locations with accesses from two segments are checked.
	OSAFilter bool
	// NoHB disables the happens-before ordering check entirely (beyond
	// NoHB≠!HBCache: HBCache merely switches the query implementation).
	// Every cross-segment candidate pair then races unless lock-protected —
	// the lockset-only ablation used by the Table 10 category tests to show
	// which analysis suppresses which false-positive class. Unsound as a
	// detector configuration; never enabled by O2Options or NaiveOptions.
	NoHB bool
	// NoLockset disables the common-lock check: lock-protected pairs are
	// reported unless happens-before ordered — the HB-only ablation.
	NoLockset bool
	// PairBudget bounds the number of candidate pairs examined (0 =
	// unlimited); exceeding it stops detection and sets Report.TimedOut —
	// the analogue of the paper's ">4h" detection cells. The budget is a
	// single shared atomic counter, so it bounds the total work across all
	// workers in parallel mode.
	PairBudget int64
	// Workers sets the detection worker-pool size: per-location candidate
	// groups are sharded across Workers goroutines. 0 defaults to
	// GOMAXPROCS; 1 checks the groups on the calling goroutine. For a
	// fixed input the report is identical for every worker count (see
	// Detect).
	Workers int
	// Obs receives the detection span (with one child span per worker
	// shard), the work counters and the worker-utilization gauges. Nil
	// disables observability; the pairwise hot loop then costs the same
	// as an uninstrumented build (see BenchmarkParallelDetectObs).
	Obs *obs.Registry
	// Progress, when set, receives live detection progress: the total
	// candidate-pair estimate up front, then examined-pair counts flushed
	// on the cancelStride tick (never per pair) and the race count once
	// the pool drains.
	// Nil disables progress; like Obs, the disabled hot path is one
	// branch per stride.
	Progress *obs.Progress
	// Attr, when set, receives per-origin pair/HB-query/race counts for
	// the driver's Introspection section (see NewAttribution). Nil
	// disables attribution.
	Attr *Attribution
}

// Attribution accumulates per-origin detection counts, indexed by
// pta.OriginID: candidate pairs and happens-before queries involving
// each origin (a pair counts once per distinct participating origin) and
// deduplicated races. Counts merge additively from worker-local tallies,
// so they are identical at any worker count. Allocate with
// NewAttribution sized to the origin table.
type Attribution struct {
	Pairs     []int64
	HBQueries []int64
	// Races is updated only once the pool drains, single-threaded and in
	// report order.
	Races []int64

	mu sync.Mutex // guards Pairs/HBQueries during worker merges
}

// NewAttribution returns an attribution sink for numOrigins origins.
func NewAttribution(numOrigins int) *Attribution {
	return &Attribution{
		Pairs:     make([]int64, numOrigins),
		HBQueries: make([]int64, numOrigins),
		Races:     make([]int64, numOrigins),
	}
}

// merge folds one worker-local tally in under the lock.
func (at *Attribution) merge(t *originTally) {
	if at == nil || t == nil {
		return
	}
	at.mu.Lock()
	for i, v := range t.pairs {
		at.Pairs[i] += v
	}
	for i, v := range t.hbq {
		at.HBQueries[i] += v
	}
	at.mu.Unlock()
}

// originTally is one worker's private per-origin counters; merged into
// the shared Attribution when the worker exits, so the hot loop touches
// no shared state.
type originTally struct {
	pairs, hbq []int64
}

func (opt *Options) newTally() *originTally {
	if opt.Attr == nil {
		return nil
	}
	return &originTally{
		pairs: make([]int64, len(opt.Attr.Pairs)),
		hbq:   make([]int64, len(opt.Attr.HBQueries)),
	}
}

// tallyPair credits a pair to each distinct participating origin.
func tallyPair(cnt []int64, g *shb.Graph, an, bn int) {
	oa, ob := g.Origin(an), g.Origin(bn)
	if int(oa) < len(cnt) {
		cnt[oa]++
	}
	if ob != oa && int(ob) < len(cnt) {
		cnt[ob]++
	}
}

// O2Options is the full-optimization configuration.
func O2Options() Options {
	return Options{RegionMerge: true, CanonicalLocksets: true, HBCache: true, OSAFilter: true}
}

// NaiveOptions is the D4-style baseline: pairwise checking with no
// representative merging, no canonical locksets and no HB cache.
func NaiveOptions() Options { return Options{} }

// Access describes one side of a race.
type Access struct {
	Node   int
	Origin pta.OriginID
	Write  bool
	Pos    ir.Pos
	Fn     string
}

func (a Access) String() string {
	op := "read"
	if a.Write {
		op = "write"
	}
	return fmt.Sprintf("%s at %s in %s [origin O%d]", op, a.Pos, a.Fn, a.Origin)
}

// Race is a reported data race on a memory location.
type Race struct {
	Key  osa.Key
	A, B Access
}

func (r *Race) String() string {
	return fmt.Sprintf("race on %s:\n  %s\n  %s", r.Key, r.A, r.B)
}

// Report is the detection result with work counters for the benchmarks.
type Report struct {
	Races []Race
	// PairsChecked counts candidate pairs examined after grouping.
	PairsChecked int64
	// HBQueries and LockChecks count the underlying relation queries.
	HBQueries  int64
	LockChecks int64
	// AccessNodes and Representatives count nodes before and after
	// lock-region merging.
	AccessNodes     int
	Representatives int
	// Groups counts candidate locations (post-filter).
	Groups int
	// Per-optimization skip counters: candidates removed before pairwise
	// checking (FilteredOSA by the OSA filter, FilteredVolatile as
	// synchronization accesses, MergedRegion by lock-region merging) and
	// pairs skipped inside the pairwise loop (read/read pairs and
	// same-segment ordered pairs).
	FilteredOSA      int64
	FilteredVolatile int64
	MergedRegion     int64
	SkippedReadRead  int64
	SkippedSameSeg   int64
	// TimedOut reports that the PairBudget was exhausted; Races is then a
	// lower bound on the full result. The bound is consistent in both
	// sequential and parallel modes: every candidate group that finished
	// before the budget tripped contributes all of its races (no completed
	// worker's results are dropped), the group in which the budget tripped
	// contributes the races found up to that point, and PairsChecked never
	// exceeds PairBudget.
	TimedOut bool
	Elapsed  time.Duration
}

// Detect runs race detection over a solved analysis, its sharing result
// and SHB graph. With Options.Workers > 1 the per-location candidate
// groups are sharded across a worker pool; the merged report is identical
// to the sequential one for any worker count (groups are merged back in
// sorted key order, so global dedup sees races in the same order the
// sequential pass would). Detect only reads the analysis and graph, so
// concurrent Detect calls on the same solved inputs are safe.
func Detect(a *pta.Analysis, sharing *osa.Result, g *shb.Graph, opt Options) *Report {
	rep, _ := DetectCtx(context.Background(), a, sharing, g, opt)
	return rep
}

// DetectCtx is Detect under a context. pta.WatchCancel bridges the
// context's end into an atomic latch that the pairwise loop polls every
// cancelStride iterations and the group-claim loop polls between groups —
// so cancellation stops detection within one stride of pair checks
// (microseconds), in both sequential and parallel modes. The partial
// report is returned alongside pta.ErrCanceled (or pta.ErrBudget when the
// context deadline expired); it is a valid lower bound but not the full
// result. A canceled report holds only the groups merged before the
// cancel: detection stops merging its workers' results there. The
// working tables come from a pool (scratch) and go back to it on return;
// the report references none of them.
func DetectCtx(ctx context.Context, a *pta.Analysis, sharing *osa.Result, g *shb.Graph, opt Options) (*Report, error) {
	sp := opt.Obs.StartSpan("detect")
	start := time.Now()
	rep := &Report{}
	bud := &pairBudget{limit: opt.PairBudget}
	latch, stopWatch := pta.WatchCancel(ctx)
	bud.latch = latch
	defer stopWatch()
	s := scratchPool.Get().(*scratch)
	defer s.put()
	grp := s.collect(a, g, sharing, opt, rep, bud)
	if opt.Progress != nil {
		// The pairwise loop over group i iterates n·(n+1)/2 ticks — the
		// exact denominator of the examined-pair progress fraction.
		var total int64
		for i := range grp.keys {
			n := int64(grp.off[i+1] - grp.off[i])
			total += n * (n + 1) / 2
		}
		opt.Progress.SetPairsTotal(total)
	}

	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(grp.keys) {
		workers = len(grp.keys)
	}
	workers = max(workers, 1)
	busyNS := s.detectGroups(a, g, opt, rep, bud, workers, sp)
	rep.TimedOut = bud.isTripped()
	rep.Groups = len(grp.keys)
	rep.Elapsed = time.Since(start)
	if workers == 1 {
		busyNS = int64(rep.Elapsed)
	}
	rep.recordObs(opt.Obs, workers, busyNS)
	sp.End()
	if err := ctx.Err(); err != nil {
		return rep, pta.CtxErr(err)
	}
	return rep, nil
}

// recordObs publishes the report's work counters and the worker-pool
// utilization into the registry (no-op when disabled).
func (rep *Report) recordObs(reg *obs.Registry, workers int, busyNS int64) {
	if reg == nil {
		return
	}
	reg.Counter("race.pairs_checked").Set(rep.PairsChecked)
	reg.Counter("race.hb_queries").Set(rep.HBQueries)
	reg.Counter("race.lock_checks").Set(rep.LockChecks)
	reg.Counter("race.skipped_read_read").Set(rep.SkippedReadRead)
	reg.Counter("race.skipped_same_seg").Set(rep.SkippedSameSeg)
	reg.Counter("race.filtered_osa").Set(rep.FilteredOSA)
	reg.Counter("race.filtered_volatile").Set(rep.FilteredVolatile)
	reg.Counter("race.merged_region").Set(rep.MergedRegion)
	reg.SetGauge("race.access_nodes", int64(rep.AccessNodes))
	reg.SetGauge("race.representatives", int64(rep.Representatives))
	reg.SetGauge("race.groups", int64(rep.Groups))
	reg.SetGauge("race.races", int64(len(rep.Races)))
	if rep.TimedOut {
		reg.SetGauge("race.timed_out", 1)
	}
	reg.SetGauge("race.workers", int64(workers))
	reg.SetGauge("race.worker_busy_ns", busyNS)
	reg.SetGauge("race.detect_wall_ns", int64(rep.Elapsed))
}

// racePair is a racing access pair in compact form: the indices of the
// two accesses within their group. A worker keeps a racing pair only when
// its signature pair is new to that worker, so it keeps one pair per
// signature instead of every racing pair (the 31 presets find about 20
// racing pairs per reported race); races materializes a Race only for
// the first pair of each signature in the whole report.
type racePair struct {
	a, b int32
}

// worker is one detection worker's private state. It claims groups in
// increasing index, so the pair it keeps for a signature is the first one
// it found.
type worker struct {
	seen  map[uint64]struct{} // signature pairs (sigPair) of the kept pairs
	kept  []racePair          // the kept pairs, in the order found
	tally *originTally
}

// groupResult is the outcome of checking one candidate group. Each worker
// accumulates into its own groupResult, so the hot loop touches no shared
// counters except the budget reservation.
type groupResult struct {
	rp          []racePair // the racing pairs the worker kept, a view into worker.kept
	pairs       int64
	hbq         int64
	locks       int64
	skipRR      int64 // read/read pairs skipped
	skipSameSeg int64 // same-segment (trace-ordered) pairs skipped
	reps        int
}

// sigPair packs the unordered pair of x's and y's sig ranks, low rank
// first. Packed pairs sort as their races are reported (see collect), and
// two races are duplicates exactly when their sig pairs are equal.
func sigPair(x, y *acc) uint64 {
	lo, hi := x.sig, y.sig
	if lo > hi {
		lo, hi = hi, lo
	}
	return uint64(lo)<<32 | uint64(hi)
}

// merge folds a group result's counters into the report.
func (rep *Report) merge(gr *groupResult) {
	rep.Representatives += gr.reps
	rep.PairsChecked += gr.pairs
	rep.HBQueries += gr.hbq
	rep.LockChecks += gr.locks
	rep.SkippedReadRead += gr.skipRR
	rep.SkippedSameSeg += gr.skipSameSeg
}

// foundRace is a kept racing pair with its sig pair and group.
type foundRace struct {
	key   uint64 // sigPair of the accesses
	group int32
	pair  racePair
}

// races returns the races of the groups whose results are given, one per
// signature, in report order, and credits each to the attribution and the
// progress. A race's pair is the first one of its signature in group and
// iteration order: its group's worker kept it, because a worker claims
// groups in increasing index, and no other group kept one of that
// signature earlier. After sorting the kept pairs by sig pair, then group,
// it is the first of its signature. Ascending sig pair is report order.
// The returned list is the only fresh allocation.
func (s *scratch) races(g *shb.Graph, results []groupResult, attr *Attribution, prog *obs.Progress) []Race {
	grp := &s.grouped
	n := 0
	for i := range results {
		n += len(results[i].rp)
	}
	found := slices.Grow(s.found[:0], n)
	for gi := range results {
		accs := grp.group(gi)
		for _, p := range results[gi].rp {
			found = append(found, foundRace{sigPair(&accs[p.a], &accs[p.b]), int32(gi), p})
		}
	}
	slices.SortFunc(found, func(x, y foundRace) int {
		if c := cmp.Compare(x.key, y.key); c != 0 {
			return c
		}
		return cmp.Compare(x.group, y.group)
	})
	s.found = found
	found = slices.CompactFunc(found, func(x, y foundRace) bool { return x.key == y.key })
	out := make([]Race, len(found))
	for i, f := range found {
		accs := grp.group(int(f.group))
		x, y := accs[f.pair.a], accs[f.pair.b]
		out[i] = Race{Key: grp.keys[f.group], A: access(g, x), B: access(g, y)}
		if attr != nil {
			tallyPair(attr.Races, g, x.node, y.node)
		}
	}
	if len(out) > 0 {
		prog.AddRaces(int64(len(out)))
	}
	return out
}

// cancelStride is the number of hot-loop iterations between cancellation
// polls in checkGroup and collect (power of two, so the stride test is one
// AND). A pair check costs on the order of 100ns — even 50× slower under
// the race detector, one stride is well under a millisecond, keeping the
// context-end-to-exit latency far inside the <100ms guarantee pinned by
// TestCancelMidDetect and TestCancelLatchAgreesWithPairBudget. The poll
// itself is one atomic load (~0.4ns), so the stride's amortized cost is
// unmeasurable.
const cancelStride = 64

// checkGroup runs the pairwise hybrid HB × lockset check over one
// location's representative accesses. It reads only immutable analysis and
// graph state (the SHB reach cache and the lockset table are internally
// synchronized), so any number of checkGroup calls may run concurrently.
//
// A racing pair whose signature pair is new to the worker w is appended
// to w.kept; the result's rp field is the view of the group's pairs,
// capped so that it stays valid while w appends afterwards.
func checkGroup(a *pta.Analysis, g *shb.Graph, accs []acc, opt Options, bud *pairBudget, w *worker) (gr groupResult) {
	gr.reps = len(accs)
	lo := len(w.kept)
	defer func() { gr.rp = w.kept[lo:len(w.kept):len(w.kept)] }()
	tally := w.tally
	tick, flushed := 0, 0
	for i := 0; i < len(accs); i++ {
		for j := i; j < len(accs); j++ {
			tick++
			if tick&(cancelStride-1) == 0 {
				// The cancel-poll stride doubles as the progress flush
				// point: examined-pair deltas are batched locally so the
				// hot loop never touches the shared Progress per pair.
				if opt.Progress != nil {
					opt.Progress.AddPairs(int64(tick - flushed))
					flushed = tick
				}
				if bud.canceled() {
					return gr
				}
			}
			x, y := accs[i], accs[j]
			if i == j && !selfRace(a, g, x) {
				continue
			}
			if !x.write && !y.write {
				gr.skipRR++
				continue
			}
			sx, sy := g.Nodes[x.node].Seg, g.Nodes[y.node].Seg
			if sx == sy && i != j && !a.Origins.Get(g.Origin(x.node)).Replicated {
				// Same origin instance: ordered by the trace.
				gr.skipSameSeg++
				continue
			}
			if !bud.take() {
				flushProgress(opt.Progress, tick, flushed)
				return gr
			}
			gr.pairs++
			if tally != nil {
				tallyPair(tally.pairs, g, x.node, y.node)
			}
			if !opt.NoLockset && commonLock(g, x, y, opt, &gr) {
				continue
			}
			if !opt.NoHB && sx != sy {
				gr.hbq++
				if tally != nil {
					tallyPair(tally.hbq, g, x.node, y.node)
				}
				ordered := false
				if opt.HBCache {
					ordered = g.HappensBefore(x.node, y.node) || g.HappensBefore(y.node, x.node)
				} else {
					ordered = g.HappensBeforeNoCache(x.node, y.node) || g.HappensBeforeNoCache(y.node, x.node)
				}
				if ordered {
					continue
				}
			}
			before := len(w.seen)
			if w.seen[sigPair(&x, &y)] = struct{}{}; len(w.seen) != before {
				w.kept = append(w.kept, racePair{int32(i), int32(j)})
			}
		}
	}
	flushProgress(opt.Progress, tick, flushed)
	return gr
}

// flushProgress publishes the unflushed examined-pair delta on group exit.
func flushProgress(p *obs.Progress, tick, flushed int) {
	if p != nil && tick != flushed {
		p.AddPairs(int64(tick - flushed))
	}
}

// acc is one candidate access: its SHB node, whether it writes, and its
// sig, the rank of the pair (field name, source position) among those of
// all candidate accesses. Equal sigs mean equal field and position.
type acc struct {
	node  int
	sig   int32
	write bool
}

// sigKey is the interned identity behind acc.sig: the group's field, as
// an index into collect's field names, and the access's position.
type sigKey struct {
	field int32
	pos   ir.Pos
}

// grouped is the candidate groups in a flat arena: group i's accesses are
// accs[off[i]:off[i+1]], node-ID ascending, with keys sorted by Key.Less.
// It is built with a constant number of allocations, not one per
// location.
type grouped struct {
	keys []osa.Key
	accs []acc
	off  []int32
}

func (gr *grouped) group(i int) []acc { return gr.accs[gr.off[i]:gr.off[i+1]:gr.off[i+1]] }

// Per-location decisions of collect; a non-negative decision d means the
// location is candidate group d-1.
const (
	locUndecided int32 = 0
	locNotShared int32 = -1 // filtered by OSA
	locVolatile  int32 = -2 // synchronization, not data
)

// scratch is DetectCtx's working state: collect's tables, the grouped
// arena, the workers' dedup sets and the kept pairs of every group.
// DetectCtx takes one from scratchPool and puts it back once Report.Races
// is built, so a later detection in the process reuses them.
type scratch struct {
	fate     []int32   // PAG node → decision on the location (locUndecided, ...)
	kept     []uint64  // surviving access nodes, a bitset over SHB nodes
	keys     []osa.Key // dense group index → location key
	grpField []int32   // dense group index → field index
	counts   []int32   // dense group index → surviving accesses
	order    []int32   // sorted position → dense group index
	pos      []int32   // dense group index → sorted position
	cur      []int32   // sorted position → next free slot in grouped.accs
	fields   map[string]int32
	merged   map[uint64]struct{} // region representatives (see collect)
	sigs     map[sigKey]int32
	grouped  grouped

	// sigRanks' tables
	fieldNames []string
	sigKeys    []sigKey
	sigOrder   []int32
	rank       []int32

	workers []worker
	results []groupResult
	found   []foundRace
}

// scratchPool holds the working state of finished detections.
var scratchPool = sync.Pool{New: func() any {
	return &scratch{
		fields: map[string]int32{},
		merged: map[uint64]struct{}{},
		sigs:   map[sigKey]int32{},
	}
}}

// put empties s and returns it to scratchPool, unless pta.KeepPooled
// drops it for its location table, which is indexed by PAG node as the
// solver's node table is, or for its access arena, which grows with the
// SHB graph instead: linux-x8's 319k accesses come from 42k PAG nodes,
// under the rule's floor. It keeps at most GOMAXPROCS worker slots.
func (s *scratch) put() {
	if !pta.KeepPooled(cap(s.fate), len(s.fate)) || !pta.KeepPooled(cap(s.grouped.accs), len(s.grouped.accs)) {
		return
	}
	if n := runtime.GOMAXPROCS(0); len(s.workers) > n {
		s.workers = slices.Clone(s.workers[:n])
	}
	clear(s.fields)
	clear(s.merged)
	clear(s.sigs)
	// Drop what refers into the analyzed program.
	clear(s.keys)
	clear(s.grouped.keys)
	clear(s.fieldNames)
	clear(s.sigKeys)
	clear(s.results)
	for i := range s.workers {
		w := &s.workers[i]
		clear(w.seen)
		w.kept, w.tally = w.kept[:0], nil
	}
	scratchPool.Put(s)
}

// zeroed resizes *l to n zero elements, reusing its array when it is
// large enough, and returns it.
func zeroed[T any](l *[]T, n int) []T {
	if cap(*l) < n {
		*l = make([]T, n)
	} else {
		*l = (*l)[:n]
		clear(*l)
	}
	return *l
}

// collect groups SHB access nodes by location, applying the OSA filter and
// lock-region merging. Volatile locations are synchronization, not data
// (§4.3 extension: atomics), and are never candidates.
//
// Each location's fate is decided once, at its first access node, into a
// table indexed by location: filtered as not origin-shared, filtered as
// volatile, or interned as a dense group index in first-seen (node-ID)
// order. The first pass marks the surviving access nodes in a bitset and
// counts them per group, so the arena is allocated at its final size. A
// second pass over the marked nodes scatters them into the arena in
// sorted-key group order, preserving node order within each group, and
// each access's interned sig is then replaced by its rank in (field
// name, file, line) order. Races are reported by field, then the lower
// position, then the higher one (the tests' RaceLess), so packed rank
// pairs sort in report order. Every table is s's, and so is the result.
func (s *scratch) collect(a *pta.Analysis, g *shb.Graph, sharing *osa.Result, opt Options, rep *Report, bud *pairBudget) *grouped {
	fate := zeroed(&s.fate, a.NumNodes())
	kept := zeroed(&s.kept, (len(g.Nodes)+63)/64)
	s.keys, s.grpField, s.counts = s.keys[:0], s.grpField[:0], s.counts[:0]
	total := 0
	for id := range g.Nodes {
		if id&(cancelStride-1) == 0 && bud.canceled() {
			// Canceled mid-collect: stop grouping — the detectors will stop
			// claiming immediately and the partial report stays a valid
			// lower bound.
			break
		}
		n := &g.Nodes[id]
		if n.Kind != shb.NRead && n.Kind != shb.NWrite {
			continue
		}
		f := fate[n.Loc]
		if f == locUndecided {
			k := osa.KeyOf(a, n.Loc)
			switch {
			case opt.OSAFilter && !sharing.IsShared(n.Loc):
				f = locNotShared
			case isVolatile(a, k):
				f = locVolatile
			default:
				s.keys = append(s.keys, k)
				f = int32(len(s.keys))
				name := k.Field
				if k.Static != "" {
					name = k.Static
				}
				fi, ok := s.fields[name]
				if !ok {
					fi = int32(len(s.fields))
					s.fields[name] = fi
				}
				s.grpField = append(s.grpField, fi)
				s.counts = append(s.counts, 0)
			}
			fate[n.Loc] = f
		}
		switch f {
		case locNotShared:
			rep.FilteredOSA++
			continue
		case locVolatile:
			rep.FilteredVolatile++
			continue
		}
		rep.AccessNodes++
		gi := f - 1
		w := n.Kind == shb.NWrite
		if opt.RegionMerge && n.Region != 0 {
			// A region instance lies in one segment under one lockset, so
			// the group, the region and the write flag identify its
			// representative.
			mk := uint64(gi)<<32 | uint64(n.Region)<<1
			if w {
				mk |= 1
			}
			before := len(s.merged)
			if s.merged[mk] = struct{}{}; len(s.merged) == before {
				rep.MergedRegion++
				continue // merged into the region's representative access
			}
		}
		kept[id/64] |= 1 << (id % 64)
		s.counts[gi]++
		total++
	}

	// Sort groups by key and scatter the accesses into the arena.
	keys := s.keys
	order := zeroed(&s.order, len(keys))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(x, y int32) int {
		if keys[x].Less(keys[y]) {
			return -1
		}
		return 1 // keys are distinct
	})
	out := &s.grouped
	zeroed(&out.keys, len(keys))
	zeroed(&out.accs, total)
	zeroed(&out.off, len(keys)+1)
	pos := zeroed(&s.pos, len(keys)) // dense group index → sorted position
	for si, gi := range order {
		pos[gi] = int32(si)
		out.keys[si] = keys[gi]
		out.off[si+1] = out.off[si] + s.counts[gi]
	}
	cur := zeroed(&s.cur, len(keys))
	copy(cur, out.off[:len(keys)])
	for wi, word := range kept {
		for ; word != 0; word &= word - 1 {
			id := wi*64 + bits.TrailingZeros64(word)
			n := &g.Nodes[id]
			gi := fate[n.Loc] - 1
			sk := sigKey{s.grpField[gi], g.Instr(id).Pos()}
			sig, ok := s.sigs[sk]
			if !ok {
				sig = int32(len(s.sigs))
				s.sigs[sk] = sig
			}
			p := pos[gi]
			out.accs[cur[p]] = acc{id, sig, n.Kind == shb.NWrite}
			cur[p]++
		}
	}
	rank := s.sigRanks()
	for i := range out.accs {
		out.accs[i].sig = rank[out.accs[i].sig]
	}
	return out
}

// sigRanks returns the rank of each sig interned in s.sigs, indexed by
// sig, in (field name, file, line) order. Distinct sigs differ in one of
// the three, so the ranks are distinct.
func (s *scratch) sigRanks() []int32 {
	fieldNames := zeroed(&s.fieldNames, len(s.fields))
	for name, fi := range s.fields {
		fieldNames[fi] = name
	}
	sigKeys := zeroed(&s.sigKeys, len(s.sigs))
	order := zeroed(&s.sigOrder, len(s.sigs))
	for sk, sig := range s.sigs {
		sigKeys[sig] = sk
		order[sig] = sig
	}
	slices.SortFunc(order, func(x, y int32) int {
		kx, ky := &sigKeys[x], &sigKeys[y]
		if c := strings.Compare(fieldNames[kx.field], fieldNames[ky.field]); c != 0 {
			return c
		}
		if c := strings.Compare(kx.pos.File, ky.pos.File); c != 0 {
			return c
		}
		return cmp.Compare(kx.pos.Line, ky.pos.Line)
	})
	rank := zeroed(&s.rank, len(order))
	for r, sig := range order {
		rank[sig] = int32(r)
	}
	return rank
}

// isVolatile reports whether the location has atomic access semantics.
func isVolatile(a *pta.Analysis, k osa.Key) bool {
	if k.Static != "" {
		return a.Prog.VolatileStatics[k.Static]
	}
	if k.Obj == 0 {
		return false
	}
	return a.Obj(k.Obj).Class().IsVolatile(k.Field)
}

// selfRace reports whether a single access can race with itself: a write
// executed by two concurrent instances of a replicated origin.
func selfRace(a *pta.Analysis, g *shb.Graph, x acc) bool {
	return x.write && a.Origins.Get(g.Origin(x.node)).Replicated
}

func commonLock(g *shb.Graph, x, y acc, opt Options, gr *groupResult) bool {
	gr.locks++
	nx, ny := &g.Nodes[x.node], &g.Nodes[y.node]
	if opt.CanonicalLocksets {
		return g.Locksets.Intersects(nx.Locks, ny.Locks)
	}
	return lockset.IntersectSorted(g.Locksets.Set(nx.Locks), g.Locksets.Set(ny.Locks))
}

func access(g *shb.Graph, x acc) Access {
	return Access{
		Node:   x.node,
		Origin: g.Origin(x.node),
		Write:  x.write,
		Pos:    g.Instr(x.node).Pos(),
		Fn:     g.Func(x.node).Name,
	}
}
