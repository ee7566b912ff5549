package shb

import (
	"math"
	"sort"
	"sync"
)

// frontierSlot caches one reachability frontier. Its sync.Once makes the
// slot single-flight: one traversal fills it no matter how many detection
// workers reach it at once, and every caller then shares the immutable
// slice.
type frontierSlot struct {
	once sync.Once
	f    []int
}

// initReach makes the frontier slots once the out-lists are final:
// segment s owns one slot per outgoing-edge suffix, reachAt[s] through
// reachAt[s]+len(out[s]).
func (g *Graph) initReach() {
	g.reachAt = make([]int, len(g.out))
	n := 0
	for s, es := range g.out {
		g.reachAt[s] = n
		n += len(es) + 1
	}
	g.reach = make([]frontierSlot, n)
}

// HappensBefore reports whether node x happens before node y. Within a
// segment this is the constant-time integer comparison of the paper's
// first optimization; across segments it is reachability over the
// inter-origin edges, with the frontier cached per (segment, edge-suffix).
// Safe for concurrent use once the graph is built.
func (g *Graph) HappensBefore(x, y int) bool {
	return g.happensBefore(x, y, true)
}

// HappensBeforeNoCache is the uncached variant used by the naive baseline.
// It allocates a fresh frontier per query and is likewise safe for
// concurrent use.
func (g *Graph) HappensBeforeNoCache(x, y int) bool {
	return g.happensBefore(x, y, false)
}

func (g *Graph) happensBefore(x, y int, useCache bool) bool {
	sx, sy := g.Nodes[x].Seg, g.Nodes[y].Seg
	if sx == sy {
		return x < y
	}
	f := g.frontier(sx, x, useCache)
	return f[sy] <= y
}

// frontier returns, for every segment, the minimum node position reachable
// from (seg, pos) via inter-origin edges. The result depends on pos only
// through the index of the first outgoing edge at or after it, which is
// what the cache keys on. The returned slice must not be modified.
func (g *Graph) frontier(seg SegID, pos int, useCache bool) []int {
	if !useCache {
		return g.computeFrontier(seg, pos)
	}
	edges := g.out[seg]
	idx := sort.Search(len(edges), func(i int) bool { return edges[i].From >= pos })
	slot := &g.reach[g.reachAt[seg]+idx]
	computed := false
	slot.once.Do(func() {
		slot.f = g.computeFrontier(seg, pos)
		computed = true
	})
	// Cache accounting: the goroutine that ran the traversal records a
	// miss, every other caller a hit. The counters are nil (and Inc a
	// no-op) when observability is disabled.
	if computed {
		g.reachMisses.Inc()
	} else {
		g.reachHits.Inc()
	}
	return slot.f
}

// computeFrontier performs the worklist traversal. Unreachable segments
// map to math.MaxInt. It only reads graph state that is immutable after
// Build, so concurrent calls are safe.
func (g *Graph) computeFrontier(seg SegID, pos int) []int {
	// Work from (seg, pos): an outgoing edge (from → to) is usable when
	// from is at or after the minimum reached position in its segment.
	// f[seg] starts unreached too: x does not happen before earlier nodes
	// of its own segment here.
	f := make([]int, len(g.Segs))
	min := make([]int, len(g.Segs))
	for i := range f {
		f[i], min[i] = math.MaxInt, math.MaxInt
	}
	min[seg] = pos
	wl := []SegID{seg}
	for len(wl) > 0 {
		s := wl[len(wl)-1]
		wl = wl[:len(wl)-1]
		p := min[s]
		es := g.out[s]
		i := sort.Search(len(es), func(i int) bool { return es[i].From >= p })
		for ; i < len(es); i++ {
			to := es[i].To
			ts := g.Nodes[to].Seg
			if to < f[ts] {
				f[ts] = to
			}
			if to < min[ts] {
				min[ts] = to
				wl = append(wl, ts)
			}
		}
	}
	return f
}
