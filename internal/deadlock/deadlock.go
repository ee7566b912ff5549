// Package deadlock implements a static deadlock detector on top of OPA and
// the SHB graph — one of the "beyond race detection" clients the paper
// names for origin-sensitive analysis (§3: "OPA and OSA can benefit any
// analysis that requires analyzing pointers or ownership of memory
// accesses, e.g., deadlock, over-synchronization...").
//
// The analysis builds a lock-order graph: an edge a → b is recorded when
// some origin acquires lock object b while already holding lock object a.
// A cycle among locks acquired by at least two different origins that can
// run in parallel is reported as a potential deadlock. Alias reasoning
// comes from the pointer analysis: two syntactically different lock
// expressions pointing to the same abstract object are the same lock.
package deadlock

import (
	"fmt"
	"sort"

	"o2/internal/ir"
	"o2/internal/pta"
	"o2/internal/shb"
)

// Acquire records one nested acquisition: the origin acquired Inner while
// holding Outer.
type Acquire struct {
	Outer, Inner pta.ObjID
	Origin       pta.OriginID
	Pos          ir.Pos
	Fn           string
}

// Warning is a potential deadlock: a cycle in the lock-order graph whose
// edges come from at least two concurrently-runnable origins.
type Warning struct {
	// Cycle lists the lock objects in order (cycle[0] is held while
	// acquiring cycle[1], and so on, wrapping around).
	Cycle []pta.ObjID
	// Sites are representative acquisition sites, one per cycle edge.
	Sites []Acquire
}

func (w *Warning) String() string {
	s := "potential deadlock: lock cycle"
	for i, site := range w.Sites {
		s += fmt.Sprintf("\n  o%d -> o%d acquired at %s in %s [origin O%d]",
			w.Cycle[i], w.Cycle[(i+1)%len(w.Cycle)], site.Pos, site.Fn, site.Origin)
	}
	return s
}

// Report is the analysis result.
type Report struct {
	Warnings []Warning
	// Edges is the number of distinct lock-order edges observed.
	Edges int
}

type edgeKey struct{ outer, inner pta.ObjID }

// Analyze scans the SHB traces for nested lock acquisitions and reports
// lock-order cycles.
func Analyze(a *pta.Analysis, g *shb.Graph) *Report {
	// Collect nested acquisitions by replaying each segment's lock/unlock
	// node sequence.
	edges := map[edgeKey][]Acquire{}

	for _, seg := range g.Segs {
		if seg.First < 0 {
			continue
		}
		var held []pta.ObjID
		for id := seg.First; id <= seg.Last; id++ {
			n := &g.Nodes[id]
			switch n.Kind {
			case shb.NLock:
				objs := lockObjsAt(a, n)
				for _, inner := range objs {
					for _, outer := range held {
						if outer == inner {
							continue // reentrant
						}
						k := edgeKey{outer, inner}
						edges[k] = append(edges[k], Acquire{
							Outer: outer, Inner: inner,
							Origin: seg.Origin, Pos: n.Instr.Pos(), Fn: n.Fn.Name,
						})
					}
				}
				if len(objs) > 0 {
					held = append(held, objs[0])
				} else {
					held = append(held, 0) // unknown lock: placeholder
				}
			case shb.NUnlock:
				if len(held) > 0 {
					held = held[:len(held)-1]
				}
			}
		}
	}

	rep := &Report{Edges: len(edges)}

	// Build adjacency and find simple cycles of length 2 (the common
	// AB/BA inversion) and self-contained longer cycles via DFS.
	adj := map[pta.ObjID][]pta.ObjID{}
	for k := range edges {
		adj[k.outer] = append(adj[k.outer], k.inner)
	}
	for o := range adj {
		sort.Slice(adj[o], func(i, j int) bool { return adj[o][i] < adj[o][j] })
	}

	seen := map[string]bool{}
	var nodes []pta.ObjID
	for o := range adj {
		nodes = append(nodes, o)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })

	for _, start := range nodes {
		// Bounded DFS for cycles through start (cycle length ≤ 4 keeps the
		// report readable; longer chains decompose into shorter inversions
		// in practice).
		var path []pta.ObjID
		var dfs func(cur pta.ObjID, depth int)
		dfs = func(cur pta.ObjID, depth int) {
			path = append(path, cur)
			defer func() { path = path[:len(path)-1] }()
			for _, next := range adj[cur] {
				if next == start && len(path) >= 2 {
					cyc := append([]pta.ObjID{}, path...)
					if w, ok := makeWarning(a, g, cyc, edges); ok {
						sig := cycleSig(cyc)
						if !seen[sig] {
							seen[sig] = true
							rep.Warnings = append(rep.Warnings, w)
						}
					}
					continue
				}
				if next > start && depth < 4 && !contains(path, next) {
					dfs(next, depth+1)
				}
			}
		}
		dfs(start, 1)
	}
	return rep
}

// makeWarning validates that the cycle's edges involve at least two
// origins that may run concurrently, and picks representative sites.
func makeWarning(a *pta.Analysis, g *shb.Graph, cyc []pta.ObjID,
	edges map[edgeKey][]Acquire) (Warning, bool) {
	var sites []Acquire
	origins := map[pta.OriginID]bool{}
	replicated := false
	for i := range cyc {
		k := edgeKey{cyc[i], cyc[(i+1)%len(cyc)]}
		as := edges[k]
		if len(as) == 0 {
			return Warning{}, false
		}
		sites = append(sites, as[0])
		for _, acq := range as {
			origins[acq.Origin] = true
			if a.Origins.Get(acq.Origin).Replicated {
				replicated = true
			}
		}
	}
	if len(origins) < 2 && !replicated {
		// A single (non-replicated) origin cannot deadlock with itself.
		return Warning{}, false
	}
	return Warning{Cycle: cyc, Sites: sites}, true
}

func lockObjsAt(a *pta.Analysis, n *shb.Node) []pta.ObjID {
	me, ok := n.Instr.(*ir.MonitorEnter)
	if !ok {
		return nil
	}
	// The SHB node does not record its analysis context, so union the
	// monitor variable's points-to sets across every context the enclosing
	// function is reachable in — a sound over-approximation of the locks
	// this acquisition may take.
	var out []pta.ObjID
	seen := map[pta.ObjID]bool{}
	for id := 0; id < a.CG.NumNodes(); id++ {
		if a.CG.Get(pta.FnCtxID(id)).Fn != n.Fn {
			continue
		}
		a.PointsToIn(pta.FnCtxID(id), me.Obj).ForEach(func(o uint32) {
			if !seen[pta.ObjID(o)] {
				seen[pta.ObjID(o)] = true
				out = append(out, pta.ObjID(o))
			}
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func contains(xs []pta.ObjID, x pta.ObjID) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

func cycleSig(cyc []pta.ObjID) string {
	// Normalize rotation: start at the minimum element.
	min := 0
	for i := range cyc {
		if cyc[i] < cyc[min] {
			min = i
		}
	}
	sig := ""
	for i := range cyc {
		sig += fmt.Sprintf("%d,", cyc[(min+i)%len(cyc)])
	}
	return sig
}
