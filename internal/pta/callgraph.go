package pta

import (
	"cmp"
	"fmt"
	"slices"

	"o2/internal/ir"
)

// FnCtxID identifies an interned ⟨function, context⟩ pair — a node of the
// context-sensitive call graph.
type FnCtxID uint32

// FnCtx is a contexted function.
type FnCtx struct {
	Fn  *ir.Func
	Ctx CtxID
}

type fnCtxKey struct {
	fn  *ir.Func
	ctx CtxID
}

// EdgeKind classifies call-graph edges.
type EdgeKind uint8

const (
	// EdgeCall is an ordinary (same-origin) call, rule ⑦ of Table 2.
	EdgeCall EdgeKind = iota
	// EdgeSpawn is an origin-entry invocation (thread start or event
	// dispatch), rule ⑨; Origin identifies the spawned origin.
	EdgeSpawn
	// EdgeInit is the constructor call of an origin allocation, rule ⑧.
	EdgeInit
	// EdgeJoin marks a join statement; Origin identifies the joined origin
	// and Callee is unset.
	EdgeJoin
)

// Edge is a resolved call-graph edge from one instruction of a contexted
// caller to a contexted callee (or to an origin for spawn/join edges).
type Edge struct {
	Kind   EdgeKind
	Caller FnCtxID
	// InstrIdx is the index of the call instruction within the caller's
	// body; SHB construction replays instructions in order and consumes
	// edges by index.
	InstrIdx int
	Callee   FnCtxID  // valid unless Kind == EdgeJoin
	Origin   OriginID // valid for EdgeSpawn and EdgeJoin
}

// smallOut is the out-edge count up to which addEdge dedups by scanning
// the caller's out-list; from it on, the caller's edges are also kept in
// CallGraph.big. The largest preset out-list has a few hundred edges.
const smallOut = 16

// CallGraph is the on-the-fly context-sensitive call graph built by the
// solver.
type CallGraph struct {
	nodes []FnCtx
	index map[fnCtxKey]FnCtxID
	// out maps a caller node to its outgoing edges: in discovery order
	// while the solver runs, then stably sorted by InstrIdx (sortOut).
	out [][]Edge
	// big dedups the edges of callers with at least smallOut of them.
	// It is the solver's (solver.big), held only while the solver runs.
	big   map[Edge]struct{}
	Edges int
}

func newCallGraph() *CallGraph {
	return &CallGraph{index: map[fnCtxKey]FnCtxID{}}
}

// Node interns ⟨fn, ctx⟩ and returns its ID.
func (g *CallGraph) Node(fn *ir.Func, ctx CtxID) FnCtxID {
	k := fnCtxKey{fn, ctx}
	if id, ok := g.index[k]; ok {
		return id
	}
	id := FnCtxID(len(g.nodes))
	g.nodes = append(g.nodes, FnCtx{fn, ctx})
	g.out = append(g.out, nil)
	g.index[k] = id
	return id
}

// Lookup returns the node for ⟨fn, ctx⟩ if it exists.
func (g *CallGraph) Lookup(fn *ir.Func, ctx CtxID) (FnCtxID, bool) {
	id, ok := g.index[fnCtxKey{fn, ctx}]
	return id, ok
}

// Get returns the contexted function for a node ID.
func (g *CallGraph) Get(id FnCtxID) FnCtx { return g.nodes[id] }

// NumNodes returns the number of reachable contexted functions.
func (g *CallGraph) NumNodes() int { return len(g.nodes) }

// addEdge adds e unless the graph has it.
func (g *CallGraph) addEdge(e Edge) {
	out := g.out[e.Caller]
	if len(out) < smallOut {
		if slices.Contains(out, e) {
			return
		}
	} else {
		if _, dup := g.big[e]; dup {
			return
		}
		g.big[e] = struct{}{}
	}
	out = append(out, e)
	g.out[e.Caller] = out
	if len(out) == smallOut {
		if g.big == nil {
			g.big = map[Edge]struct{}{}
		}
		for _, x := range out {
			g.big[x] = struct{}{}
		}
	}
	g.Edges++
}

// sortOut stably sorts every out-list by InstrIdx, so the edges of one
// instruction are contiguous and keep their discovery order. The solver
// calls it when it stops.
func (g *CallGraph) sortOut() {
	for _, out := range g.out {
		slices.SortStableFunc(out, func(x, y Edge) int { return cmp.Compare(x.InstrIdx, y.InstrIdx) })
	}
}

// Out returns all outgoing edges of node (every instruction).
func (g *CallGraph) Out(node FnCtxID) []Edge { return g.out[node] }

// EdgesAt returns the edges leaving the instruction at index idx of node,
// in discovery order: a binary search for the first, then a scan. The
// result is a subslice of the call graph, valid once the solver has
// stopped; it must not be modified.
func (g *CallGraph) EdgesAt(node FnCtxID, idx int) []Edge {
	out := g.out[node]
	lo, hi := 0, len(out)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); out[m].InstrIdx < idx {
			lo = m + 1
		} else {
			hi = m
		}
	}
	hi = lo
	for hi < len(out) && out[hi].InstrIdx == idx {
		hi++
	}
	return out[lo:hi:hi]
}

func (g *CallGraph) String() string {
	return fmt.Sprintf("callgraph{%d nodes, %d edges}", len(g.nodes), g.Edges)
}
