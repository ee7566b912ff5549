package pta

import (
	"fmt"
	"sort"
	"strings"

	"o2/internal/ir"
)

// Stats summarizes an analysis run (the #Pointer / #Object / #Edge columns
// of the paper's Table 6).
type Stats struct {
	Policy   string
	Pointers int // variable nodes created (contexted pointers)
	Objects  int // abstract heap objects
	Edges    int // PAG edges
	Contexts int // interned contexts
	CGNodes  int // reachable contexted functions
	CGEdges  int
	Origins  int
	Steps    int64
	// Iterations counts worklist pops; Constraints counts registered
	// load/store/call constraints and distinct PAG edges.
	Iterations  int64
	Constraints int64
	TimedOut    bool
	Replicated  int
}

func (s Stats) String() string {
	return fmt.Sprintf("%s: %d pointers, %d objects, %d edges, %d ctxs, cg %d/%d, %d origins",
		s.Policy, s.Pointers, s.Objects, s.Edges, s.Contexts, s.CGNodes, s.CGEdges, s.Origins)
}

// Stats returns run statistics.
func (a *Analysis) Stats() Stats {
	vars := 0
	for id := range NodeID(a.heap.nodes.len()) {
		if a.heap.nodes.at(id).kind == nodeVar {
			vars++
		}
	}
	repl := 0
	for _, o := range a.Origins.Origins {
		if o.Replicated {
			repl++
		}
	}
	return Stats{
		Policy:      a.Cfg.Policy.Name(),
		Pointers:    vars,
		Objects:     a.heap.NumObjs(),
		Edges:       a.numEdges,
		Contexts:    len(a.ctxs.elems),
		CGNodes:     a.CG.NumNodes(),
		CGEdges:     a.CG.Edges,
		Origins:     a.Origins.Len(),
		Steps:       a.steps,
		Iterations:  a.iterations,
		Constraints: a.constraints,
		TimedOut:    a.err == ErrBudget,
		Replicated:  repl,
	}
}

var emptyBits Bits

// PointsTo returns the points-to set of variable v under context ctx. The
// returned set must not be modified. Returns an empty set if the node does
// not exist. A caller that holds v's call-graph node uses PointsToIn.
func (a *Analysis) PointsTo(v *ir.Var, ctx CtxID) *Bits {
	if fc, ok := a.CG.Lookup(v.Func, ctx); ok {
		return a.PointsToIn(fc, v)
	}
	return &emptyBits
}

// PointsToIn returns the points-to set of variable v in call-graph node
// fc, whose function must be v's; see PointsTo.
func (a *Analysis) PointsToIn(fc FnCtxID, v *ir.Var) *Bits {
	if vars := a.fnVars[fc]; v.ID < len(vars) && vars[v.ID] != 0 {
		return a.pts.at(vars[v.ID] - 1)
	}
	return &emptyBits
}

// FieldPointsTo returns the points-to set of ⟨obj⟩.field.
func (a *Analysis) FieldPointsTo(obj ObjID, field string) *Bits {
	if id, ok := a.FieldNode(obj, field); ok {
		return a.pts.at(id)
	}
	return &emptyBits
}

// StaticPointsTo returns the points-to set of static field "Class.field".
func (a *Analysis) StaticPointsTo(sig string) *Bits {
	if id, ok := a.StaticNode(sig); ok {
		return a.pts.at(id)
	}
	return &emptyBits
}

// FieldNode returns the PAG node of ⟨obj⟩.field without creating one. A
// solved analysis has a node for every field a load or store reaches; one
// that stopped early (step budget, cancellation) may lack it.
func (a *Analysis) FieldNode(obj ObjID, field string) (NodeID, bool) {
	f, ok := a.heap.fieldIDs[field]
	if !ok || int(obj) >= len(a.heap.objFields) {
		return 0, false
	}
	return a.heap.lookupField(obj, f)
}

// StaticNode returns the PAG node of static field sig ("Class.field")
// without creating one; see FieldNode for when it is missing.
func (a *Analysis) StaticNode(sig string) (NodeID, bool) {
	f, ok := a.heap.fieldIDs[sig]
	if !ok {
		return 0, false
	}
	return a.heap.lookupStatic(f)
}

// FieldNodeAt is FieldNode for the field, array or channel access at
// instruction idx of fc's function: the node of ⟨obj⟩ and the field the
// instruction accesses.
func (a *Analysis) FieldNodeAt(fc FnCtxID, idx int, obj ObjID) (NodeID, bool) {
	return a.heap.lookupField(obj, a.fnFields[fc][idx])
}

// StaticNodeAt is StaticNode for the static access at instruction idx of
// fc's function.
func (a *Analysis) StaticNodeAt(fc FnCtxID, idx int) (NodeID, bool) {
	return a.heap.lookupStatic(a.fnFields[fc][idx])
}

// NodeField is the reverse of FieldNode and StaticNode: the object and
// field name of a field node, or object 0 and the signature of a static
// node.
func (a *Analysis) NodeField(id NodeID) (ObjID, string) {
	n := a.heap.nodes.at(id)
	return n.obj, a.heap.fieldNames[n.field]
}

// NumNodes returns the number of PAG nodes; NodeIDs are below it.
func (a *Analysis) NumNodes() int { return a.heap.NumNodes() }

// Obj returns the descriptor of an abstract object.
func (a *Analysis) Obj(id ObjID) *ObjInfo { return a.heap.obj(id) }

// NumObjs returns the number of abstract objects.
func (a *Analysis) NumObjs() int { return a.heap.NumObjs() }

// CtxString renders a context for diagnostics.
func (a *Analysis) CtxString(ctx CtxID) string { return a.ctxs.String(ctx) }

// ObjString renders an abstract object as ⟨site@pos, ctx⟩.
func (a *Analysis) ObjString(id ObjID) string {
	o := a.heap.obj(id)
	return fmt.Sprintf("o%d(%s@%s)", id, o.Class().Name, o.Pos())
}

// OriginOfCtx maps an analysis context back to the origin whose code runs
// under it. For the KOrigin policy the mapping is direct; for other
// policies it returns false (callers must track origins during call-graph
// traversal instead).
func (a *Analysis) OriginOfCtx(ctx CtxID) (OriginID, bool) {
	if a.Cfg.Policy.Kind != KOrigin {
		return 0, false
	}
	chain, _ := a.originChain(ctx)
	if chain == EmptyCtx {
		return MainOrigin, true
	}
	for _, o := range a.Origins.Origins {
		if o.Ctx == chain {
			return o.ID, true
		}
	}
	return 0, false
}

// OriginAttrs renders the attribute pointers of an origin: each attribute
// variable with the allocation sites it may point to. This is the
// user-facing part of the origin abstraction (§3.1). The rendered object
// set is sorted so the string is byte-stable across runs — race witnesses
// embed it and are golden-tested.
func (a *Analysis) OriginAttrs(id OriginID) string {
	o := a.Origins.Get(id)
	if len(o.AttrVars) == 0 {
		return "()"
	}
	parts := make([]string, 0, len(o.AttrVars))
	for _, v := range o.AttrVars {
		pts := a.PointsTo(v, o.AttrCtx)
		objs := make([]string, 0, pts.Len())
		pts.ForEach(func(ob uint32) { objs = append(objs, a.ObjString(ObjID(ob))) })
		sort.Strings(objs)
		parts = append(parts, fmt.Sprintf("%s→{%s}", v.Name, strings.Join(objs, ",")))
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// ReachableFuncs returns the distinct functions reachable in the call
// graph, sorted by name.
func (a *Analysis) ReachableFuncs() []*ir.Func {
	seen := map[*ir.Func]bool{}
	var out []*ir.Func
	for _, fc := range a.CG.nodes {
		if !seen[fc.Fn] {
			seen[fc.Fn] = true
			out = append(out, fc.Fn)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// OriginCGNodes returns, indexed by OriginID, the number of call-graph
// nodes (contexted functions) running under each origin's context — the
// per-origin measure of pointer-analysis and call-graph work. Contexts
// that cannot be attributed (non-KOrigin policies, unresolved chains)
// land on MainOrigin, so the counts always sum to the call-graph size.
func (a *Analysis) OriginCGNodes() []int64 {
	out := make([]int64, a.Origins.Len())
	if len(out) == 0 {
		return out
	}
	cache := map[CtxID]OriginID{}
	for _, fc := range a.CG.nodes {
		id, ok := cache[fc.Ctx]
		if !ok {
			id = MainOrigin
			if o, attributed := a.OriginOfCtx(fc.Ctx); attributed {
				id = o
			}
			cache[fc.Ctx] = id
		}
		out[id]++
	}
	return out
}

// MainNode returns the call-graph node of the program entry.
func (a *Analysis) MainNode() FnCtxID {
	id, _ := a.CG.Lookup(a.Prog.Main, EmptyCtx)
	return id
}

// ForEachFieldNode invokes fn for every object-field node in the PAG with
// its points-to set, in NodeID order.
func (a *Analysis) ForEachFieldNode(fn func(obj ObjID, field string, pts *Bits)) {
	for id := range NodeID(a.heap.nodes.len()) {
		if n := a.heap.nodes.at(id); n.kind == nodeField {
			fn(n.obj, a.heap.fieldNames[n.field], a.pts.at(id))
		}
	}
}

// ForEachStaticNode invokes fn for every static-field node in the PAG, in
// NodeID order.
func (a *Analysis) ForEachStaticNode(fn func(sig string, pts *Bits)) {
	for id := range NodeID(a.heap.nodes.len()) {
		if n := a.heap.nodes.at(id); n.kind == nodeStatic {
			fn(a.heap.fieldNames[n.field], a.pts.at(id))
		}
	}
}

// MayAlias reports whether two contexted variables may point to a common
// object.
func (a *Analysis) MayAlias(v1 *ir.Var, c1 CtxID, v2 *ir.Var, c2 CtxID) bool {
	return a.PointsTo(v1, c1).Intersects(a.PointsTo(v2, c2))
}
