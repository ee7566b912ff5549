// Package osa implements the paper's origin-sharing analysis (Algorithm 1,
// §3.3): a linear traversal of the reachable program that computes, for
// every abstract heap location ⟨object, field⟩ (and every static field),
// the set of origins that read it and the set that write it. A location is
// origin-shared when at least two origins access it with at least one
// write, or when a replicated origin (two or more concurrent instances)
// writes it.
package osa

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"o2/internal/ir"
	"o2/internal/obs"
	"o2/internal/pta"
)

// Loc is a memory location's identity: the PAG node the pointer analysis
// interned for ⟨object, field⟩ or for a static field. OSA, the SHB graph
// and detection key their per-location tables by it.
type Loc = pta.NodeID

// Key is the printable, sortable form of a location: either ⟨Obj⟩.Field
// (Static == "") or a static field signature.
type Key struct {
	Obj    pta.ObjID
	Field  string
	Static string
}

func (k Key) String() string {
	if k.Static != "" {
		return k.Static
	}
	return fmt.Sprintf("o%d.%s", k.Obj, k.Field)
}

// Less orders keys by object, then field, then static signature.
func (k Key) Less(o Key) bool {
	if k.Obj != o.Obj {
		return k.Obj < o.Obj
	}
	if k.Field != o.Field {
		return k.Field < o.Field
	}
	return k.Static < o.Static
}

// KeyOf returns the key of a location.
func KeyOf(a *pta.Analysis, l Loc) Key {
	obj, name := a.NodeField(l)
	if obj == 0 {
		return Key{Static: name}
	}
	return Key{Obj: obj, Field: name}
}

// LocOf returns the location of a key, or false when the analysis has no
// node for it (see pta.Analysis.FieldNode).
func LocOf(a *pta.Analysis, k Key) (Loc, bool) {
	if k.Static != "" {
		return a.StaticNode(k.Static)
	}
	return a.FieldNode(k.Obj, k.Field)
}

// Access records one access statement discovered during the traversal.
type Access struct {
	Loc    Loc
	Origin pta.OriginID
	Write  bool
	Instr  ir.Instr
}

// Result is the output of the analysis.
type Result struct {
	A *pta.Analysis
	// Shared lists the origin-shared locations in deterministic order.
	Shared []Key
	// Accesses are all recorded access statements (per contexted function
	// per origin, deduplicated by memoization).
	Accesses []Access
	// SharedAccesses counts access statements on shared locations (the
	// #S-access column of Table 7).
	SharedAccesses int
	// SharedObjects counts distinct abstract objects with at least one
	// shared field (the #S-obj column of Table 9).
	SharedObjects int
	// Visited counts visited ⟨function, context, origin⟩ triples.
	Visited int

	// locIdx maps each PAG node to 1 + its index in locs, or 0 when no
	// access touched it.
	locIdx []int32
	// locs holds the accessed locations in first-seen order.
	locs []location
}

// location is one accessed location's reader and writer origin sets
// (bitsets over OriginID) and its sharing verdict.
type location struct {
	loc              Loc
	readers, writers pta.Bits
	shared           bool
}

// lookup returns the location's table entry, or nil when no access
// touched it.
func (r *Result) lookup(l Loc) *location {
	if i := r.locIdx[l]; i > 0 {
		return &r.locs[i-1]
	}
	return nil
}

// IsShared reports whether the location is origin-shared.
func (r *Result) IsShared(l Loc) bool {
	li := r.lookup(l)
	return li != nil && li.shared
}

// OriginsOf returns the sorted origins accessing the location.
func (r *Result) OriginsOf(k Key) []pta.OriginID {
	set := &pta.Bits{}
	if l, ok := LocOf(r.A, k); ok {
		if li := r.lookup(l); li != nil {
			set.UnionWith(&li.readers)
			set.UnionWith(&li.writers)
		}
	}
	out := make([]pta.OriginID, 0, set.Len())
	set.ForEach(func(o uint32) { out = append(out, pta.OriginID(o)) })
	return out
}

type visitKey struct {
	fn     pta.FnCtxID
	origin pta.OriginID
}

// Analyze runs the origin-sharing analysis over a solved pointer analysis.
func Analyze(a *pta.Analysis) *Result { return AnalyzeWith(a, nil) }

// AnalyzeWith is Analyze with an observability registry: the traversal
// runs under an "osa" span and the sharing sizes are published as gauges.
func AnalyzeWith(a *pta.Analysis, reg *obs.Registry) *Result {
	r, _ := AnalyzeCtx(context.Background(), a, reg)
	return r
}

// AnalyzeCtx is AnalyzeWith under a context: the traversal polls the
// context every few hundred visited functions and aborts promptly when it
// ends, returning the partial result and pta.ErrCanceled (or pta.ErrBudget
// when the context deadline expired).
func AnalyzeCtx(ctx context.Context, a *pta.Analysis, reg *obs.Registry) (*Result, error) {
	sp := reg.StartSpan("osa")
	defer sp.End()
	r := &Result{A: a, locIdx: make([]int32, a.NumNodes())}
	latch, stopWatch := pta.WatchCancel(ctx)
	defer stopWatch()
	v := &visitor{a: a, r: r, seen: map[visitKey]bool{}, ctx: ctx, latch: latch}
	v.visit(a.MainNode(), pta.MainOrigin)
	if v.err != nil {
		return r, v.err
	}
	r.finish()
	if reg != nil {
		reg.SetGauge("osa.locations", int64(len(r.locs)))
		reg.SetGauge("osa.shared_locations", int64(len(r.Shared)))
		reg.SetGauge("osa.shared_objects", int64(r.SharedObjects))
		reg.SetGauge("osa.shared_accesses", int64(r.SharedAccesses))
		reg.SetGauge("osa.accesses", int64(len(r.Accesses)))
		reg.SetGauge("osa.visited", int64(r.Visited))
	}
	return r, nil
}

type visitor struct {
	a     *pta.Analysis
	r     *Result
	seen  map[visitKey]bool
	ctx   context.Context
	latch *pta.Latch // trips when ctx ends; nil when not cancellable
	tick  int
	err   error
}

func (v *visitor) visit(fn pta.FnCtxID, origin pta.OriginID) {
	if v.err != nil {
		return
	}
	v.tick++
	if v.tick&255 == 0 && v.latch.Tripped() {
		v.err = pta.CtxErr(v.ctx.Err())
		return
	}
	k := visitKey{fn, origin}
	if v.seen[k] {
		return
	}
	v.seen[k] = true
	v.r.Visited++
	for idx, in := range v.a.CG.Get(fn).Fn.Body {
		switch in := in.(type) {
		case *ir.LoadField:
			v.access(fn, idx, origin, in, in.Obj, false)
		case *ir.StoreField:
			v.access(fn, idx, origin, in, in.Obj, true)
		case *ir.LoadIndex:
			v.access(fn, idx, origin, in, in.Arr, false)
		case *ir.StoreIndex:
			v.access(fn, idx, origin, in, in.Arr, true)
		case *ir.LoadStatic:
			v.static(fn, idx, origin, in, false)
		case *ir.StoreStatic:
			v.static(fn, idx, origin, in, true)
		case *ir.Call:
			for _, e := range v.a.CG.EdgesAt(fn, idx) {
				switch e.Kind {
				case pta.EdgeCall, pta.EdgeInit:
					// Constructors of origin allocations execute in the
					// allocating (parent) origin, even though OPA analyzes
					// their pointers under the new origin's context.
					v.visit(e.Callee, origin)
				case pta.EdgeSpawn:
					v.visit(e.Callee, e.Origin)
				}
			}
		case *ir.Alloc:
			for _, e := range v.a.CG.EdgesAt(fn, idx) {
				if e.Kind == pta.EdgeCall || e.Kind == pta.EdgeInit {
					v.visit(e.Callee, origin)
				}
			}
		}
	}
}

// access records the access at instruction idx of fn through base on
// every object base may point to. An object without a field node is
// skipped: only an analysis that stopped early lacks one.
func (v *visitor) access(fn pta.FnCtxID, idx int, origin pta.OriginID, in ir.Instr, base *ir.Var, write bool) {
	v.a.PointsToIn(fn, base).ForEach(func(o uint32) {
		if l, ok := v.a.FieldNodeAt(fn, idx, pta.ObjID(o)); ok {
			v.record(l, origin, write, in)
		}
	})
}

func (v *visitor) static(fn pta.FnCtxID, idx int, origin pta.OriginID, in ir.Instr, write bool) {
	if l, ok := v.a.StaticNodeAt(fn, idx); ok {
		v.record(l, origin, write, in)
	}
}

func (v *visitor) record(l Loc, origin pta.OriginID, write bool, in ir.Instr) {
	r := v.r
	i := r.locIdx[l]
	if i == 0 {
		r.locs = append(r.locs, location{loc: l})
		i = int32(len(r.locs))
		r.locIdx[l] = i
	}
	if li := &r.locs[i-1]; write {
		li.writers.Add(uint32(origin))
	} else {
		li.readers.Add(uint32(origin))
	}
	// Past 256 elements append grows by about 1.25x per step, which over a
	// run allocates several times the final array; double instead.
	if n := len(r.Accesses); n == cap(r.Accesses) && n >= 256 {
		r.Accesses = slices.Grow(r.Accesses, n)
	}
	r.Accesses = append(r.Accesses, Access{Loc: l, Origin: origin, Write: write, Instr: in})
}

func (r *Result) finish() {
	var all, sharedObjs pta.Bits
	for i := range r.locs {
		li := &r.locs[i]
		if li.writers.IsEmpty() {
			continue
		}
		all.Clear()
		all.UnionWith(&li.readers)
		all.UnionWith(&li.writers)
		shared := all.Len() >= 2
		if !shared {
			// A replicated origin has concurrent instances: a write from it
			// is shared with its sibling instance.
			li.writers.ForEach(func(o uint32) {
				if r.A.Origins.Get(pta.OriginID(o)).Replicated {
					shared = true
				}
			})
		}
		if shared {
			li.shared = true
			k := KeyOf(r.A, li.loc)
			r.Shared = append(r.Shared, k)
			if k.Static == "" {
				sharedObjs.Add(uint32(k.Obj))
			}
		}
	}
	sort.Slice(r.Shared, func(i, j int) bool { return r.Shared[i].Less(r.Shared[j]) })
	r.SharedObjects = sharedObjs.Len()
	// Count distinct access statements touching a shared location (one
	// statement may be visited under several origins or contexts).
	sharedInstrs := map[ir.Instr]bool{}
	for _, acc := range r.Accesses {
		if r.IsShared(acc.Loc) {
			sharedInstrs[acc.Instr] = true
		}
	}
	r.SharedAccesses = len(sharedInstrs)
}
