package pta

import (
	"fmt"

	"o2/internal/ir"
)

// ObjID identifies an interned abstract heap object ⟨allocSite, heapCtx⟩.
// ObjID 0 is reserved (no object).
type ObjID uint32

// NodeID identifies a node in the pointer assignment graph (PAG): a
// contexted variable, an object field, or a static field.
type NodeID uint32

// ObjKind classifies abstract objects.
type ObjKind uint8

const (
	// ObjHeap is an ordinary heap allocation.
	ObjHeap ObjKind = iota
	// ObjFunc is a function object created by &f (C-style function
	// pointers — the paper's "indirect function targets").
	ObjFunc
	// ObjHandle is a pthread_create/event_register handle; it doubles as
	// the origin object of the spawned origin.
	ObjHandle
	// ObjChan is a channel created by "c = chan(cap)". Its element slot is
	// the synthetic field ChanElemField; Cap records the declared capacity
	// (0 = unbuffered rendezvous).
	ObjChan
)

// ChanElemField is the synthetic field name modeling a channel's element
// slot: send stores through it, recv loads from it.
const ChanElemField = "$elem"

// ObjInfo describes an abstract object: a heap allocation, a function
// object, or a thread/event handle.
type ObjInfo struct {
	Kind  ObjKind
	Site  int       // allocation-site ID (heap) or builtin-call pseudo-site
	Ctx   CtxID     // heap context
	Alloc *ir.Alloc // heap objects only
	Fn    *ir.Func  // ObjFunc: the function; ObjHandle: the entry function
	Cap   int       // ObjChan: declared capacity (0 = unbuffered)
	pos   ir.Pos
}

var (
	funcClass   = &ir.Class{Name: "$func"}
	handleClass = &ir.Class{Name: "$pthread"}
	chanClass   = &ir.Class{Name: "$chan"}
)

// Class returns the allocated class (pseudo-classes for function, handle
// and channel objects).
func (o *ObjInfo) Class() *ir.Class {
	switch o.Kind {
	case ObjFunc:
		return funcClass
	case ObjHandle:
		return handleClass
	case ObjChan:
		return chanClass
	}
	return o.Alloc.Class
}

// Pos returns the source position of the object's creation site.
func (o *ObjInfo) Pos() ir.Pos { return o.pos }

type objKey struct {
	site int
	ctx  CtxID
}

// fieldID identifies an interned field name or static-field signature.
type fieldID uint32

// fieldRef is one of an object's field nodes.
type fieldRef struct {
	field fieldID
	node  NodeID
}

// smallFields is the field-node count up to which an object's field nodes
// are found by scanning its objFields list; from it on, they are also
// indexed in heap.bigFields. No preset object reaches it.
const smallFields = 16

// heap interns abstract objects, field names and the field and static
// PAG nodes. Variable nodes are indexed by call-graph node instead
// (Analysis.fnVars); all three kinds share the NodeID space in nodes.
type heap struct {
	objs       []ObjInfo // ObjID -> info; index 0 unused
	objIdx     map[objKey]ObjID
	funcIdx    map[*ir.Func]ObjID
	handleIdx  map[objKey]ObjID
	fieldIDs   map[string]fieldID // field name or static signature -> ID
	fieldNames []string           // fieldID -> name
	// objFields lists each object's field nodes in creation order, by
	// ObjID; bigFields indexes those of objects with at least smallFields
	// of them (fieldKey).
	objFields [][]fieldRef
	bigFields map[uint64]NodeID
	statNodes []NodeID   // fieldID -> static node + 1 (0: none)
	nodes     []nodeInfo // NodeID -> info
}

type nodeKind uint8

const (
	nodeVar nodeKind = iota
	nodeField
	nodeStatic
)

type nodeInfo struct {
	v     *ir.Var // nodeVar
	ctx   CtxID   // nodeVar
	obj   ObjID   // nodeField
	field fieldID // nodeField / nodeStatic signature
	kind  nodeKind
}

func newHeap() *heap {
	return &heap{
		objs:      make([]ObjInfo, 1),
		objIdx:    map[objKey]ObjID{},
		funcIdx:   map[*ir.Func]ObjID{},
		handleIdx: map[objKey]ObjID{},
		fieldIDs:  map[string]fieldID{},
		objFields: make([][]fieldRef, 1),
	}
}

// newObj appends an object and returns its ID.
func (h *heap) newObj(o ObjInfo) ObjID {
	id := ObjID(len(h.objs))
	h.objs = append(h.objs, o)
	h.objFields = append(h.objFields, nil)
	return id
}

// internObj returns the ObjID for ⟨site, ctx⟩, creating it if new. The
// second result reports whether the object is new.
func (h *heap) internObj(a *ir.Alloc, ctx CtxID) (ObjID, bool) {
	k := objKey{a.Site, ctx}
	if id, ok := h.objIdx[k]; ok {
		return id, false
	}
	id := h.newObj(ObjInfo{Kind: ObjHeap, Site: a.Site, Ctx: ctx, Alloc: a, pos: a.Pos()})
	h.objIdx[k] = id
	return id, true
}

// internFuncObj returns the (context-free) function object for fn.
func (h *heap) internFuncObj(fn *ir.Func, pos ir.Pos) ObjID {
	if id, ok := h.funcIdx[fn]; ok {
		return id
	}
	id := h.newObj(ObjInfo{Kind: ObjFunc, Site: -1, Fn: fn, pos: pos})
	h.funcIdx[fn] = id
	return id
}

// internHandleObj returns the handle/origin object for a
// pthread_create/event_register pseudo-site under ctx.
func (h *heap) internHandleObj(site int, ctx CtxID, entry *ir.Func, pos ir.Pos) (ObjID, bool) {
	k := objKey{site, ctx}
	if id, ok := h.handleIdx[k]; ok {
		return id, false
	}
	id := h.newObj(ObjInfo{Kind: ObjHandle, Site: site, Ctx: ctx, Fn: entry, pos: pos})
	h.handleIdx[k] = id
	return id, true
}

// internChanObj returns the channel object for a ChanMake site under ctx.
// ChanMake shares the allocation-site namespace with Alloc, so objIdx keys
// never collide with heap objects.
func (h *heap) internChanObj(in *ir.ChanMake, ctx CtxID) (ObjID, bool) {
	k := objKey{in.Site, ctx}
	if id, ok := h.objIdx[k]; ok {
		return id, false
	}
	id := h.newObj(ObjInfo{Kind: ObjChan, Site: in.Site, Ctx: ctx, Cap: in.Cap, pos: in.Pos()})
	h.objIdx[k] = id
	return id, true
}

func (h *heap) obj(id ObjID) *ObjInfo { return &h.objs[id] }

// NumObjs returns the number of abstract objects created.
func (h *heap) NumObjs() int { return len(h.objs) - 1 }

// internField returns the ID of a field name or static signature.
func (h *heap) internField(name string) fieldID {
	if f, ok := h.fieldIDs[name]; ok {
		return f
	}
	f := fieldID(len(h.fieldNames))
	h.fieldNames = append(h.fieldNames, name)
	h.fieldIDs[name] = f
	return f
}

func fieldKey(obj ObjID, f fieldID) uint64 { return uint64(obj)<<32 | uint64(f) }

// lookupField returns the node of ⟨obj⟩.f, if it exists.
func (h *heap) lookupField(obj ObjID, f fieldID) (NodeID, bool) {
	refs := h.objFields[obj]
	if len(refs) >= smallFields {
		id, ok := h.bigFields[fieldKey(obj, f)]
		return id, ok
	}
	for _, r := range refs {
		if r.field == f {
			return r.node, true
		}
	}
	return 0, false
}

func (h *heap) fieldNode(obj ObjID, f fieldID) NodeID {
	if id, ok := h.lookupField(obj, f); ok {
		return id
	}
	id := h.newNode(nodeInfo{kind: nodeField, obj: obj, field: f})
	refs := append(h.objFields[obj], fieldRef{f, id})
	h.objFields[obj] = refs
	switch {
	case len(refs) == smallFields:
		if h.bigFields == nil {
			h.bigFields = map[uint64]NodeID{}
		}
		for _, r := range refs {
			h.bigFields[fieldKey(obj, r.field)] = r.node
		}
	case len(refs) > smallFields:
		h.bigFields[fieldKey(obj, f)] = id
	}
	return id
}

// lookupStatic returns the node of static field f, if it exists.
func (h *heap) lookupStatic(f fieldID) (NodeID, bool) {
	if int(f) < len(h.statNodes) && h.statNodes[f] != 0 {
		return h.statNodes[f] - 1, true
	}
	return 0, false
}

func (h *heap) staticNode(f fieldID) NodeID {
	if id, ok := h.lookupStatic(f); ok {
		return id
	}
	id := h.newNode(nodeInfo{kind: nodeStatic, field: f})
	if n := int(f) + 1; n > len(h.statNodes) {
		h.statNodes = append(h.statNodes, make([]NodeID, n-len(h.statNodes))...)
	}
	h.statNodes[f] = id + 1
	return id
}

func (h *heap) newNode(ni nodeInfo) NodeID {
	id := NodeID(len(h.nodes))
	h.nodes = append(h.nodes, ni)
	return id
}

// NumNodes returns the number of PAG nodes created.
func (h *heap) NumNodes() int { return len(h.nodes) }

func (h *heap) nodeString(id NodeID, ctxs *ctxTable) string {
	n := h.nodes[id]
	switch n.kind {
	case nodeVar:
		return fmt.Sprintf("⟨%s,%s⟩", n.v, ctxs.String(n.ctx))
	case nodeField:
		o := h.obj(n.obj)
		return fmt.Sprintf("⟨o%d@%d,%s⟩.%s", n.obj, o.Site, ctxs.String(o.Ctx), h.fieldNames[n.field])
	default:
		return h.fieldNames[n.field]
	}
}
