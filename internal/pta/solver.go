// Package pta implements the paper's pointer-analysis framework: an
// Andersen-style inclusion analysis with an on-the-fly call graph and
// pluggable context policies — context-insensitive (0-ctx), k-CFA, k-obj,
// and the paper's origin-sensitive analysis (OPA, §3.2, Table 2).
//
// Origins (threads and event handlers) are discovered during constraint
// generation for every policy, because the downstream SHB graph and race
// detector need them regardless of the pointer-analysis context; only the
// KOrigin policy additionally uses them as the analysis context.
package pta

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"o2/internal/ir"
	"o2/internal/obs"
)

// ErrBudget is returned when the analysis exceeds its configured step or
// time budget (the analogue of the paper's ">4h" timeouts). A context
// deadline expiring mid-analysis reports the same error, so one mechanism
// serves both explicit budgets and service-level job deadlines.
var ErrBudget = errors.New("pta: analysis budget exceeded")

// ErrCanceled is returned when the context passed to SolveCtx (or any
// downstream pipeline stage) is canceled mid-analysis. It wraps
// context.Canceled, so errors.Is(err, context.Canceled) holds.
var ErrCanceled = fmt.Errorf("pta: analysis canceled: %w", context.Canceled)

// CtxErr maps a non-nil context error onto the pipeline's sentinel
// errors: an expired deadline is a budget exhaustion (ErrBudget),
// everything else is a cancellation (ErrCanceled). Shared by every stage
// that honors a context (pta, osa, shb, race).
func CtxErr(err error) error {
	if errors.Is(err, context.DeadlineExceeded) {
		return ErrBudget
	}
	return ErrCanceled
}

// Config configures an analysis run.
type Config struct {
	Policy  Policy
	Entries ir.EntryConfig
	// ReplicateEvents marks event-handler origins as replicated (two or
	// more concurrent instances), matching the paper's treatment of Linux
	// system calls and server event handlers. Android mode instead
	// serializes events with a global lock (handled in the race engine).
	ReplicateEvents bool
	// StepBudget bounds the number of propagation steps (0 = unlimited);
	// exceeding it aborts with ErrBudget.
	StepBudget int64
	// TimeBudget bounds wall-clock time (0 = unlimited).
	TimeBudget time.Duration
	// Obs receives the solver's span and counters (nil = disabled).
	Obs *obs.Registry
}

const (
	wrapperTag = uint64(1) << 63
	twinTag    = uint64(1) << 62
)

type loadC struct {
	dst   NodeID
	field fieldID
}

type storeC struct {
	src   NodeID
	field fieldID
}

type callC struct {
	caller FnCtxID
	instr  *ir.Call
	idx    int // instruction index in caller body
}

// pnode is the solver state of one PAG node; its points-to set is in
// Analysis.pts.
type pnode struct {
	delta Bits // objects added since the node was last processed
	succ  []NodeID
	cons  uint32 // 1 + index into solver.cons; 0 when nothing is based here
	inWL  bool
}

// nodeCons holds the constraints based on one node, each kind in
// registration order.
type nodeCons struct {
	loads  []loadC
	stores []storeC
	calls  []callC
}

// smallSucc is the successor count up to which addEdge dedups by scanning
// the node's successor list; from it on, the node's edges live in
// solver.edges. Most nodes never reach it.
const smallSucc = 16

func edgeKey(from, to NodeID) uint64 { return uint64(from)<<32 | uint64(to) }

// Analysis holds the result of one pointer-analysis run and is the query
// interface used by OSA, SHB construction and the race detector. While
// SolveCtx runs it also holds the solver's working state (solver).
type Analysis struct {
	Prog    *ir.Program
	Cfg     Config
	CG      *CallGraph
	Origins *OriginTable

	ctxs *ctxTable
	heap *heap

	// pts holds each node's points-to set, parallel to heap.nodes; an
	// element never moves, so a *Bits stays valid while nodes are made.
	pts table[NodeID, Bits]
	// fnVars maps FnCtxID, then ir.Var.ID, to the variable's node + 1
	// (0: not created yet). Each table has one slot per local of its
	// call-graph node's function. markReachable makes it when the
	// call-graph node is created, so a node is new exactly when its ID
	// equals len(fnVars). The tables are carved from varLists, which the
	// analysis keeps.
	fnVars   [][]NodeID
	varLists slab[NodeID]
	// fnFields maps FnCtxID, then instruction index, to the field the
	// instruction accesses: the field name of a field access, ir.ArrayField,
	// ChanElemField or a static signature. A function's contexts share
	// one table, made by fieldsOf in markReachable.
	fnFields [][]fieldID

	steps       int64
	iterations  int64 // worklist pops (constraint generations + node processings)
	constraints int64 // load/store/call/edge constraints registered
	numEdges    int
	err         error

	// *solver is the working state while SolveCtx runs, nil otherwise.
	*solver
}

// solver is the working state of a solve: what SolveCtx reads and
// writes but no query reads once it returns. SolveCtx takes one from
// solverPool and puts it back on every exit, so a later solve in the
// process reuses its tables, maps and slab chunks.
type solver struct {
	// nodes holds each node's solver state, parallel to Analysis.pts.
	nodes table[NodeID, pnode]
	cons  table[uint32, nodeCons] // pnode.cons-1 -> constraints based on that node
	// edges dedups the edges of nodes with at least smallSucc
	// successors (edgeKey).
	edges map[uint64]struct{}
	// big is CallGraph.big, which the call graph holds while the solver
	// runs.
	big map[Edge]struct{}
	// funcFields holds each reachable function's fnFields table.
	funcFields map[*ir.Func][]fieldID
	// hasOriginAlloc marks functions that directly contain an origin
	// allocation; under the KOrigin policy such functions are analyzed with
	// one extra call-site context element, implementing the paper's
	// "wrapper functions" k=1 call-site extension of origin entry points.
	hasOriginAlloc map[*ir.Func]bool

	// Per-node successor and constraint lists are carved from these
	// slabs.
	nodeLists  slab[NodeID]
	loadLists  slab[loadC]
	storeLists slab[storeC]
	callLists  slab[callC]

	fnWL []FnCtxID
	wl   []NodeID

	ctx   context.Context
	latch *Latch // trips when ctx ends; nil when ctx is not cancellable

	replayScratch []uint64 // replayObjs' reusable snapshot of a spilled set's words
}

// solverPool holds the working state of finished solves.
var solverPool = sync.Pool{New: func() any {
	return &solver{
		edges:          map[uint64]struct{}{},
		funcFields:     map[*ir.Func][]fieldID{},
		hasOriginAlloc: map[*ir.Func]bool{},
	}
}}

// inScale reports whether s is worth keeping after a solve. A node table
// that only this solve grew holds fewer than twice the nodes it used, or
// one chunk, because its chunks double; one holding more than four times
// as many was grown by a solve at least twice as large. Dropping such a
// state keeps a huge program's tables from staying pinned in a process
// that goes on to solve small ones.
func (s *solver) inScale() bool {
	return s.nodes.cap() <= 4*max(s.nodes.len(), firstChunk)
}

// reset empties s for the next solve, keeping what it allocated.
func (s *solver) reset() {
	s.nodes.reset()
	s.cons.reset()
	clear(s.edges)
	clear(s.big)
	clear(s.funcFields)
	clear(s.hasOriginAlloc)
	s.nodeLists.reset()
	s.loadLists.reset()
	s.storeLists.reset()
	s.callLists.reset()
	s.fnWL, s.wl = s.fnWL[:0], s.wl[:0]
	s.ctx, s.latch = nil, nil
}

// takeSolver gives a its working state for a solve.
func (a *Analysis) takeSolver() {
	s := solverPool.Get().(*solver)
	a.solver = s
	a.CG.big = s.big
	for _, f := range a.Prog.Funcs {
		for _, in := range f.Body {
			if al, ok := in.(*ir.Alloc); ok && a.isOriginClass(al.Class) {
				s.hasOriginAlloc[f] = true
				break
			}
		}
	}
}

// putSolver takes the working state back from a and returns it to
// solverPool, unless it is out of scale with the solve (inScale).
func (a *Analysis) putSolver() {
	s := a.solver
	a.solver = nil
	s.big, a.CG.big = a.CG.big, nil
	if s.inScale() {
		s.reset()
		solverPool.Put(s)
	}
}

// New creates an analysis for the (finalized) program.
func New(prog *ir.Program, cfg Config) *Analysis {
	return &Analysis{
		Prog:    prog,
		Cfg:     cfg,
		CG:      newCallGraph(),
		Origins: newOriginTable(),
		ctxs:    newCtxTable(),
		heap:    newHeap(),
	}
}

// Solve runs the analysis to fixpoint. It may return ErrBudget.
func (a *Analysis) Solve() error { return a.SolveCtx(context.Background()) }

// SolveCtx runs the analysis to fixpoint under a context. Cancellation is
// polled at every budget check (one atomic load of a Latch), so SolveCtx
// returns promptly after the context ends: ErrCanceled on
// cancellation, ErrBudget when the context deadline (or Config.TimeBudget,
// which derives one) expires. The solver's working state comes from a
// pool and goes back to it on every exit.
func (a *Analysis) SolveCtx(ctx context.Context) error {
	sp := a.Cfg.Obs.StartSpan("pta")
	a.takeSolver()
	defer func() {
		a.CG.sortOut()
		a.putSolver()
		a.recordObs()
		sp.End()
	}()
	if a.Cfg.TimeBudget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, a.Cfg.TimeBudget)
		defer cancel()
	}
	a.ctx = ctx
	latch, stopWatch := WatchCancel(ctx)
	a.latch = latch
	defer stopWatch()
	if err := ctx.Err(); err != nil {
		a.err = CtxErr(err)
		return a.err
	}
	if a.Prog.Main == nil {
		return fmt.Errorf("pta: program has no main")
	}
	a.markReachable(a.Prog.Main, EmptyCtx)
	for a.err == nil {
		if n := len(a.fnWL); n > 0 {
			id := a.fnWL[n-1]
			a.fnWL = a.fnWL[:n-1]
			a.iterations++
			a.genConstraints(id)
			continue
		}
		if n := len(a.wl); n > 0 {
			id := a.wl[n-1]
			a.wl = a.wl[:n-1]
			a.nodes.at(id).inWL = false
			a.iterations++
			a.processNode(id)
			continue
		}
		break
	}
	return a.err
}

// recordObs publishes the solved sizes into the registry (no-op when
// observability is disabled). Called even on budget aborts, so partial
// runs still report how far they got.
func (a *Analysis) recordObs() {
	reg := a.Cfg.Obs
	if reg == nil {
		return
	}
	st := a.Stats()
	reg.Counter("pta.steps").Set(st.Steps)
	reg.Counter("pta.iterations").Set(st.Iterations)
	reg.Counter("pta.constraints").Set(st.Constraints)
	reg.SetGauge("pta.pointers", int64(st.Pointers))
	reg.SetGauge("pta.objects", int64(st.Objects))
	reg.SetGauge("pta.pag_edges", int64(st.Edges))
	reg.SetGauge("pta.contexts", int64(st.Contexts))
	reg.SetGauge("pta.cg_nodes", int64(st.CGNodes))
	reg.SetGauge("pta.cg_edges", int64(st.CGEdges))
	reg.SetGauge("pta.origins", int64(st.Origins))
	// Distribution of non-empty points-to set sizes: the quantity that
	// governs both precision (aliasing resolution) and propagation cost.
	h := reg.Histogram("pta.points_to_size", obs.SizeBuckets)
	for id := range NodeID(a.pts.len()) {
		if n := a.pts.at(id).Len(); n > 0 {
			h.Observe(float64(n))
		}
	}
}

func (a *Analysis) budget() bool {
	a.steps++
	if a.Cfg.StepBudget > 0 && a.steps > a.Cfg.StepBudget {
		a.err = ErrBudget
		return false
	}
	// Cancellation is one atomic load (a nil compare when the context is
	// not cancellable) instead of the former every-4096-steps ctx.Err()
	// poll, so it is checked on every step: latency to abort is one step.
	if a.latch.Tripped() {
		a.err = CtxErr(a.ctx.Err())
		return false
	}
	return true
}

func (a *Analysis) isOriginClass(c *ir.Class) bool { return c.IsThread || c.IsEvent }

// ---- node/pts management ----

// ensureNode gives node id a points-to set in a.pts and solver state in
// a.nodes, the tables parallel to heap.nodes, and returns id.
func (a *Analysis) ensureNode(id NodeID) NodeID {
	for a.pts.len() <= int(id) {
		a.pts.push(Bits{})
		a.nodes.push(pnode{})
	}
	return id
}

// varNode returns the node of v in call-graph node fc, whose function
// must be v's.
func (a *Analysis) varNode(fc FnCtxID, v *ir.Var) NodeID {
	vars := a.fnVars[fc]
	if id := vars[v.ID]; id != 0 {
		return id - 1
	}
	id := a.heap.newNode(nodeInfo{kind: nodeVar, v: v, ctx: a.CG.Get(fc).Ctx})
	vars[v.ID] = id + 1
	return a.ensureNode(id)
}

func (a *Analysis) fieldNode(obj ObjID, f fieldID) NodeID {
	return a.ensureNode(a.heap.fieldNode(obj, f))
}

func (a *Analysis) staticNode(f fieldID) NodeID {
	return a.ensureNode(a.heap.staticNode(f))
}

// consOf returns the constraint lists based on node n, creating them.
func (a *Analysis) consOf(n NodeID) *nodeCons {
	p := a.nodes.at(n)
	if p.cons == 0 {
		p.cons = a.cons.push(nodeCons{}) + 1
	}
	return a.cons.at(p.cons - 1)
}

func (a *Analysis) enqueue(n NodeID) {
	if p := a.nodes.at(n); !p.inWL {
		p.inWL = true
		a.wl = append(a.wl, n)
	}
}

func (a *Analysis) addObj(n NodeID, o ObjID) {
	if a.pts.at(n).Add(uint32(o)) {
		a.nodes.at(n).delta.Add(uint32(o))
		a.enqueue(n)
	}
}

func (a *Analysis) addSet(n NodeID, s *Bits) {
	pts, p := a.pts.at(n), a.nodes.at(n)
	changed := false
	s.ForEach(func(o uint32) {
		a.steps++ // propagation work: one unit per candidate object
		if pts.Add(o) {
			p.delta.Add(o)
			changed = true
		}
	})
	if changed {
		a.enqueue(n)
	}
}

func (a *Analysis) addEdge(from, to NodeID) {
	if from == to {
		return
	}
	p := a.nodes.at(from)
	if len(p.succ) < smallSucc {
		if slices.Contains(p.succ, to) {
			return
		}
	} else {
		k := edgeKey(from, to)
		if _, dup := a.edges[k]; dup {
			return
		}
		a.edges[k] = struct{}{}
	}
	p.succ = a.nodeLists.append(p.succ, to)
	if len(p.succ) == smallSucc {
		for _, t := range p.succ {
			a.edges[edgeKey(from, t)] = struct{}{}
		}
	}
	a.numEdges++
	a.constraints++
	if pts := a.pts.at(from); !pts.IsEmpty() {
		a.addSet(to, pts)
	}
}

func (a *Analysis) processNode(n NodeID) {
	p := a.nodes.at(n)
	d := p.delta
	p.delta = Bits{}
	if d.IsEmpty() {
		return
	}
	for _, m := range p.succ {
		if !a.budget() {
			return
		}
		a.addSet(m, &d)
	}
	if ci := p.cons; ci != 0 {
		c := a.cons.at(ci - 1)
		for _, lc := range c.loads {
			d.ForEach(func(o uint32) {
				a.addEdge(a.fieldNode(ObjID(o), lc.field), lc.dst)
			})
		}
		for _, sc := range c.stores {
			d.ForEach(func(o uint32) {
				a.addEdge(sc.src, a.fieldNode(ObjID(o), sc.field))
			})
		}
		for _, cc := range c.calls {
			d.ForEach(func(o uint32) {
				if !a.budget() {
					return
				}
				a.resolveCall(cc, ObjID(o))
			})
		}
	}
	// Recycle a spilled d's words into the (now empty, unless a callback
	// above re-populated it) delta slot, so the node's next large delta
	// grows into existing capacity instead of spilling again. d is a
	// copy of the old p.delta, so nothing else holds its words.
	if d.words != nil && p.delta == (Bits{}) {
		d.Clear()
		p.delta = d
	}
}

// ---- context policies ----

// originChain strips a trailing wrapper element, returning the pure origin
// context and the wrapper call site (-1 if none).
func (a *Analysis) originChain(ctx CtxID) (CtxID, int) {
	elems := a.ctxs.Elems(ctx)
	if n := len(elems); n > 0 && elems[n-1]&wrapperTag != 0 {
		return a.ctxs.Intern(elems[:n-1]), int(elems[n-1] &^ wrapperTag)
	}
	return ctx, -1
}

// calleeCtx computes the callee context for an ordinary (non-origin) call,
// rule ⑦ of Table 2 for KOrigin and the classic rules otherwise.
func (a *Analysis) calleeCtx(callerCtx CtxID, site int, recv ObjID, callee *ir.Func) CtxID {
	switch a.Cfg.Policy.Kind {
	case Insensitive:
		return EmptyCtx
	case KCFA:
		return a.ctxs.Append(callerCtx, uint64(site+1), a.Cfg.Policy.K)
	case KObj:
		if recv == 0 { // static call: keep caller context
			return callerCtx
		}
		o := a.heap.obj(recv)
		return a.ctxs.Append(o.Ctx, uint64(o.Site+1), a.Cfg.Policy.K)
	case KOrigin:
		// Functions within the same origin share the same context. Functions
		// directly containing an origin allocation get a 1-call-site
		// extension so origins created through wrappers stay distinct.
		chain, _ := a.originChain(callerCtx)
		if callee != nil && a.hasOriginAlloc[callee] {
			elems := append(append([]uint64{}, a.ctxs.Elems(chain)...), wrapperTag|uint64(site))
			return a.ctxs.Intern(elems)
		}
		if chain != callerCtx && callee != nil && !a.hasOriginAlloc[callee] {
			// Leaving a wrapper: drop the wrapper marker.
			return chain
		}
		return callerCtx
	}
	return EmptyCtx
}

// heapCtx computes the heap context for a non-origin allocation.
func (a *Analysis) heapCtx(ctx CtxID) CtxID {
	switch a.Cfg.Policy.Kind {
	case Insensitive:
		return EmptyCtx
	case KCFA, KObj:
		return a.ctxs.Truncate(ctx, a.Cfg.Policy.K)
	case KOrigin:
		chain, _ := a.originChain(ctx)
		return chain
	}
	return EmptyCtx
}

// originCtx computes the context of a new origin allocated at site within
// allocCtx (rule ⑧). For KOrigin this creates the new origin context; other
// policies use their regular heap context, so origin identity still follows
// the abstract object.
func (a *Analysis) originCtx(allocCtx CtxID, site int) CtxID {
	if a.Cfg.Policy.Kind != KOrigin {
		return a.heapCtx(allocCtx)
	}
	chain, wrapperSite := a.originChain(allocCtx)
	elems := append(append([]uint64{}, a.ctxs.Elems(chain)...), originElem(site, wrapperSite))
	k := a.Cfg.Policy.K
	if k > 0 && len(elems) > k {
		elems = elems[len(elems)-k:]
	}
	return a.ctxs.Intern(elems)
}

// ---- constraint generation ----

func (a *Analysis) markReachable(fn *ir.Func, ctx CtxID) FnCtxID {
	id := a.CG.Node(fn, ctx)
	if int(id) == len(a.fnVars) {
		a.fnVars = append(a.fnVars, a.varLists.make(len(fn.Locals), len(fn.Locals)))
		a.fnFields = append(a.fnFields, a.fieldsOf(fn))
		a.fnWL = append(a.fnWL, id)
	}
	return id
}

// fieldsOf returns fn's field table (see Analysis.fnFields), interning
// its fields the first time fn becomes reachable. A function without
// field, array, static or channel accesses has a nil table.
func (a *Analysis) fieldsOf(fn *ir.Func) []fieldID {
	if fs, ok := a.funcFields[fn]; ok {
		return fs
	}
	var fs []fieldID
	for idx, in := range fn.Body {
		var name string
		switch in := in.(type) {
		case *ir.LoadField:
			name = in.Field
		case *ir.StoreField:
			name = in.Field
		case *ir.LoadIndex, *ir.StoreIndex:
			name = ir.ArrayField
		case *ir.LoadStatic:
			name = in.Class.Name + "." + in.Field
		case *ir.StoreStatic:
			name = in.Class.Name + "." + in.Field
		case *ir.ChanSend, *ir.ChanRecv:
			name = ChanElemField
		default:
			continue
		}
		if fs == nil {
			fs = make([]fieldID, len(fn.Body))
		}
		fs[idx] = a.heap.internField(name)
	}
	a.funcFields[fn] = fs
	return fs
}

func (a *Analysis) genConstraints(id FnCtxID) {
	fc := a.CG.Get(id)
	fn, ctx := fc.Fn, fc.Ctx
	fields := a.fnFields[id]
	for idx, in := range fn.Body {
		if !a.budget() {
			return
		}
		switch in := in.(type) {
		case *ir.Alloc:
			a.genAlloc(id, ctx, in, idx)
		case *ir.Copy:
			a.addEdge(a.varNode(id, in.Src), a.varNode(id, in.Dst))
		case *ir.LoadField:
			a.genLoad(a.varNode(id, in.Obj), a.varNode(id, in.Dst), fields[idx])
		case *ir.StoreField:
			a.genStore(a.varNode(id, in.Obj), a.varNode(id, in.Src), fields[idx])
		case *ir.LoadIndex:
			a.genLoad(a.varNode(id, in.Arr), a.varNode(id, in.Dst), fields[idx])
		case *ir.StoreIndex:
			a.genStore(a.varNode(id, in.Arr), a.varNode(id, in.Src), fields[idx])
		case *ir.LoadStatic:
			a.addEdge(a.staticNode(fields[idx]), a.varNode(id, in.Dst))
		case *ir.StoreStatic:
			a.addEdge(a.varNode(id, in.Src), a.staticNode(fields[idx]))
		case *ir.FuncAddr:
			a.addObj(a.varNode(id, in.Dst), a.heap.internFuncObj(in.Target, in.Pos()))
		case *ir.ChanMake:
			obj, _ := a.heap.internChanObj(in, a.heapCtx(ctx))
			a.addObj(a.varNode(id, in.Dst), obj)
		case *ir.ChanSend:
			// Value flow through the channel: send stores into the channel
			// object's synthetic "$elem" slot, recv loads from it, so a
			// pointer sent over a channel reaches every receiver that may
			// share the channel (Fava/Steffen's communication semantics,
			// flow-insensitively).
			a.genStore(a.varNode(id, in.Ch), a.varNode(id, in.Val), fields[idx])
		case *ir.ChanRecv:
			if in.Dst != nil {
				a.genLoad(a.varNode(id, in.Ch), a.varNode(id, in.Dst), fields[idx])
			}
		case *ir.Call:
			if in.Static != nil && in.Recv == nil {
				calleeCtx := a.calleeCtx(ctx, in.Site, 0, in.Static)
				a.bindCall(id, in, idx, in.Static, calleeCtx, 0, EdgeCall)
				continue
			}
			// The points-to set of the dispatch variable drives binding:
			// the receiver for virtual calls and super constructor
			// chaining, the function pointer for indirect calls, the
			// function or handle argument for pthread-style builtins.
			var driver *ir.Var
			switch {
			case in.Builtin == "pthread_create" || in.Builtin == "event_register" ||
				in.Builtin == "pthread_join":
				if len(in.Args) == 0 {
					continue
				}
				driver = in.Args[0]
			case in.Indirect != nil:
				driver = in.Indirect
			default:
				driver = in.Recv
			}
			recv := a.varNode(id, driver)
			cc := callC{caller: id, instr: in, idx: idx}
			c := a.consOf(recv)
			c.calls = a.callLists.append(c.calls, cc)
			a.constraints++
			a.replayObjs(recv, func(o ObjID) { a.resolveCall(cc, o) })
		}
	}
}

// genLoad registers dst = base.f and applies it to the objects base
// already points to.
func (a *Analysis) genLoad(base, dst NodeID, f fieldID) {
	c := a.consOf(base)
	c.loads = a.loadLists.append(c.loads, loadC{dst, f})
	a.constraints++
	a.replayObjs(base, func(o ObjID) { a.addEdge(a.fieldNode(o, f), dst) })
}

// genStore registers base.f = src and applies it to the objects base
// already points to.
func (a *Analysis) genStore(base, src NodeID, f fieldID) {
	c := a.consOf(base)
	c.stores = a.storeLists.append(c.stores, storeC{src, f})
	a.constraints++
	a.replayObjs(base, func(o ObjID) { a.addEdge(src, a.fieldNode(o, f)) })
}

// replayObjs invokes fn for objects already in pts(base) when a constraint
// is registered late (the node may have been populated by earlier callers).
// The snapshot lands in a reused scratch buffer: fn may add to pts(base)
// itself, but never re-enters replayObjs (its callbacks only enqueue
// work), so one scratch per Analysis is safe.
func (a *Analysis) replayObjs(base NodeID, fn func(ObjID)) {
	pts := a.pts.at(base)
	if pts.words == nil {
		// An inline set's one element is its own snapshot.
		if pts.n == 1 {
			fn(ObjID(pts.v))
		}
		return
	}
	a.replayScratch = append(a.replayScratch[:0], pts.spilled()...)
	forEachIn(a.replayScratch, func(o uint32) { fn(ObjID(o)) })
}

func (a *Analysis) genAlloc(caller FnCtxID, ctx CtxID, al *ir.Alloc, idx int) {
	isOrigin := a.isOriginClass(al.Class)
	replicate := al.InLoop || (al.Class.IsEvent && !al.Class.IsThread && a.Cfg.ReplicateEvents)

	// At most two heap contexts (origin + twin): a fixed-size buffer keeps
	// the slice on the stack — genAlloc runs once per reachable allocation
	// per context and was a top allocation site.
	var hctxBuf [2]CtxID
	hctxs := hctxBuf[:0]
	if isOrigin {
		h := a.originCtx(ctx, al.Site)
		hctxs = append(hctxs, h)
		if replicate && a.Cfg.Policy.Kind == KOrigin {
			// §3.2: an origin allocated in a loop (or a concurrently
			// re-entrant event) becomes two origins with identical
			// attributes but different IDs. Each twin gets its own context,
			// so instance-local allocations stay separate while races
			// between the concurrent instances are found as ordinary
			// cross-origin pairs.
			hctxs = append(hctxs, a.twinCtx(h))
		}
	} else {
		hctxs = append(hctxs, a.heapCtx(ctx))
	}

	for _, hctx := range hctxs {
		obj, isNew := a.heap.internObj(al, hctx)
		a.addObj(a.varNode(caller, al.Dst), obj)

		if isOrigin && isNew {
			kind := KindThread
			if !al.Class.IsThread {
				kind = KindEvent
			}
			a.Origins.add(&Origin{
				Kind:     kind,
				Obj:      obj,
				Ctx:      hctx,
				AttrVars: al.Args,
				AttrCtx:  ctx,
				// Under the origin policy twins model concurrent instances
				// explicitly; other policies fall back to the replication
				// flag, which the race engine interprets as self-parallel.
				Replicated: replicate && a.Cfg.Policy.Kind != KOrigin,
				Site:       al.Site,
				Pos:        al.Pos(),
			})
		}

		// Constructor call (rule ⑧ for origin allocations: the constructor
		// is analyzed in the new origin's context to avoid false aliasing
		// across sibling origins, cf. Figure 3).
		if init := al.Class.Lookup("init"); init != nil {
			var initCtx CtxID
			if isOrigin && a.Cfg.Policy.Kind == KOrigin {
				initCtx = hctx
			} else {
				initCtx = a.calleeCtx(ctx, al.Site, obj, init)
				if a.Cfg.Policy.Kind == KObj {
					initCtx = a.ctxs.Append(hctx, uint64(al.Site+1), a.Cfg.Policy.K)
				}
			}
			callee := a.markReachable(init, initCtx)
			a.addObj(a.varNode(callee, init.Params[0]), obj)
			for i, arg := range al.Args {
				if i+1 < len(init.Params) {
					a.addEdge(a.varNode(caller, arg), a.varNode(callee, init.Params[i+1]))
				}
			}
			kind := EdgeCall
			if isOrigin {
				kind = EdgeInit
			}
			a.CG.addEdge(Edge{Kind: kind, Caller: caller, InstrIdx: idx, Callee: callee})
		}
	}
}

// twinCtx derives the sibling origin context of an origin allocated in a
// loop: identical chain, with the twin bit set on the last element.
func (a *Analysis) twinCtx(ctx CtxID) CtxID {
	elems := append([]uint64{}, a.ctxs.Elems(ctx)...)
	if len(elems) > 0 {
		elems[len(elems)-1] |= twinTag
	}
	return a.ctxs.Intern(elems)
}

func (a *Analysis) resolveCall(cc callC, recv ObjID) {
	in := cc.instr
	callerCtx := a.CG.Get(cc.caller).Ctx
	info := a.heap.obj(recv)
	ent := a.Cfg.Entries

	switch {
	case in.Builtin == "pthread_create":
		if info.Kind == ObjFunc {
			a.spawnPthread(cc, info.Fn, KindThread, callerCtx)
		}
		return
	case in.Builtin == "event_register":
		if info.Kind == ObjFunc {
			a.spawnPthread(cc, info.Fn, KindEvent, callerCtx)
		}
		return
	case in.Builtin == "pthread_join":
		if oid, ok := a.Origins.ByObj(recv); ok {
			a.CG.addEdge(Edge{Kind: EdgeJoin, Caller: cc.caller, InstrIdx: cc.idx, Origin: oid})
		}
		return
	case in.Indirect != nil:
		// Indirect call through a function pointer (the paper's C-side
		// "indirect function targets"): dispatch on the function object.
		if info.Kind != ObjFunc {
			return
		}
		target := info.Fn
		calleeCtx := a.calleeCtx(callerCtx, in.Site, 0, target)
		a.bindCall(cc.caller, in, cc.idx, target, calleeCtx, 0, EdgeCall)
		return
	}

	if info.Kind != ObjHeap {
		return
	}
	cls := info.Class()

	if ent.IsJoin(in.Method) {
		if oid, ok := a.Origins.ByObj(recv); ok {
			a.CG.addEdge(Edge{Kind: EdgeJoin, Caller: cc.caller, InstrIdx: cc.idx, Origin: oid})
		}
		return
	}

	var target *ir.Func
	if in.Static != nil {
		// Statically-resolved call with a receiver: super constructor
		// chaining. The target is fixed; only the receiver binding and the
		// context depend on the object.
		target = in.Static
	} else {
		method := in.Method
		if ent.IsStart(method) {
			// x.start() transfers control to the thread entry (run) of the
			// receiver's class, rule ⑨.
			for _, e := range ent.ThreadEntries {
				if cls.Lookup(e) != nil {
					method = e
					break
				}
			}
		}
		target = cls.Lookup(method)
		if target == nil {
			return
		}
	}

	if oid, isOriginObj := a.Origins.ByObj(recv); isOriginObj && (ent.IsEntry(target.Simple()) || target.OriginEntry) {
		a.spawn(cc, recv, oid, target, callerCtx)
		return
	}

	calleeCtx := a.calleeCtx(callerCtx, in.Site, recv, target)
	a.bindCall(cc.caller, in, cc.idx, target, calleeCtx, recv, EdgeCall)
}

// spawn handles an origin-entry invocation (rule ⑨ of Table 2): thread
// start or event dispatch. The entry runs in the origin's context; actual
// parameters keep the caller's context while formals get the origin's.
func (a *Analysis) spawn(cc callC, recv ObjID, oid OriginID, entry *ir.Func, callerCtx CtxID) {
	org := a.Origins.Get(oid)
	var calleeCtx CtxID
	switch a.Cfg.Policy.Kind {
	case KOrigin:
		calleeCtx = org.Ctx
	default:
		calleeCtx = a.calleeCtx(callerCtx, cc.instr.Site, recv, entry)
	}
	if org.Entry == nil {
		org.Entry = entry
		if a.Cfg.Policy.Kind != KOrigin {
			org.Ctx = calleeCtx
		}
		// Entry-point parameters contribute origin attributes (§3.1).
		if len(cc.instr.Args) > 0 {
			org.AttrVars = append(org.AttrVars, cc.instr.Args...)
		}
	}
	callee := a.markReachable(entry, calleeCtx)
	a.addObj(a.varNode(callee, entry.Params[0]), recv)
	for i, arg := range cc.instr.Args {
		if i+1 < len(entry.Params) {
			a.addEdge(a.varNode(cc.caller, arg), a.varNode(callee, entry.Params[i+1]))
		}
	}
	if cc.instr.Dst != nil && entry.Ret != nil {
		a.addEdge(a.varNode(callee, entry.Ret), a.varNode(cc.caller, cc.instr.Dst))
	}
	a.CG.addEdge(Edge{Kind: EdgeSpawn, Caller: cc.caller, InstrIdx: cc.idx, Callee: callee, Origin: oid})
}

// spawnPthread creates (or finds) the origin spawned by a
// pthread_create/event_register call resolving to entry, and wires the
// spawn edge, the attribute binding and the handle value. Pseudo-sites for
// handles live above the allocation-site namespace. Calls inside loops get
// twin origins under OPA, mirroring origin allocations (§3.2).
func (a *Analysis) spawnPthread(cc callC, entry *ir.Func, kind OriginKind, callerCtx CtxID) {
	in := cc.instr
	pseudoSite := a.Prog.NumAllocSites + in.Site
	replicate := in.InLoop || (kind == KindEvent && a.Cfg.ReplicateEvents)

	var hctxBuf [2]CtxID
	hctxs := hctxBuf[:0]
	if a.Cfg.Policy.Kind == KOrigin {
		h := a.originCtx(callerCtx, pseudoSite)
		hctxs = append(hctxs, h)
		if replicate {
			hctxs = append(hctxs, a.twinCtx(h))
		}
	} else {
		hctxs = append(hctxs, a.heapCtx(callerCtx))
	}

	for _, hctx := range hctxs {
		handle, isNew := a.heap.internHandleObj(pseudoSite, hctx, entry, in.Pos())
		var attrs []*ir.Var
		if len(in.Args) > 1 {
			attrs = in.Args[1:]
		}
		var calleeCtx CtxID
		if a.Cfg.Policy.Kind == KOrigin {
			calleeCtx = hctx
		} else {
			calleeCtx = a.calleeCtx(callerCtx, in.Site, 0, entry)
		}
		if isNew {
			a.Origins.add(&Origin{
				Kind:       kind,
				Obj:        handle,
				Ctx:        calleeCtx,
				Entry:      entry,
				AttrVars:   attrs,
				AttrCtx:    callerCtx,
				Replicated: replicate && a.Cfg.Policy.Kind != KOrigin,
				Site:       pseudoSite,
				Pos:        in.Pos(),
			})
		}
		oid, _ := a.Origins.ByObj(handle)
		callee := a.markReachable(entry, calleeCtx)
		// Bind the start argument to the entry's first parameter: the
		// origin attribute.
		if len(in.Args) > 1 && len(entry.Params) > 0 {
			a.addEdge(a.varNode(cc.caller, in.Args[1]), a.varNode(callee, entry.Params[0]))
		}
		if in.Dst != nil {
			a.addObj(a.varNode(cc.caller, in.Dst), handle)
		}
		a.CG.addEdge(Edge{Kind: EdgeSpawn, Caller: cc.caller, InstrIdx: cc.idx, Callee: callee, Origin: oid})
	}
}

func (a *Analysis) bindCall(caller FnCtxID, in *ir.Call, idx int, target *ir.Func, calleeCtx CtxID, recv ObjID, kind EdgeKind) {
	callee := a.markReachable(target, calleeCtx)
	params := target.Params
	args := in.Args
	if recv != 0 && len(params) > 0 {
		a.addObj(a.varNode(callee, params[0]), recv)
		params = params[1:]
	} else if in.Recv == nil && target.Class != nil && len(params) > 0 {
		params = params[1:] // static call to a method: no receiver bound
	}
	for i, arg := range args {
		if i < len(params) {
			a.addEdge(a.varNode(caller, arg), a.varNode(callee, params[i]))
		}
	}
	if in.Dst != nil && target.Ret != nil {
		a.addEdge(a.varNode(callee, target.Ret), a.varNode(caller, in.Dst))
	}
	a.CG.addEdge(Edge{Kind: kind, Caller: caller, InstrIdx: idx, Callee: callee})
}
