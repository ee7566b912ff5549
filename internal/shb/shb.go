// Package shb builds the static happens-before (SHB) graph of §4 /
// Table 4. Each origin's code is replayed as a linear trace of read,
// write, lock, unlock, entry and join nodes; node IDs increase
// monotonically so that the intra-origin happens-before relation is a
// constant-time integer comparison (the paper's first optimization).
// Only inter-origin edges (spawn: entry ⇒ origin_first, and join:
// origin_last ⇒ join) are materialized.
//
// An origin may be started from more than one program point (or, for
// non-origin context policies, under more than one entry context); each
// distinct start becomes a Segment — an origin instance trace. Accesses in
// different segments are ordered only through inter-origin edges; accesses
// in the same segment of a replicated origin are treated as concurrent
// instances by the race detector.
package shb

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"
	"unsafe"

	"o2/internal/ir"
	"o2/internal/lockset"
	"o2/internal/obs"
	"o2/internal/osa"
	"o2/internal/pta"
)

// NodeKind classifies SHB nodes.
type NodeKind uint8

const (
	NRead NodeKind = iota
	NWrite
	NLock
	NUnlock
	NEntry // origin-entry invocation in the parent (spawn point)
	NJoin
	NWait      // condition wait on an object
	NNotify    // condition notify on an object
	NChanSend  // channel send
	NChanRecv  // channel receive
	NChanClose // channel close
	NWgAdd     // WaitGroup Add (barrier arm; no edges of its own)
	NWgDone    // WaitGroup Done
	NWgWait    // WaitGroup Wait
)

func (k NodeKind) String() string {
	return [...]string{
		"read", "write", "lock", "unlock", "entry", "join", "wait", "notify",
		"chan-send", "chan-recv", "chan-close", "wg-add", "wg-done", "wg-wait",
	}[k]
}

// SegID identifies a segment (origin instance trace).
type SegID int32

// Node is one SHB node. Its ID is its index in Graph.Nodes; IDs within a
// segment are strictly increasing in trace order. Which of Loc and Obj a
// node sets depends on its kind:
//
//   - NRead, NWrite: Loc, the accessed location;
//   - NWait, NNotify, NChanSend, NChanRecv, NChanClose, NWgAdd, NWgDone,
//     NWgWait: Obj, the condition, channel or WaitGroup object;
//   - NLock, NUnlock, NEntry, NJoin: neither (an NLock node's Region is
//     the region it opens).
//
// A node names its instruction by call-graph node and index and holds no
// pointer, so the arena is 32 bytes a node and the collector never scans
// it; Graph.Instr and Graph.Func resolve the instruction.
type Node struct {
	Kind     NodeKind
	Seg      SegID
	Loc      osa.Loc
	Obj      pta.ObjID
	Locks    lockset.ID
	Region   int32       // innermost lock-region instance (0 = outside any region)
	FnCtx    pta.FnCtxID // the call-graph node whose function holds the instruction
	InstrIdx int32       // the instruction's index in that function's body
}

// Segment is the trace of one origin instance.
type Segment struct {
	ID     SegID
	Origin pta.OriginID
	Entry  pta.FnCtxID
	First  int // first node ID (== Last+1 when the trace is empty)
	Last   int // last node ID (inclusive); First-1 when empty
}

// Edge is an inter-origin happens-before edge from node From to node To.
type Edge struct {
	From, To int
}

// Graph is the SHB graph.
type Graph struct {
	Nodes    []Node
	Segs     []*Segment
	Locksets *lockset.Table
	cg       *pta.CallGraph // resolves a node's FnCtx
	// out[seg] lists the inter-origin edges leaving seg, sorted by (From,
	// To).
	out [][]Edge
	// reach holds one cross-segment reachability frontier slot per
	// (segment, outgoing-edge suffix); segment s owns the slots from
	// reachAt[s] on. See reach.go.
	reach   []frontierSlot
	reachAt []int
	// reachHits/reachMisses count frontier cache queries when observability
	// is enabled (nil counters otherwise; Counter methods are nil-safe).
	reachHits   *obs.Counter
	reachMisses *obs.Counter
	// Regions counts lock-region instances created.
	Regions int32
}

// Config controls SHB construction.
type Config struct {
	// AndroidEvents serializes all event-handler origins with a global
	// lock (§4.2), modeling the Android main thread's event loop.
	AndroidEvents bool
	// MaxNodes bounds the graph to at most this many nodes, a safety
	// valve for generated workloads (0 = unlimited).
	MaxNodes int
	// Obs receives the build span, the graph-size gauges and the reach
	// cache counters (nil = disabled).
	Obs *obs.Registry
}

// Build constructs the SHB graph from a solved pointer analysis.
func Build(a *pta.Analysis, cfg Config) *Graph {
	g, _ := BuildCtx(context.Background(), a, cfg)
	return g
}

// BuildCtx is Build under a context. The trace walk polls the context
// between segments and every few thousand emitted instructions, so an
// ended context aborts construction promptly; the partial graph is
// returned alongside pta.ErrCanceled (or pta.ErrBudget for an expired
// deadline) and must not be used for detection.
func BuildCtx(ctx context.Context, a *pta.Analysis, cfg Config) (*Graph, error) {
	sp := cfg.Obs.StartSpan("shb")
	defer sp.End()
	g := &Graph{
		cg:          a.CG,
		Locksets:    lockset.NewTable(),
		reachHits:   cfg.Obs.Counter("shb.reach_hits"),
		reachMisses: cfg.Obs.Counter("shb.reach_misses"),
	}
	fns := a.CG.NumNodes()
	b := &builder{
		a: a, g: g, cfg: cfg, segIdx: map[segKey]SegID{}, ctx: ctx,
		onStack: make([]bool, fns), walked: make([]int64, fns),
	}
	buf, _ := nodePool.Get().(*[]Node)
	if buf != nil {
		g.Nodes = *buf
	}
	b.latch, b.stopWatch = pta.WatchCancel(ctx)
	defer b.stopWatch()
	b.segment(a.MainNode(), pta.MainOrigin)
	for len(b.queue) > 0 {
		if b.latch.Tripped() {
			b.ctxErr = pta.CtxErr(b.ctx.Err())
			break
		}
		s := b.queue[0]
		b.queue = b.queue[1:]
		b.buildSegment(s)
		if b.ctxErr != nil {
			break
		}
	}
	g.Nodes = handOver(g.Nodes, buf)
	g.out = make([][]Edge, len(g.Segs))
	if b.ctxErr != nil {
		return g, b.ctxErr
	}
	// Resolve spawns and joins now that every segment's trace is known. A
	// spawn into or a join of an empty trace orders nothing and gets no
	// edge.
	for _, ps := range b.spawns {
		if seg := g.Segs[ps.child]; seg.Last >= seg.First {
			g.addEdge(ps.node, seg.First)
		}
	}
	for _, pj := range b.joins {
		for _, seg := range g.Segs {
			if seg.Origin == pj.origin && seg.Last >= seg.First {
				g.addEdge(seg.Last, pj.node)
			}
		}
	}
	b.connectSync()
	// Reachability needs each segment's out-list sorted by source node; To
	// breaks ties so the order does not depend on map iteration.
	for _, es := range g.out {
		slices.SortFunc(es, func(x, y Edge) int {
			return cmp.Or(cmp.Compare(x.From, y.From), cmp.Compare(x.To, y.To))
		})
	}
	g.initReach()
	if cfg.Obs != nil {
		edges := 0
		for _, es := range g.out {
			edges += len(es)
		}
		cfg.Obs.SetGauge("shb.nodes", int64(len(g.Nodes)))
		cfg.Obs.SetGauge("shb.edges", int64(edges))
		cfg.Obs.SetGauge("shb.segments", int64(len(g.Segs)))
		cfg.Obs.SetGauge("shb.regions", int64(g.Regions))
		cfg.Obs.SetGauge("shb.locksets", int64(g.Locksets.Len()))
		// Distributions behind precision and reachability cost: how many
		// inter-origin edges leave each segment, and how large the interned
		// locksets are (big locksets mean expensive intersections and weak
		// lock discipline).
		fanout := cfg.Obs.Histogram("shb.segment_fanout", obs.SizeBuckets)
		for _, es := range g.out {
			fanout.Observe(float64(len(es)))
		}
		lsize := cfg.Obs.Histogram("shb.lockset_size", obs.SizeBuckets)
		for id := 0; id < g.Locksets.Len(); id++ {
			lsize.Observe(float64(len(g.Locksets.Set(lockset.ID(id)))))
		}
	}
	return g, nil
}

// nodePool holds emptied node buffers (*[]Node) for later builds' walks.
var nodePool sync.Pool

// handOver ends the walk's use of the node buffer buf, which the build
// took from nodePool (nil when the pool was empty), and returns the
// graph's arena. A build that took a buffer copies its nodes out at
// their exact length and puts the buffer back, unless pta.KeepPooled
// drops it. A build that found none keeps the arena it wrote and puts an
// empty buffer in the pool, which the next build fills: a process that
// builds one graph copies nothing, and in one that builds many, every
// build after the second walks in the buffer an earlier one grew. A node
// holds no pointer, so a pooled buffer pins nothing of the program it
// last held.
func handOver(nodes []Node, buf *[]Node) []Node {
	if buf == nil {
		nodePool.Put(new([]Node))
		return nodes
	}
	out := make([]Node, len(nodes))
	copy(out, nodes)
	if pta.KeepPooled(cap(nodes), len(nodes)) {
		*buf = nodes[:0]
		nodePool.Put(buf)
	}
	return out
}

// connectSync adds the message-passing happens-before edges between nodes
// on one object in different segments: Fava and Steffen's rules,
// statically over-approximated by abstracting operation indices away.
//
//   - notify → wait: every notify precedes the resumption of every wait
//     (the static over-approximation of signal delivery);
//   - send → recv on a channel (send_i → recv_i once indices collapse),
//     and for an unbuffered channel (cap 0) also recv → send: the
//     rendezvous orders code before either endpoint before code after
//     the other;
//   - close → recv: receives from a closed channel observe the close, a
//     broadcast ordering;
//   - Done → Wait on a WaitGroup: Wait joins the happens-before of every
//     matched Done. Add nodes bump the sync clock but carry no edges: the
//     counter value is not tracked statically.
//
// The bounded-queue backpressure rule recv_{i-cap} → send_i is deliberately
// NOT materialized for cap ≥ 1: with send/recv indices abstracted to one
// node set it would degenerate to recv → send on every buffered channel,
// claiming orderings a buffered send does not provide and hiding real
// races. The rule is kept only where the static abstraction is exact —
// cap = 0, where i-cap = i is the rendezvous itself.
func (b *builder) connectSync() {
	g := b.g
	// ops[obj][kind] lists the nodes of one kind on one object.
	ops := map[pta.ObjID]*[NWgWait + 1][]int{}
	for id, n := range g.Nodes {
		switch n.Kind {
		case NWait, NNotify, NChanSend, NChanRecv, NChanClose, NWgDone, NWgWait:
			o := ops[n.Obj]
			if o == nil {
				o = new([NWgWait + 1][]int)
				ops[n.Obj] = o
			}
			o[n.Kind] = append(o[n.Kind], id)
		}
	}
	cross := func(from, to []int, both bool) {
		for _, f := range from {
			for _, t := range to {
				if g.Nodes[f].Seg != g.Nodes[t].Seg {
					g.addEdge(f, t)
					if both {
						g.addEdge(t, f)
					}
				}
			}
		}
	}
	for obj, o := range ops {
		cross(o[NNotify], o[NWait], false)
		cross(o[NChanSend], o[NChanRecv], b.a.Obj(obj).Cap == 0)
		cross(o[NChanClose], o[NChanRecv], false)
		cross(o[NWgDone], o[NWgWait], false)
	}
}

func (g *Graph) addEdge(from, to int) {
	s := g.Nodes[from].Seg
	g.out[s] = append(g.out[s], Edge{from, to})
}

// OutEdges returns the inter-origin edges leaving seg.
func (g *Graph) OutEdges(seg SegID) []Edge { return g.out[seg] }

// Seg returns a segment by ID.
func (g *Graph) Seg(id SegID) *Segment { return g.Segs[id] }

// Origin returns the origin of a node.
func (g *Graph) Origin(n int) pta.OriginID { return g.Segs[g.Nodes[n].Seg].Origin }

// Func returns the function holding a node's instruction.
func (g *Graph) Func(n int) *ir.Func { return g.cg.Get(g.Nodes[n].FnCtx).Fn }

// Instr returns a node's instruction.
func (g *Graph) Instr(n int) ir.Instr { return g.Func(n).Body[g.Nodes[n].InstrIdx] }

// OriginGraphCost is the share of the graph owned by one origin, used by
// the driver's Introspection section.
type OriginGraphCost struct {
	Nodes    int64
	Edges    int64 // inter-origin edges leaving this origin's segments
	Segments int64
	ByKind   map[string]int64 // node counts keyed by NodeKind.String()
}

// CountByOrigin aggregates graph size per origin, indexed by OriginID up
// to numOrigins. The scan is deterministic (slice order, not map order).
func (g *Graph) CountByOrigin(numOrigins int) []OriginGraphCost {
	out := make([]OriginGraphCost, numOrigins)
	for _, nd := range g.Nodes {
		o := g.Segs[nd.Seg].Origin
		if int(o) >= numOrigins {
			continue
		}
		c := &out[o]
		c.Nodes++
		if c.ByKind == nil {
			c.ByKind = map[string]int64{}
		}
		c.ByKind[nd.Kind.String()]++
	}
	for _, seg := range g.Segs {
		if int(seg.Origin) >= numOrigins {
			continue
		}
		out[seg.Origin].Segments++
		out[seg.Origin].Edges += int64(len(g.out[seg.ID]))
	}
	return out
}

// MemBytes estimates the graph's arena footprint: node, edge and segment
// storage. It deliberately ignores slice headers, the frontier slots and
// the lockset table, which are small next to the node arena.
func (g *Graph) MemBytes() int64 {
	bytes := int64(len(g.Nodes)) * int64(unsafe.Sizeof(Node{}))
	for _, es := range g.out {
		bytes += int64(len(es)) * int64(unsafe.Sizeof(Edge{}))
	}
	bytes += int64(len(g.Segs)) * int64(unsafe.Sizeof(Segment{}))
	return bytes
}

func (g *Graph) String() string {
	return fmt.Sprintf("shb{%d nodes, %d segments, %d locksets}", len(g.Nodes), len(g.Segs), g.Locksets.Len())
}

type segKey struct {
	entry  pta.FnCtxID
	origin pta.OriginID
}

// pendingSpawn is an entry node whose edge to the child segment's first
// node is added once every segment is built.
type pendingSpawn struct {
	node  int
	child SegID
}

type pendingJoin struct {
	origin pta.OriginID
	node   int
}

type builder struct {
	a         *pta.Analysis
	g         *Graph
	cfg       Config
	segIdx    map[segKey]SegID
	queue     []*Segment
	spawns    []pendingSpawn
	joins     []pendingJoin
	ctx       context.Context
	latch     *pta.Latch // trips when ctx ends; nil when not cancellable
	stopWatch func()
	ctxErr    error

	// walk state; onStack and walked are indexed by FnCtxID
	cur       *Segment
	lockStack []lockFrame
	onStack   []bool
	// walked caps trace expansion: a contexted function is replayed again
	// only if the segment's synchronization state (spawns, joins, locks)
	// changed since its last replay. A call mesh would otherwise expand
	// the trace exponentially (fanout^depth); under unchanged sync state a
	// replay emits nodes with identical happens-before and lockset
	// signatures, which the race engine merges or dedups anyway. The sync
	// clock keeps growing across segments, so a new segment starts with
	// nothing walked.
	walked    []int64
	syncClock int64
	truncated bool
}

// lockFrame is one open lock region. locks is the canonical set of every
// lock held inside it, its own and the enclosing frames', interned once
// when the frame is pushed.
type lockFrame struct {
	region int32
	locks  lockset.ID
}

// segment interns (entry, origin) and queues it for building.
func (b *builder) segment(entry pta.FnCtxID, origin pta.OriginID) SegID {
	k := segKey{entry, origin}
	if id, ok := b.segIdx[k]; ok {
		return id
	}
	id := SegID(len(b.g.Segs))
	s := &Segment{ID: id, Origin: origin, Entry: entry, First: -1, Last: -2}
	b.g.Segs = append(b.g.Segs, s)
	b.segIdx[k] = id
	b.queue = append(b.queue, s)
	return id
}

func (b *builder) buildSegment(s *Segment) {
	b.cur = s
	b.lockStack = b.lockStack[:0]
	b.syncClock++
	b.truncated = false
	s.First = len(b.g.Nodes)
	if b.cfg.AndroidEvents && b.a.Origins.Get(s.Origin).Kind == pta.KindEvent {
		// The Android event loop serializes handlers: model it as a global
		// lock held for the whole handler (§4.2).
		b.pushLock([]uint32{lockset.GlobalEventLock})
	}
	b.walk(s.Entry)
	s.Last = len(b.g.Nodes) - 1
	if s.Last < s.First {
		// Empty trace: keep First at -1 so no node ID aliases into it.
		s.First, s.Last = -1, -2
	}
}

func (b *builder) newRegion() int32 {
	b.g.Regions++
	return b.g.Regions
}

// top returns the innermost lock frame, or the zero frame (no region, the
// empty lockset) outside every region.
func (b *builder) top() lockFrame {
	if n := len(b.lockStack); n > 0 {
		return b.lockStack[n-1]
	}
	return lockFrame{}
}

// pushLock opens a lock region holding objs on top of the locks already
// held and returns the region.
func (b *builder) pushLock(objs []uint32) int32 {
	held := b.g.Locksets.Set(b.top().locks)
	f := lockFrame{region: b.newRegion(), locks: b.g.Locksets.Canon(append(objs, held...))}
	b.lockStack = append(b.lockStack, f)
	return f.region
}

// node appends n to the current segment's trace, stamping its segment,
// lockset and region, and returns its ID.
func (b *builder) node(n Node) int {
	top := b.top()
	n.Seg, n.Locks, n.Region = b.cur.ID, top.locks, top.region
	id := len(b.g.Nodes)
	// Past 256 elements append grows by about 1.25x per step, which over a
	// build allocates several times the final arena; double instead.
	if id == cap(b.g.Nodes) && id >= 256 {
		b.g.Nodes = slices.Grow(b.g.Nodes, id)
	}
	b.g.Nodes = append(b.g.Nodes, n)
	return id
}

func (b *builder) full() bool {
	if b.cfg.MaxNodes > 0 && len(b.g.Nodes) >= b.cfg.MaxNodes {
		b.truncated = true
	}
	// Piggyback the cancellation poll on the per-instruction size check:
	// an ended context truncates the walk exactly like a full trace, and
	// BuildCtx turns the recorded error into its return value. The latch
	// makes the poll one atomic load, so it runs every instruction.
	if !b.truncated && b.ctxErr == nil && b.latch.Tripped() {
		b.ctxErr = pta.CtxErr(b.ctx.Err())
	}
	return b.truncated || b.ctxErr != nil
}

// walk replays the instructions of a contexted function into the current
// segment, inlining same-origin callees in statement order (rule ⑦'s
// call/return HB edges collapse into trace adjacency). Recursion is cut at
// functions already on the walk stack.
func (b *builder) walk(fn pta.FnCtxID) {
	if b.onStack[fn] || b.walked[fn] == b.syncClock || b.full() {
		return
	}
	b.onStack[fn] = true
	b.walked[fn] = b.syncClock
	defer func() { b.onStack[fn] = false }()
	for idx, in := range b.a.CG.Get(fn).Fn.Body {
		if b.full() {
			return
		}
		switch in := in.(type) {
		case *ir.LoadField:
			b.accesses(NRead, fn, idx, in.Obj)
		case *ir.StoreField:
			b.accesses(NWrite, fn, idx, in.Obj)
		case *ir.LoadIndex:
			b.accesses(NRead, fn, idx, in.Arr)
		case *ir.StoreIndex:
			b.accesses(NWrite, fn, idx, in.Arr)
		case *ir.LoadStatic:
			b.static(NRead, fn, idx)
		case *ir.StoreStatic:
			b.static(NWrite, fn, idx)
		case *ir.MonitorEnter:
			// The lock node carries the region it opens (its lockset is
			// still the set held *before* acquiring).
			id := b.node(Node{Kind: NLock, FnCtx: fn, InstrIdx: int32(idx)})
			b.g.Nodes[id].Region = b.pushLock(b.a.PointsToIn(fn, in.Obj).Slice())
			b.syncClock++
		case *ir.MonitorExit:
			if n := len(b.lockStack); n > 0 {
				b.lockStack = b.lockStack[:n-1]
			}
			b.node(Node{Kind: NUnlock, FnCtx: fn, InstrIdx: int32(idx)})
			b.syncClock++
		case *ir.ChanSend:
			// Channel operations create inter-origin edges, so the sync
			// clock advances: a callee replayed after a send can carry new
			// happens-before and must not dedup against its pre-send replay.
			b.syncClock++
			b.objNodes(NChanSend, fn, idx, in.Ch)
		case *ir.ChanRecv:
			b.syncClock++
			b.objNodes(NChanRecv, fn, idx, in.Ch)
		case *ir.ChanClose:
			b.syncClock++
			b.objNodes(NChanClose, fn, idx, in.Ch)
		case *ir.Call, *ir.Alloc:
			edges := b.a.CG.EdgesAt(fn, idx)
			if c, ok := in.(*ir.Call); ok && c.Recv != nil && c.Static == nil && len(edges) == 0 {
				// A condition wait or notify, or a WaitGroup barrier: the
				// call resolved to no user-defined target (the receiver is
				// an ambient object), so model it as a sync node. A class
				// defining a method of the same name dispatches normally
				// below. A notify on the same object happens-before the
				// resumption a wait node models.
				if kind, ok := syncKind(b.a.Cfg.Entries, c.Method); ok {
					b.syncClock++
					b.objNodes(kind, fn, idx, c.Recv)
					continue
				}
			}
			for _, e := range edges {
				if b.full() {
					return
				}
				switch e.Kind {
				case pta.EdgeCall, pta.EdgeInit:
					b.walk(e.Callee)
				case pta.EdgeSpawn:
					b.syncClock++
					ent := b.node(Node{Kind: NEntry, FnCtx: fn, InstrIdx: int32(idx)})
					b.spawns = append(b.spawns, pendingSpawn{ent, b.segment(e.Callee, e.Origin)})
				case pta.EdgeJoin:
					b.syncClock++
					jn := b.node(Node{Kind: NJoin, FnCtx: fn, InstrIdx: int32(idx)})
					b.joins = append(b.joins, pendingJoin{e.Origin, jn})
				}
			}
		}
	}
}

// syncKind classifies a condition-variable or WaitGroup method name, if
// it is one.
func syncKind(ent ir.EntryConfig, method string) (NodeKind, bool) {
	switch {
	case ent.IsWait(method):
		return NWait, true
	case ent.IsNotify(method):
		return NNotify, true
	case ent.IsWgAdd(method):
		return NWgAdd, true
	case ent.IsWgDone(method):
		return NWgDone, true
	case ent.IsWgWait(method):
		return NWgWait, true
	}
	return 0, false
}

// objNodes records a node of a synchronization kind per object v may
// point to in fn: the condition, channel or WaitGroup operand of the
// instruction at idx. Channel kinds skip objects that are not channels.
// connectSync adds the edges once the graph is built. Like every node,
// they stop at the size cap.
func (b *builder) objNodes(kind NodeKind, fn pta.FnCtxID, idx int, v *ir.Var) {
	chanOp := kind == NChanSend || kind == NChanRecv || kind == NChanClose
	b.a.PointsToIn(fn, v).ForEach(func(o uint32) {
		if b.full() || chanOp && b.a.Obj(pta.ObjID(o)).Kind != pta.ObjChan {
			return
		}
		b.node(Node{Kind: kind, Obj: pta.ObjID(o), FnCtx: fn, InstrIdx: int32(idx)})
	})
}

// accesses records an access node for the access at instruction idx of
// fn per object the base may point to, up to the size cap. An object
// without a field node is skipped: only an analysis that stopped early
// lacks one.
func (b *builder) accesses(kind NodeKind, fn pta.FnCtxID, idx int, base *ir.Var) {
	b.a.PointsToIn(fn, base).ForEach(func(o uint32) {
		if b.full() {
			return
		}
		if l, ok := b.a.FieldNodeAt(fn, idx, pta.ObjID(o)); ok {
			b.node(Node{Kind: kind, Loc: l, FnCtx: fn, InstrIdx: int32(idx)})
		}
	})
}

// static records an access node on a static field, skipped like a field
// access when the field has no node.
func (b *builder) static(kind NodeKind, fn pta.FnCtxID, idx int) {
	if l, ok := b.a.StaticNodeAt(fn, idx); ok {
		b.node(Node{Kind: kind, Loc: l, FnCtx: fn, InstrIdx: int32(idx)})
	}
}
