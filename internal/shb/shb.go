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
	"context"
	"fmt"
	"slices"
	"sort"
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
type Node struct {
	Kind   NodeKind
	Seg    SegID
	Loc    osa.Loc
	Obj    pta.ObjID
	Locks  lockset.ID
	Region int32 // innermost lock-region instance (0 = outside any region)
	Instr  ir.Instr
	Fn     *ir.Func
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
	// out[seg] lists inter-origin edges leaving the segment, ordered by
	// construction (node IDs ascending within a segment's build).
	out map[SegID][]Edge
	in  map[SegID][]Edge
	a   *pta.Analysis
	// reach caches cross-segment reachability frontiers per (segment,
	// outgoing-edge suffix index), sharded and single-flight so concurrent
	// detection workers share one traversal per frontier; see reach.go.
	reach reachCache
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
	// MaxNodes bounds trace size as a safety valve for generated
	// workloads (0 = unlimited).
	MaxNodes int
	// Obs receives the build span, the graph-size gauges and the
	// reach/lockset cache counters (nil = disabled).
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
		Locksets: lockset.NewTable(),
		out:      map[SegID][]Edge{},
		in:       map[SegID][]Edge{},
		a:        a,
	}
	g.Locksets.Bind(cfg.Obs)
	g.reachHits = cfg.Obs.Counter("shb.reach_hits")
	g.reachMisses = cfg.Obs.Counter("shb.reach_misses")
	b := &builder{a: a, g: g, cfg: cfg, segIdx: map[segKey]SegID{}, ctx: ctx}
	b.latch, b.stopWatch = pta.WatchCancel(ctx)
	defer b.stopWatch()
	main := a.MainNode()
	b.segment(main, pta.MainOrigin)
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
	if b.ctxErr != nil {
		return g, b.ctxErr
	}
	// Resolve pending joins now that every segment's Last is known.
	for _, pj := range b.joins {
		for _, seg := range g.Segs {
			if seg.Origin == pj.origin && seg.Last >= seg.First {
				g.addEdge(seg.Last, pj.node)
			}
		}
	}
	g.connectCondVars()
	g.connectChannels()
	g.connectWaitGroups()
	// Inter-origin edges were appended out of order (joins, notifies,
	// channel and WaitGroup barriers); reachability requires each segment's
	// out-list sorted by source node. To is the tie-breaker so the order of
	// edges sharing a source is independent of map iteration order.
	for segID := range g.out {
		es := g.out[segID]
		sort.Slice(es, func(i, j int) bool {
			if es[i].From != es[j].From {
				return es[i].From < es[j].From
			}
			return es[i].To < es[j].To
		})
	}
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
		for _, seg := range g.Segs {
			fanout.Observe(float64(len(g.out[seg.ID])))
		}
		lsize := cfg.Obs.Histogram("shb.lockset_size", obs.SizeBuckets)
		for id := 0; id < g.Locksets.Len(); id++ {
			lsize.Observe(float64(len(g.Locksets.Set(lockset.ID(id)))))
		}
	}
	return g, nil
}

// connectCondVars adds the condition-variable happens-before edges: every
// notify on an object precedes every wait on the same object in a
// different segment (the static over-approximation of signal delivery).
func (g *Graph) connectCondVars() {
	waits := map[pta.ObjID][]int{}
	notifies := map[pta.ObjID][]int{}
	for id, n := range g.Nodes {
		switch n.Kind {
		case NWait:
			waits[n.Obj] = append(waits[n.Obj], id)
		case NNotify:
			notifies[n.Obj] = append(notifies[n.Obj], id)
		}
	}
	for obj, ns := range notifies {
		for _, nn := range ns {
			for _, wn := range waits[obj] {
				if g.Nodes[nn].Seg != g.Nodes[wn].Seg {
					g.addEdge(nn, wn)
				}
			}
		}
	}
}

// connectChannels adds the channel happens-before edges of Fava/Steffen's
// semantics, statically over-approximated:
//
//   - every send on a channel happens-before every receive on the same
//     channel in a different segment (send_i → recv_i collapses to
//     send → recv once indices are abstracted away);
//   - for unbuffered channels (cap 0) the rendezvous also orders the
//     receive before the send's continuation (recv → send), so code before
//     either endpoint happens-before code after the other;
//   - every close happens-before every receive on the same channel in a
//     different segment (receives from a closed channel observe the close,
//     a broadcast ordering).
//
// The bounded-queue backpressure rule recv_{i-cap} → send_i is deliberately
// NOT materialized for cap ≥ 1: with send/recv indices abstracted to one
// node set it would degenerate to recv → send on every buffered channel,
// claiming orderings a buffered send does not provide and hiding real
// races. The rule is kept only where the static abstraction is exact —
// cap = 0, where i-cap = i is the rendezvous itself.
func (g *Graph) connectChannels() {
	sends := map[pta.ObjID][]int{}
	recvs := map[pta.ObjID][]int{}
	closes := map[pta.ObjID][]int{}
	for id, n := range g.Nodes {
		switch n.Kind {
		case NChanSend:
			sends[n.Obj] = append(sends[n.Obj], id)
		case NChanRecv:
			recvs[n.Obj] = append(recvs[n.Obj], id)
		case NChanClose:
			closes[n.Obj] = append(closes[n.Obj], id)
		}
	}
	for obj, ss := range sends {
		rendezvous := g.a.Obj(obj).Cap == 0
		for _, sn := range ss {
			for _, rn := range recvs[obj] {
				if g.Nodes[sn].Seg == g.Nodes[rn].Seg {
					continue
				}
				g.addEdge(sn, rn)
				if rendezvous {
					g.addEdge(rn, sn)
				}
			}
		}
	}
	for obj, cs := range closes {
		for _, cn := range cs {
			for _, rn := range recvs[obj] {
				if g.Nodes[cn].Seg != g.Nodes[rn].Seg {
					g.addEdge(cn, rn)
				}
			}
		}
	}
}

// connectWaitGroups adds the barrier edges: every Done on a WaitGroup
// object happens-before the resumption of every Wait on the same object in
// a different segment — Wait joins the happens-before of all matched
// Dones. Add nodes participate in the trace (they bump the sync clock) but
// carry no edges: the counter value is not tracked statically.
func (g *Graph) connectWaitGroups() {
	dones := map[pta.ObjID][]int{}
	waits := map[pta.ObjID][]int{}
	for id, n := range g.Nodes {
		switch n.Kind {
		case NWgDone:
			dones[n.Obj] = append(dones[n.Obj], id)
		case NWgWait:
			waits[n.Obj] = append(waits[n.Obj], id)
		}
	}
	for obj, ds := range dones {
		for _, dn := range ds {
			for _, wn := range waits[obj] {
				if g.Nodes[dn].Seg != g.Nodes[wn].Seg {
					g.addEdge(dn, wn)
				}
			}
		}
	}
}

func (g *Graph) addEdge(from, to int) {
	e := Edge{from, to}
	fs := g.Nodes[from].Seg
	ts := g.Nodes[to].Seg
	g.out[fs] = append(g.out[fs], e)
	g.in[ts] = append(g.in[ts], e)
}

// OutEdges returns the inter-origin edges leaving seg.
func (g *Graph) OutEdges(seg SegID) []Edge { return g.out[seg] }

// Seg returns a segment by ID.
func (g *Graph) Seg(id SegID) *Segment { return g.Segs[id] }

// Origin returns the origin of a node.
func (g *Graph) Origin(n int) pta.OriginID { return g.Segs[g.Nodes[n].Seg].Origin }

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

// MemBytes estimates the graph's arena footprint: node, edge (out + in
// mirrors) and segment storage. It deliberately ignores map headers and
// the lockset table, which are small next to the node arena.
func (g *Graph) MemBytes() int64 {
	bytes := int64(len(g.Nodes)) * int64(unsafe.Sizeof(Node{}))
	for _, es := range g.out {
		bytes += 2 * int64(len(es)) * int64(unsafe.Sizeof(Edge{}))
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
	joins     []pendingJoin
	ctx       context.Context
	latch     *pta.Latch // trips when ctx ends; nil when not cancellable
	stopWatch func()
	ctxErr    error

	// per-segment walk state
	cur         *Segment
	lockStack   []lockFrame
	lockScratch []uint32 // currentLockset's reused flatten buffer
	onStack     map[pta.FnCtxID]bool
	// walked caps trace expansion: a contexted function is replayed again
	// only if the segment's synchronization state (spawns, joins, locks)
	// changed since its last replay. A call mesh would otherwise expand
	// the trace exponentially (fanout^depth); under unchanged sync state a
	// replay emits nodes with identical happens-before and lockset
	// signatures, which the race engine merges or dedups anyway.
	walked    map[pta.FnCtxID]int64
	syncClock int64
	truncated bool
}

type lockFrame struct {
	objs   []uint32
	region int32
}

// segment interns (entry, origin) and queues it for building. Spawn edges
// into a segment not yet built target its First node, which is resolved
// when the segment is created because segments are built strictly in FIFO
// order after reservation.
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
	b.onStack = map[pta.FnCtxID]bool{}
	b.walked = map[pta.FnCtxID]int64{}
	b.syncClock = 1
	b.truncated = false
	s.First = len(b.g.Nodes)
	if b.cfg.AndroidEvents && b.a.Origins.Get(s.Origin).Kind == pta.KindEvent {
		// The Android event loop serializes handlers: model it as a global
		// lock held for the whole handler (§4.2).
		b.lockStack = append(b.lockStack, lockFrame{objs: []uint32{lockset.GlobalEventLock}, region: b.newRegion()})
	}
	b.walk(s.Entry)
	s.Last = len(b.g.Nodes) - 1
	if s.Last < s.First {
		// Empty trace: keep First at -1 so spawn edges into this segment
		// stay unresolved rather than aliasing an unrelated node.
		s.First, s.Last = -1, -2
	}
	// Resolve pending spawn edges into this segment.
	for i, e := range b.g.in[s.ID] {
		if e.To == -1 {
			if s.First <= s.Last {
				b.g.in[s.ID][i].To = s.First
				b.fixOut(e.From, s.ID)
			}
		}
	}
}

func (b *builder) fixOut(from int, target SegID) {
	fs := b.g.Nodes[from].Seg
	for i, e := range b.g.out[fs] {
		if e.From == from && e.To == -1 {
			// match by target segment via the in-list entry
			b.g.out[fs][i].To = b.g.Segs[target].First
			return
		}
	}
}

func (b *builder) newRegion() int32 {
	b.g.Regions++
	return b.g.Regions
}

func (b *builder) currentLockset() (lockset.ID, int32) {
	if len(b.lockStack) == 0 {
		return lockset.Empty, 0
	}
	// Flatten into the reused scratch buffer; Canon copies what it needs,
	// so handing it the same backing array every node is safe. This runs
	// once per emitted node and allocated a fresh slice before.
	objs := b.lockScratch[:0]
	for _, f := range b.lockStack {
		objs = append(objs, f.objs...)
	}
	b.lockScratch = objs[:0]
	return b.g.Locksets.Canon(objs), b.lockStack[len(b.lockStack)-1].region
}

// node appends n to the current segment's trace, stamping its segment,
// lockset and region, and returns its ID.
func (b *builder) node(n Node) int {
	n.Seg = b.cur.ID
	n.Locks, n.Region = b.currentLockset()
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
	defer delete(b.onStack, fn)
	fc := b.a.CG.Get(fn)
	ctx := fc.Ctx
	for idx, in := range fc.Fn.Body {
		if b.full() {
			return
		}
		switch in := in.(type) {
		case *ir.LoadField:
			b.accesses(NRead, fc, in, in.Obj, in.Field)
		case *ir.StoreField:
			b.accesses(NWrite, fc, in, in.Obj, in.Field)
		case *ir.LoadIndex:
			b.accesses(NRead, fc, in, in.Arr, ir.ArrayField)
		case *ir.StoreIndex:
			b.accesses(NWrite, fc, in, in.Arr, ir.ArrayField)
		case *ir.LoadStatic:
			b.static(NRead, fc, in, in.Class, in.Field)
		case *ir.StoreStatic:
			b.static(NWrite, fc, in, in.Class, in.Field)
		case *ir.MonitorEnter:
			objs := b.a.PointsTo(in.Obj, ctx).Slice()
			// The lock node carries the region it opens (its lockset is
			// still the set held *before* acquiring).
			region := b.newRegion()
			id := b.node(Node{Kind: NLock, Instr: in, Fn: fc.Fn})
			b.g.Nodes[id].Region = region
			b.lockStack = append(b.lockStack, lockFrame{objs: objs, region: region})
			b.syncClock++
		case *ir.MonitorExit:
			if n := len(b.lockStack); n > 0 {
				b.lockStack = b.lockStack[:n-1]
			}
			b.node(Node{Kind: NUnlock, Instr: in, Fn: fc.Fn})
			b.syncClock++
		case *ir.ChanSend:
			// Channel operations create inter-origin edges, so the sync
			// clock advances: a callee replayed after a send can carry new
			// happens-before and must not dedup against its pre-send replay.
			b.syncClock++
			b.chanNode(NChanSend, fc, in, in.Ch)
		case *ir.ChanRecv:
			b.syncClock++
			b.chanNode(NChanRecv, fc, in, in.Ch)
		case *ir.ChanClose:
			b.syncClock++
			b.chanNode(NChanClose, fc, in, in.Ch)
		case *ir.Call, *ir.Alloc:
			if c, ok := in.(*ir.Call); ok && c.Recv != nil && c.Static == nil {
				ent := b.a.Cfg.Entries
				switch {
				case ent.IsWait(c.Method):
					// Rule for condition waits: a notify on the same object
					// happens-before the resumption modeled by this node.
					b.syncClock++
					b.condNode(NWait, fc, c)
					continue
				case ent.IsNotify(c.Method):
					b.syncClock++
					b.condNode(NNotify, fc, c)
					continue
				}
				if kind, ok := wgKind(ent, c.Method); ok && len(b.a.CG.EdgesAt(fn, idx)) == 0 {
					// WaitGroup barrier: the call resolved to no user-defined
					// target (the receiver is an ambient WaitGroup object),
					// so model it as a barrier node. Classes defining real
					// Add/Done/Wait methods dispatch normally above.
					b.syncClock++
					b.wgNode(kind, fc, c)
					continue
				}
			}
			for _, e := range b.a.CG.EdgesAt(fn, idx) {
				switch e.Kind {
				case pta.EdgeCall, pta.EdgeInit:
					b.walk(e.Callee)
				case pta.EdgeSpawn:
					b.syncClock++
					ent := b.node(Node{Kind: NEntry, Instr: in.(ir.Instr), Fn: fc.Fn})
					child := b.segment(e.Callee, e.Origin)
					// Target First may be unknown yet (-1); resolved when
					// the child segment is built.
					first := b.g.Segs[child].First
					b.g.out[b.cur.ID] = append(b.g.out[b.cur.ID], Edge{ent, first})
					b.g.in[child] = append(b.g.in[child], Edge{ent, first})
					if first >= 0 {
						// already built: fix the out entry we just added
						b.g.out[b.cur.ID][len(b.g.out[b.cur.ID])-1].To = first
					}
				case pta.EdgeJoin:
					b.syncClock++
					jn := b.node(Node{Kind: NJoin, Instr: in.(ir.Instr), Fn: fc.Fn})
					b.joins = append(b.joins, pendingJoin{e.Origin, jn})
				}
			}
		}
	}
}

// condNode records a wait/notify node per object the receiver may point
// to; Build connects notify → wait afterwards.
func (b *builder) condNode(kind NodeKind, fc pta.FnCtx, in *ir.Call) {
	pts := b.a.PointsTo(in.Recv, fc.Ctx)
	pts.ForEach(func(o uint32) {
		b.node(Node{Kind: kind, Obj: pta.ObjID(o), Instr: in, Fn: fc.Fn})
	})
}

// wgKind classifies a WaitGroup method name, if it is one.
func wgKind(ent ir.EntryConfig, method string) (NodeKind, bool) {
	switch {
	case ent.IsWgAdd(method):
		return NWgAdd, true
	case ent.IsWgDone(method):
		return NWgDone, true
	case ent.IsWgWait(method):
		return NWgWait, true
	}
	return 0, false
}

// wgNode records a WaitGroup barrier node per object the receiver may
// point to; Build connects Done → Wait afterwards.
func (b *builder) wgNode(kind NodeKind, fc pta.FnCtx, in *ir.Call) {
	pts := b.a.PointsTo(in.Recv, fc.Ctx)
	pts.ForEach(func(o uint32) {
		b.node(Node{Kind: kind, Obj: pta.ObjID(o), Instr: in, Fn: fc.Fn})
	})
}

// chanNode records a channel-operation node per channel object the operand
// may point to; Build connects the channel edges afterwards.
func (b *builder) chanNode(kind NodeKind, fc pta.FnCtx, in ir.Instr, ch *ir.Var) {
	pts := b.a.PointsTo(ch, fc.Ctx)
	pts.ForEach(func(o uint32) {
		if b.a.Obj(pta.ObjID(o)).Kind != pta.ObjChan {
			return
		}
		b.node(Node{Kind: kind, Obj: pta.ObjID(o), Instr: in, Fn: fc.Fn})
	})
}

// accesses records an access node per object the base may point to. An
// object without a field node is skipped: only an analysis that stopped
// early lacks one.
func (b *builder) accesses(kind NodeKind, fc pta.FnCtx, in ir.Instr, basev *ir.Var, field string) {
	pts := b.a.PointsTo(basev, fc.Ctx)
	pts.ForEach(func(o uint32) {
		if l, ok := b.a.FieldNode(pta.ObjID(o), field); ok {
			b.node(Node{Kind: kind, Loc: l, Instr: in, Fn: fc.Fn})
		}
	})
}

// static records an access node on a static field, skipped like a field
// access when the field has no node.
func (b *builder) static(kind NodeKind, fc pta.FnCtx, in ir.Instr, c *ir.Class, field string) {
	if l, ok := b.a.StaticNode(c.Name + "." + field); ok {
		b.node(Node{Kind: kind, Loc: l, Instr: in, Fn: fc.Fn})
	}
}
