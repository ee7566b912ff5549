package shb_test

import (
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"o2/internal/ir"
	"o2/internal/lang"
	"o2/internal/osa"
	"o2/internal/pta"
	"o2/internal/shb"
	"o2/internal/workload"
)

// field names the field an access node touches.
func field(a *pta.Analysis, n shb.Node) string { return osa.KeyOf(a, n.Loc).Field }

func build(t *testing.T, src string, cfg shb.Config) (*pta.Analysis, *shb.Graph) {
	t.Helper()
	prog, err := lang.Compile("t.mini", src, ir.DefaultEntryConfig())
	if err != nil {
		t.Fatal(err)
	}
	a := pta.New(prog, pta.Config{Policy: pta.Policy{Kind: pta.KOrigin, K: 1}, Entries: ir.DefaultEntryConfig()})
	if err := a.Solve(); err != nil {
		t.Fatal(err)
	}
	return a, shb.Build(a, cfg)
}

const spawnJoin = `
class S { field v; }
class W {
  field s;
  W(s) { this.s = s; }
  run() { x = this.s; x.v = this; }
}
main {
  s = new S();
  s.v = null;
  w = new W(s);
  w.start();
  w.join();
  s.v = null;
}
`

func TestSegmentsAndNodeOrder(t *testing.T) {
	a, g := build(t, spawnJoin, shb.Config{})
	if len(g.Segs) != 2 {
		t.Fatalf("want 2 segments (main + worker), got %d", len(g.Segs))
	}
	_ = a
	for _, seg := range g.Segs {
		last := -1
		for id := seg.First; id <= seg.Last; id++ {
			if g.Nodes[id].Seg != seg.ID {
				t.Fatalf("node %d claims wrong segment", id)
			}
			if id <= last {
				t.Fatalf("node IDs not increasing")
			}
			last = id
		}
	}
}

func TestSpawnAndJoinEdges(t *testing.T) {
	_, g := build(t, spawnJoin, shb.Config{})
	var mainSeg, workSeg *shb.Segment
	for _, s := range g.Segs {
		if s.Origin == pta.MainOrigin {
			mainSeg = s
		} else {
			workSeg = s
		}
	}
	outMain := g.OutEdges(mainSeg.ID)
	if len(outMain) != 1 {
		t.Fatalf("main should have 1 spawn edge, got %d", len(outMain))
	}
	if to := outMain[0].To; to != workSeg.First {
		t.Errorf("spawn edge targets %d, want worker First %d", to, workSeg.First)
	}
	outWork := g.OutEdges(workSeg.ID)
	if len(outWork) != 1 {
		t.Fatalf("worker should have 1 join edge, got %d", len(outWork))
	}
	if from := outWork[0].From; from != workSeg.Last {
		t.Errorf("join edge leaves %d, want worker Last %d", from, workSeg.Last)
	}
}

// HB truth table for the spawn/join program: main's first write precedes
// the worker's (through start); the worker's precedes main's last (through
// join).
func TestHappensBeforeThroughSpawnAndJoin(t *testing.T) {
	a, g := build(t, spawnJoin, shb.Config{})
	var preWrite, workWrite, postWrite int = -1, -1, -1
	for id, n := range g.Nodes {
		if n.Kind != shb.NWrite || field(a, n) != "v" {
			continue
		}
		switch {
		case g.Origin(id) != pta.MainOrigin:
			workWrite = id
		case preWrite == -1:
			preWrite = id
		default:
			postWrite = id
		}
	}
	if preWrite < 0 || workWrite < 0 || postWrite < 0 {
		t.Fatalf("missing writes: %d %d %d", preWrite, workWrite, postWrite)
	}
	if !g.HappensBefore(preWrite, workWrite) {
		t.Errorf("pre-spawn write must happen before the worker write")
	}
	if !g.HappensBefore(workWrite, postWrite) {
		t.Errorf("worker write must happen before the post-join write")
	}
	if g.HappensBefore(workWrite, preWrite) || g.HappensBefore(postWrite, workWrite) {
		t.Errorf("HB must be antisymmetric here")
	}
	if !g.HappensBefore(preWrite, postWrite) {
		t.Errorf("intra-segment integer HB broken")
	}
}

func TestNoHBBetweenSiblingThreads(t *testing.T) {
	a, g := build(t, `
class S { field v; }
class W {
  field s;
  W(s) { this.s = s; }
  run() { x = this.s; x.v = this; }
}
main {
  s = new S();
  w1 = new W(s);
  w2 = new W(s);
  w1.start();
  w2.start();
}
`, shb.Config{})
	var writes []int
	for id, n := range g.Nodes {
		if n.Kind == shb.NWrite && field(a, n) == "v" && g.Origin(id) != pta.MainOrigin {
			writes = append(writes, id)
		}
	}
	if len(writes) != 2 {
		t.Fatalf("want 2 worker writes, got %d", len(writes))
	}
	if g.HappensBefore(writes[0], writes[1]) || g.HappensBefore(writes[1], writes[0]) {
		t.Errorf("sibling threads must be unordered")
	}
}

func TestLocksetsAndRegions(t *testing.T) {
	_, g := build(t, `
class S { field a; field b; }
class W {
  field s; field l;
  W(s, l) { this.s = s; this.l = l; }
  run() {
    x = this.s;
    k = this.l;
    x.a = this;
    sync (k) {
      x.a = this;
      x.b = this;
    }
    sync (k) {
      x.b = this;
    }
  }
}
main {
  s = new S();
  l = new L();
  w = new W(s, l);
  w.start();
}
`, shb.Config{})
	var unlocked, locked []shb.Node
	regions := map[int32]bool{}
	for id, n := range g.Nodes {
		if n.Kind != shb.NWrite || g.Origin(id) == pta.MainOrigin {
			continue
		}
		if n.Locks == 0 {
			unlocked = append(unlocked, n)
		} else {
			locked = append(locked, n)
			regions[n.Region] = true
		}
	}
	if len(unlocked) != 1 {
		t.Errorf("want 1 unlocked write, got %d", len(unlocked))
	}
	if len(locked) != 3 {
		t.Errorf("want 3 locked writes, got %d", len(locked))
	}
	if len(regions) != 2 {
		t.Errorf("two sync blocks should create two region instances, got %d", len(regions))
	}
	for _, n := range locked {
		if len(g.Locksets.Set(n.Locks)) != 1 {
			t.Errorf("locked write lockset = %v", g.Locksets.Set(n.Locks))
		}
	}
}

func TestNestedLocks(t *testing.T) {
	a, g := build(t, `
class S { field v; }
main {
  s = new S();
  l1 = new L();
  l2 = new L();
  sync (l1) {
    sync (l2) {
      s.v = null;
    }
  }
}
`, shb.Config{})
	for _, n := range g.Nodes {
		if n.Kind == shb.NWrite && field(a, n) == "v" {
			if len(g.Locksets.Set(n.Locks)) != 2 {
				t.Errorf("nested sync should hold both locks: %v", g.Locksets.Set(n.Locks))
			}
		}
	}
}

func TestAndroidGlobalEventLock(t *testing.T) {
	src := `
class S { field v; }
class H {
  field s;
  H(s) { this.s = s; }
  onReceive(ev) { x = this.s; x.v = ev; }
}
main {
  s = new S();
  h = new H(s);
  ev = new Ev();
  h.onReceive(ev);
}
`
	pa, plain := build(t, src, shb.Config{})
	aa, android := build(t, src, shb.Config{AndroidEvents: true})
	handlerLocked := func(a *pta.Analysis, g *shb.Graph) bool {
		for id, n := range g.Nodes {
			if n.Kind == shb.NWrite && field(a, n) == "v" && g.Origin(id) != pta.MainOrigin {
				return n.Locks != 0
			}
		}
		return false
	}
	if handlerLocked(pa, plain) {
		t.Errorf("plain mode must not add the event lock")
	}
	if !handlerLocked(aa, android) {
		t.Errorf("Android mode must serialize handlers with the global lock")
	}
}

func TestMaxNodesTruncation(t *testing.T) {
	_, g := build(t, spawnJoin, shb.Config{MaxNodes: 3})
	if len(g.Nodes) > 4 {
		t.Errorf("MaxNodes not honored: %d nodes", len(g.Nodes))
	}
}

// TestSpawnIntoEmptyTrace: each W thread starts an E thread whose run()
// is empty. The entry node of such a spawn orders nothing and gets no
// edge, and every listed edge joins two real nodes, leaving the segment
// it is listed under.
func TestSpawnIntoEmptyTrace(t *testing.T) {
	_, g := build(t, `
class S { field data; }
class E { run() { } }
class W {
  field s;
  W(s) { this.s = s; }
  run() { e = new E(); e.start(); sh = this.s; sh.data = this; }
}
main { s = new S(); t1 = new W(s); t2 = new W(s); t1.start(); t2.start(); }
`, shb.Config{})
	from := map[int]bool{}
	for _, s := range g.Segs {
		for _, e := range g.OutEdges(s.ID) {
			if e.From < 0 || e.From >= len(g.Nodes) || g.Nodes[e.From].Seg != s.ID {
				t.Errorf("segment %d lists edge %+v, which does not leave it", s.ID, e)
			}
			if e.To < 0 || e.To >= len(g.Nodes) {
				t.Errorf("segment %d lists edge %+v to no node", s.ID, e)
			}
			from[e.From] = true
		}
	}
	entries := 0
	for id, n := range g.Nodes {
		if n.Kind == shb.NEntry && g.Func(id).Name == "W.run" {
			entries++
			if from[id] {
				t.Errorf("E's entry node %d has an out-edge", id)
			}
		}
	}
	if entries == 0 {
		t.Fatal("setup: no entry node starts E")
	}
}

// Property: the cached and uncached reachability agree on random node
// pairs of a nontrivial graph.
func TestHBCacheAgreesWithUncached(t *testing.T) {
	_, g := build(t, `
class S { field v; }
class W {
  field s;
  W(s) { this.s = s; }
  run() {
    x = this.s;
    x.v = this;
    c = new Child(x);
    c.start();
  }
}
class Child {
  field s;
  Child(s) { this.s = s; }
  run() { x = this.s; x.v = this; }
}
main {
  s = new S();
  w1 = new W(s);
  w2 = new W(s);
  w1.start();
  w2.start();
  w1.join();
  s.v = null;
}
`, shb.Config{})
	rng := rand.New(rand.NewSource(11))
	n := len(g.Nodes)
	if n < 5 {
		t.Fatalf("graph too small: %d", n)
	}
	for i := 0; i < 2000; i++ {
		x, y := rng.Intn(n), rng.Intn(n)
		if g.HappensBefore(x, y) != g.HappensBeforeNoCache(x, y) {
			t.Fatalf("cache disagrees on (%d,%d)", x, y)
		}
	}
}

// Every location an SHB read or write touches is one OSA recorded.
func TestSHBKeysConsistentWithOSA(t *testing.T) {
	a, g := build(t, spawnJoin, shb.Config{})
	sh := osa.Analyze(a)
	for _, n := range g.Nodes {
		if n.Kind == shb.NRead || n.Kind == shb.NWrite {
			if !sh.Accessed(n.Loc) {
				t.Errorf("SHB access %v unknown to OSA", osa.KeyOf(a, n.Loc))
			}
		}
	}
}

// Nodes are the graph's arena, one per traced access or sync operation:
// keep each at 32 bytes or less, with no field the collector must scan.
func TestNodeSize(t *testing.T) {
	if sz := unsafe.Sizeof(shb.Node{}); sz > 32 {
		t.Errorf("shb.Node is %d bytes, want at most 32", sz)
	}
	typ := reflect.TypeOf(shb.Node{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		switch f.Type.Kind() {
		case reflect.Bool, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		default:
			t.Errorf("shb.Node.%s is a %s, which may hold a pointer", f.Name, f.Type.Kind())
		}
	}
}

func TestWaitNotifyNodesAndEdges(t *testing.T) {
	_, g := build(t, `
class Cond { }
class P {
  field c;
  P(c) { this.c = c; }
  run() { x = this.c; x.notify(); }
}
class C {
  field c;
  C(c) { this.c = c; }
  run() { x = this.c; x.wait(); }
}
main {
  cv = new Cond();
  p = new P(cv);
  q = new C(cv);
  p.start();
  q.start();
}
`, shb.Config{})
	var notifyNode, waitNode = -1, -1
	for id, n := range g.Nodes {
		switch n.Kind {
		case shb.NNotify:
			notifyNode = id
		case shb.NWait:
			waitNode = id
		}
	}
	if notifyNode < 0 || waitNode < 0 {
		t.Fatalf("missing wait/notify nodes")
	}
	if !g.HappensBefore(notifyNode, waitNode) {
		t.Errorf("notify must happen before the matching wait")
	}
	if g.HappensBefore(waitNode, notifyNode) {
		t.Errorf("wait must not happen before notify")
	}
}

// Detection merges the accesses of one lock-region instance into one
// representative, keyed by the region alone: every read and write node
// of a region instance must then lie in one segment under one lockset.
// Lock nodes are left out, since an NLock node carries the region it
// opens but the lockset held before it.
func TestRegionAccessesShareSegmentAndLockset(t *testing.T) {
	entries := ir.DefaultEntryConfig()
	for _, name := range []string{"avrora", "zookeeper", "memcached"} {
		p, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("no preset %s", name)
		}
		a := pta.New(workload.Build(p, entries), pta.Config{Policy: pta.Policy{Kind: pta.KOrigin, K: 1}, Entries: entries})
		if err := a.Solve(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		g := shb.Build(a, shb.Config{})
		first := map[int32]int{} // region → first access node in it
		for id, n := range g.Nodes {
			if (n.Kind != shb.NRead && n.Kind != shb.NWrite) || n.Region == 0 {
				continue
			}
			f, ok := first[n.Region]
			if !ok {
				first[n.Region] = id
				continue
			}
			if m := g.Nodes[f]; m.Seg != n.Seg || m.Locks != n.Locks {
				t.Errorf("%s: region %d: node %d in segment %d under lockset %d, node %d in segment %d under lockset %d",
					name, n.Region, f, m.Seg, m.Locks, id, n.Seg, n.Locks)
			}
		}
		if len(first) == 0 {
			t.Errorf("%s: no access inside a lock region", name)
		}
	}
}
