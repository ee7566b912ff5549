package osa_test

import (
	"testing"

	"o2/internal/ir"
	"o2/internal/lang"
	"o2/internal/osa"
	"o2/internal/pta"
	"o2/internal/workload"
)

func analyze(t *testing.T, src string) (*pta.Analysis, *osa.Result) {
	t.Helper()
	prog, err := lang.Compile("t.mini", src, ir.DefaultEntryConfig())
	if err != nil {
		t.Fatal(err)
	}
	a := pta.New(prog, pta.Config{Policy: pta.Policy{Kind: pta.KOrigin, K: 1}, Entries: ir.DefaultEntryConfig()})
	if err := a.Solve(); err != nil {
		t.Fatal(err)
	}
	return a, osa.Analyze(a)
}

func sharedFields(r *osa.Result) map[string]bool {
	out := map[string]bool{}
	for _, k := range r.Shared {
		if k.Static != "" {
			out[k.Static] = true
		} else {
			out[k.Field] = true
		}
	}
	return out
}

func TestSharedVsLocal(t *testing.T) {
	_, r := analyze(t, `
class S { field shared_rw; field shared_ro; field local; }
class W {
  field s;
  W(s) { this.s = s; }
  run() {
    x = this.s;
    x.shared_rw = this;      // written by both workers: shared
    v = x.shared_ro;         // only read by workers: written by main only
    d = new Data();
    d.local = x;             // per-origin object: local
  }
}
class Data { field local; }
main {
  s = new S();
  s.shared_ro = s;
  w1 = new W(s);
  w2 = new W(s);
  w1.start();
  w2.start();
}
`)
	sf := sharedFields(r)
	if !sf["shared_rw"] {
		t.Errorf("shared_rw must be origin-shared")
	}
	if !sf["shared_ro"] {
		t.Errorf("shared_ro is written by main and read by workers: shared")
	}
	if sf["local"] {
		t.Errorf("per-origin Data.local must not be shared")
	}
}

func TestReadOnlyNotShared(t *testing.T) {
	_, r := analyze(t, `
class S { field cfg; }
class W {
  field s;
  W(s) { this.s = s; }
  run() { x = this.s; v = x.cfg; }
}
main {
  s = new S();
  w1 = new W(s);
  w2 = new W(s);
  w1.start();
  w2.start();
}
`)
	if sharedFields(r)["cfg"] {
		t.Errorf("a field nobody writes is not shared")
	}
}

func TestStaticSingleOriginNotShared(t *testing.T) {
	// The paper's precision point over escape analysis: a static used by
	// one origin only stays local.
	_, r := analyze(t, `
class G { static field onlyMain; static field crossed; }
class W {
  run() { x = G.crossed; }
}
main {
  a = new Obj();
  G.onlyMain = a;
  b = G.onlyMain;
  G.crossed = a;
  w = new W();
  w.start();
}
`)
	sf := sharedFields(r)
	if sf["G.onlyMain"] {
		t.Errorf("static used by main only must not be shared")
	}
	if !sf["G.crossed"] {
		t.Errorf("static written by main and read by a thread is shared")
	}
}

func TestArraySharing(t *testing.T) {
	_, r := analyze(t, `
class W {
  field a;
  W(a) { this.a = a; }
  run() { x = this.a; x[0] = this; }
}
main {
  arr = new Arr();
  w1 = new W(arr);
  w2 = new W(arr);
  w1.start();
  w2.start();
}
`)
	found := false
	for _, k := range r.Shared {
		if k.Field == ir.ArrayField {
			found = true
		}
	}
	if !found {
		t.Errorf("array written by two origins must be shared via its * field")
	}
}

func TestReplicatedOriginSelfSharing(t *testing.T) {
	// Under a non-origin policy, a loop-spawned origin keeps the
	// replication flag, so its lone write is self-shared.
	prog, err := lang.Compile("t.mini", `
class S { field v; }
class W {
  field s;
  W(s) { this.s = s; }
  run() { x = this.s; x.v = this; }
}
main {
  s = new S();
  while (i) {
    w = new W(s);
    w.start();
  }
}
`, ir.DefaultEntryConfig())
	if err != nil {
		t.Fatal(err)
	}
	a := pta.New(prog, pta.Config{Policy: pta.Policy{Kind: pta.Insensitive}, Entries: ir.DefaultEntryConfig()})
	if err := a.Solve(); err != nil {
		t.Fatal(err)
	}
	r := osa.Analyze(a)
	if !sharedFields(r)["v"] {
		t.Errorf("replicated origin's write must be self-shared")
	}
}

func TestOriginsOfAndCounts(t *testing.T) {
	a, r := analyze(t, `
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
`)
	var key osa.Key
	for _, k := range r.Shared {
		if k.Field == "v" {
			key = k
		}
	}
	origins := r.OriginsOf(key)
	if len(origins) != 2 {
		t.Fatalf("v shared by %d origins, want 2", len(origins))
	}
	if l, ok := osa.LocOf(a, key); !ok || !r.IsShared(l) {
		t.Errorf("IsShared inconsistent with Shared list")
	}
	if r.SharedAccesses == 0 || r.SharedObjects == 0 || r.Visited == 0 {
		t.Errorf("counters not populated: %+v", r)
	}
}

func TestConstructorRunsInParentOrigin(t *testing.T) {
	// The constructor executes in the allocating origin even though OPA
	// analyzes it under the new origin's context: a ctor-write plus a
	// handler-read is main-vs-event sharing.
	a, r := analyze(t, `
class H {
  field cfg;
  H(c) { this.cfg = c; }
  handleEvent(ev) { x = this.cfg; }
}
main {
  c = new Cfg();
  h = new H(c);
  ev = new Ev();
  h.handleEvent(ev);
}
`)
	foundMainWrite := false
	for _, k := range r.Shared {
		if k.Field == "cfg" {
			for _, o := range r.OriginsOf(k) {
				if a.Origins.Get(o).Kind == pta.KindMain {
					foundMainWrite = true
				}
			}
		}
	}
	if !foundMainWrite {
		t.Errorf("constructor write should be attributed to the main origin")
	}
}

// A location's key and its PAG node name each other: on the bench gate's
// presets every recorded location maps to its key and back, and every
// shared key maps to a location IsShared confirms.
func TestKeyLocRoundTrip(t *testing.T) {
	entries := ir.DefaultEntryConfig()
	for _, name := range []string{"avrora", "zookeeper", "memcached"} {
		p, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("preset %s missing", name)
		}
		a := pta.New(workload.Build(p, entries), pta.Config{Policy: pta.Policy{Kind: pta.KOrigin, K: 1}, Entries: entries})
		if err := a.Solve(); err != nil {
			t.Fatal(err)
		}
		r := osa.Analyze(a)
		accessed := 0
		for l := range osa.Loc(a.NumNodes()) {
			if !r.Accessed(l) {
				continue
			}
			accessed++
			k := osa.KeyOf(a, l)
			if got, ok := osa.LocOf(a, k); !ok || got != l {
				t.Errorf("%s: location %d has key %v, which maps to %d (found %v)", name, l, k, got, ok)
			}
		}
		if accessed == 0 || len(r.Shared) == 0 {
			t.Fatalf("%s: %d locations, %d shared", name, accessed, len(r.Shared))
		}
		for _, k := range r.Shared {
			l, ok := osa.LocOf(a, k)
			if !ok || osa.KeyOf(a, l) != k || !r.IsShared(l) {
				t.Errorf("%s: shared key %v does not round-trip (location %d, found %v)", name, k, l, ok)
			}
		}
	}
}

// record is one access as the traversal meets it: a statement on one
// location it may touch, run by one origin.
type record struct {
	loc    osa.Loc
	origin pta.OriginID
	write  bool
	instr  ir.Instr
}

// records re-walks the traversal of Analyze and keeps every access as a
// record: one per access statement, object and origin, for each visited
// ⟨function, context, origin⟩ triple.
func records(a *pta.Analysis) (recs []record, visited int) {
	seen := map[[2]uint32]bool{}
	var visit func(fc pta.FnCtxID, origin pta.OriginID)
	visit = func(fc pta.FnCtxID, origin pta.OriginID) {
		k := [2]uint32{uint32(fc), uint32(origin)}
		if seen[k] {
			return
		}
		seen[k] = true
		for idx, in := range a.CG.Get(fc).Fn.Body {
			var base *ir.Var
			write := false
			switch in := in.(type) {
			case *ir.LoadField:
				base = in.Obj
			case *ir.StoreField:
				base, write = in.Obj, true
			case *ir.LoadIndex:
				base = in.Arr
			case *ir.StoreIndex:
				base, write = in.Arr, true
			case *ir.LoadStatic, *ir.StoreStatic:
				_, write = in.(*ir.StoreStatic)
				if l, ok := a.StaticNodeAt(fc, idx); ok {
					recs = append(recs, record{l, origin, write, in})
				}
				continue
			case *ir.Call:
				for _, e := range a.CG.EdgesAt(fc, idx) {
					switch e.Kind {
					case pta.EdgeCall, pta.EdgeInit:
						visit(e.Callee, origin)
					case pta.EdgeSpawn:
						visit(e.Callee, e.Origin)
					}
				}
				continue
			case *ir.Alloc:
				for _, e := range a.CG.EdgesAt(fc, idx) {
					if e.Kind == pta.EdgeCall || e.Kind == pta.EdgeInit {
						visit(e.Callee, origin)
					}
				}
				continue
			default:
				continue
			}
			a.PointsToIn(fc, base).ForEach(func(o uint32) {
				if l, ok := a.FieldNodeAt(fc, idx, pta.ObjID(o)); ok {
					recs = append(recs, record{l, origin, write, in})
				}
			})
		}
	}
	visit(a.MainNode(), pta.MainOrigin)
	return recs, len(seen)
}

// On the 31 presets the counts OSA keeps equal the ones read off a list
// of every access record: the total, each origin's accesses and writes,
// the accessed locations, and the distinct statements on shared
// locations.
func TestCountsMatchRecords(t *testing.T) {
	entries := ir.DefaultEntryConfig()
	presets := append(append([]workload.Preset(nil), workload.Table5...), workload.Table6...)
	presets = append(presets, workload.GoSync())
	for _, p := range presets {
		a := pta.New(workload.Build(p, entries), pta.Config{Policy: pta.Policy{Kind: pta.KOrigin, K: 1}, Entries: entries})
		if err := a.Solve(); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		r := osa.Analyze(a)
		recs, visited := records(a)
		byOrigin := make([]osa.AccessCount, a.Origins.Len())
		accessed := map[osa.Loc]bool{}
		sharedInstrs := map[ir.Instr]bool{}
		for _, rec := range recs {
			byOrigin[rec.origin].Accesses++
			if rec.write {
				byOrigin[rec.origin].Writes++
			}
			accessed[rec.loc] = true
			if r.IsShared(rec.loc) {
				sharedInstrs[rec.instr] = true
			}
		}
		if r.Accesses != len(recs) || r.Visited != visited || r.SharedAccesses != len(sharedInstrs) {
			t.Errorf("%s: accesses %d, visited %d, shared accesses %d; records give %d, %d, %d",
				p.Name, r.Accesses, r.Visited, r.SharedAccesses, len(recs), visited, len(sharedInstrs))
		}
		if len(r.ByOrigin) != len(byOrigin) {
			t.Fatalf("%s: %d origin counts, want %d", p.Name, len(r.ByOrigin), len(byOrigin))
		}
		for o, c := range byOrigin {
			if r.ByOrigin[o] != c {
				t.Errorf("%s: origin %d counts %+v, records give %+v", p.Name, o, r.ByOrigin[o], c)
			}
		}
		for l := range osa.Loc(a.NumNodes()) {
			if r.Accessed(l) != accessed[l] {
				t.Errorf("%s: Accessed(%d) = %v, records say %v", p.Name, l, r.Accessed(l), accessed[l])
			}
		}
		if len(sharedInstrs) == 0 {
			t.Errorf("%s: no shared access statements", p.Name)
		}
	}
}
