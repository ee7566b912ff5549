package pta_test

import (
	"strings"
	"testing"

	"o2/internal/pta"
)

const queryProgram = `
class S { field data; }
class W {
  field s;
  W(s) { this.s = s; }
  run() { x = this.s; x.data = this; }
}
main {
  s = new S();
  w1 = new W(s);
  w2 = new W(s);
  w1.start();
  w2.start();
}
`

func TestStatsPopulated(t *testing.T) {
	a := solve(t, queryProgram, origin1())
	st := a.Stats()
	if st.Policy != "1-origin" {
		t.Errorf("policy name %q", st.Policy)
	}
	if st.Pointers == 0 || st.Objects != 3 || st.Edges == 0 || st.Origins != 3 {
		t.Errorf("stats = %+v", st)
	}
	if st.CGNodes == 0 || st.CGEdges == 0 || st.Steps == 0 {
		t.Errorf("call-graph stats empty: %+v", st)
	}
	if st.TimedOut {
		t.Errorf("run did not time out")
	}
	if s := st.String(); !strings.Contains(s, "1-origin") {
		t.Errorf("Stats.String() = %q", s)
	}
}

func TestOriginAttrsRendering(t *testing.T) {
	a := solve(t, queryProgram, origin1())
	for _, org := range a.Origins.Origins {
		if org.Kind != pta.KindThread {
			continue
		}
		attrs := a.OriginAttrs(org.ID)
		if !strings.Contains(attrs, "s→") || !strings.Contains(attrs, "S@") {
			t.Errorf("origin attrs should show the shared S pointer: %q", attrs)
		}
	}
	if got := a.OriginAttrs(pta.MainOrigin); got != "()" {
		t.Errorf("main origin attrs = %q", got)
	}
}

func TestMayAlias(t *testing.T) {
	a := solve(t, `
class C { }
main {
  x = new C();
  y = x;
  z = new C();
}
`, origin1())
	main := a.Prog.Main
	if !a.MayAlias(main.Var("x"), pta.EmptyCtx, main.Var("y"), pta.EmptyCtx) {
		t.Errorf("x and y must alias")
	}
	if a.MayAlias(main.Var("x"), pta.EmptyCtx, main.Var("z"), pta.EmptyCtx) {
		t.Errorf("x and z must not alias")
	}
}

func TestReachableFuncs(t *testing.T) {
	a := solve(t, `
class C { used() { } unused() { } }
main {
  c = new C();
  c.used();
}
`, origin1())
	names := map[string]bool{}
	for _, f := range a.ReachableFuncs() {
		names[f.Name] = true
	}
	if !names["main"] || !names["C.used"] {
		t.Errorf("reachable funcs missing: %v", names)
	}
	if names["C.unused"] {
		t.Errorf("unused method should be unreachable")
	}
}

func TestOriginOfCtx(t *testing.T) {
	a := solve(t, queryProgram, origin1())
	if org, ok := a.OriginOfCtx(pta.EmptyCtx); !ok || org != pta.MainOrigin {
		t.Errorf("empty context must map to the main origin")
	}
	for _, org := range a.Origins.Origins {
		if org.Kind == pta.KindThread {
			got, ok := a.OriginOfCtx(org.Ctx)
			if !ok || got != org.ID {
				t.Errorf("OriginOfCtx(%v) = %v/%v, want %v", org.Ctx, got, ok, org.ID)
			}
		}
	}

	// Non-origin policies do not support the mapping.
	a0 := solve(t, queryProgram, pta.Policy{Kind: pta.Insensitive})
	if _, ok := a0.OriginOfCtx(pta.EmptyCtx); ok {
		t.Errorf("OriginOfCtx should refuse under 0-ctx")
	}
}

func TestObjAndCtxStrings(t *testing.T) {
	a := solve(t, queryProgram, origin1())
	if s := a.ObjString(1); !strings.Contains(s, "@") {
		t.Errorf("ObjString = %q", s)
	}
	if s := a.CtxString(pta.EmptyCtx); s != "[]" {
		t.Errorf("CtxString(empty) = %q", s)
	}
}

func TestFieldAndStaticPointsTo(t *testing.T) {
	a := solve(t, `
class G { static field root; }
class S { field child; }
main {
  s = new S();
  c = new S();
  s.child = c;
  G.root = s;
}
`, origin1())
	rootPts := a.StaticPointsTo("G.root")
	if rootPts.Len() != 1 {
		t.Fatalf("G.root pts = %d", rootPts.Len())
	}
	var sObj pta.ObjID
	rootPts.ForEach(func(o uint32) { sObj = pta.ObjID(o) })
	if a.FieldPointsTo(sObj, "child").Len() != 1 {
		t.Errorf("s.child pts = %d", a.FieldPointsTo(sObj, "child").Len())
	}
	if a.StaticPointsTo("G.unknown").Len() != 0 {
		t.Errorf("unknown static should have empty pts")
	}
	if a.FieldPointsTo(pta.ObjID(a.NumObjs()+1), "child").Len() != 0 {
		t.Errorf("an object the analysis never made should have empty field pts")
	}
	count := 0
	a.ForEachFieldNode(func(obj pta.ObjID, field string, pts *pta.Bits) { count++ })
	if count == 0 {
		t.Errorf("ForEachFieldNode visited nothing")
	}
	statics := 0
	a.ForEachStaticNode(func(sig string, pts *pta.Bits) {
		statics++
		if sig != "G.root" {
			t.Errorf("unexpected static %q", sig)
		}
	})
	if statics != 1 {
		t.Errorf("ForEachStaticNode visited %d", statics)
	}
}
