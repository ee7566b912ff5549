package pta_test

import (
	"fmt"
	"strings"
	"testing"

	"o2/internal/ir"
	"o2/internal/pta"
	"o2/internal/workload"
)

// TestEdgesAtPartitionsOut checks the per-instruction view of the call
// graph OSA and SHB walk: for every node, the EdgesAt lists over its
// instruction indices partition Out(node) in order, each edge carries the
// queried index, and a full sweep allocates nothing.
func TestEdgesAtPartitionsOut(t *testing.T) {
	entries := ir.DefaultEntryConfig()
	for _, tc := range []struct {
		preset string
		pol    pta.Policy
	}{
		{"zookeeper", origin1()},
		{"avrora", pta.Policy{Kind: pta.KCFA, K: 1}},
	} {
		p, ok := workload.ByName(tc.preset)
		if !ok {
			t.Fatalf("no preset %s", tc.preset)
		}
		a := pta.New(workload.Build(p, entries), pta.Config{Policy: tc.pol, Entries: entries})
		if err := a.Solve(); err != nil {
			t.Fatalf("%s: %v", tc.preset, err)
		}
		edges := 0
		for id := 0; id < a.CG.NumNodes(); id++ {
			node := pta.FnCtxID(id)
			out := a.CG.Out(node)
			var joined []pta.Edge
			for idx := range a.CG.Get(node).Fn.Body {
				at := a.CG.EdgesAt(node, idx)
				for _, e := range at {
					if e.InstrIdx != idx {
						t.Fatalf("%s: EdgesAt(%d, %d) returned an edge of instruction %d", tc.preset, node, idx, e.InstrIdx)
					}
				}
				joined = append(joined, at...)
			}
			if len(joined) != len(out) {
				t.Fatalf("%s: node %d: EdgesAt lists hold %d edges, Out %d", tc.preset, node, len(joined), len(out))
			}
			for i := range out {
				if joined[i] != out[i] {
					t.Fatalf("%s: node %d: edge %d is %+v by instruction, %+v in Out", tc.preset, node, i, joined[i], out[i])
				}
			}
			edges += len(out)
		}
		if edges != a.CG.Edges || edges == 0 {
			t.Errorf("%s: out-lists hold %d edges, the graph counts %d", tc.preset, edges, a.CG.Edges)
		}
		allocs := testing.AllocsPerRun(10, func() {
			for id := 0; id < a.CG.NumNodes(); id++ {
				for idx := range a.CG.Get(pta.FnCtxID(id)).Fn.Body {
					_ = a.CG.EdgesAt(pta.FnCtxID(id), idx)
				}
			}
		})
		if allocs != 0 {
			t.Errorf("%s: an EdgesAt sweep allocates %.0f times", tc.preset, allocs)
		}
	}
}

// TestWideCallerAndObject drives the call-graph and field-node lookups
// past the sizes at which they fall back from a scan to a set: one
// function with many call sites and two objects with many fields. Both
// objects reach every call site, so each edge is found twice and must be
// kept once; each field of each object gets its own node.
func TestWideCallerAndObject(t *testing.T) {
	const n = 40
	var src strings.Builder
	src.WriteString("class C {\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&src, "  field f%d;\n", i)
	}
	src.WriteString("  m() { }\n}\nmain {\n  c = new C();\n  d = new C();\n  c = d;\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&src, "  c.f%d = c;\n  c.m();\n  c.m();\n", i)
	}
	src.WriteString("}\n")
	a := solve(t, src.String(), origin1())

	main := a.MainNode()
	calls := 0
	for idx, in := range a.Prog.Main.Body {
		at := a.CG.EdgesAt(main, idx)
		if _, ok := in.(*ir.Call); !ok {
			if len(at) != 0 {
				t.Fatalf("instruction %d (%s) has %d call edges", idx, in, len(at))
			}
			continue
		}
		calls++
		if len(at) != 1 || at[0].InstrIdx != idx {
			t.Fatalf("call %d has edges %+v", idx, at)
		}
	}
	if calls != 2*n || len(a.CG.Out(main)) != 2*n {
		t.Errorf("main has %d calls and %d out-edges, want %d", calls, len(a.CG.Out(main)), 2*n)
	}

	objs := a.PointsTo(a.Prog.Main.Var("c"), pta.EmptyCtx).Slice()
	if len(objs) != 2 {
		t.Fatalf("c points to %d objects, want 2", len(objs))
	}
	seen := map[pta.NodeID]bool{}
	for _, o := range objs {
		obj := pta.ObjID(o)
		for i := 0; i < n; i++ {
			f := fmt.Sprintf("f%d", i)
			id, ok := a.FieldNode(obj, f)
			if !ok {
				t.Fatalf("no node for ⟨o%d⟩.%s", obj, f)
			}
			if gotObj, gotField := a.NodeField(id); gotObj != obj || gotField != f || seen[id] {
				t.Fatalf("⟨o%d⟩.%s: node %d is ⟨o%d⟩.%s", obj, f, id, gotObj, gotField)
			}
			seen[id] = true
			if got := a.FieldPointsTo(obj, f).Len(); got != 2 {
				t.Errorf("⟨o%d⟩.%s points to %d objects, want 2", obj, f, got)
			}
		}
		if _, ok := a.FieldNode(obj, "missing"); ok {
			t.Errorf("found a node for a field no instruction accesses")
		}
	}
}
