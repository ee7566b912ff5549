package race

import (
	"encoding/json"
	"fmt"
	"sort"

	"o2/internal/pta"
	"o2/internal/shb"
)

// WitnessSchema identifies the Witness JSON layout. Bump it on any field
// rename or semantic change; downstream triage tooling keys on it, like
// RunStats' SchemaVersion.
const WitnessSchema = 1

// Witness is the machine-readable evidence behind a reported race: who
// accesses the location (with the full origin spawn chain), what locks
// each side holds (with resolved lock names and their intersection), and
// why neither access happens before the other. It is the structured form
// of the report a developer triages — Uber's field study of Go races
// found reports actionable only when they carry this provenance — and it
// backs the text rendering of Explain, the `o2 analyze -explain-json`
// output and the witnesses embedded in batch-server job results. All
// slices are sorted and the struct contains no maps, so marshaling a
// witness is byte-stable for a fixed analysis.
type Witness struct {
	Schema   int           `json:"schema"`
	Location string        `json:"location"`
	A        WitnessAccess `json:"a"`
	B        WitnessAccess `json:"b"`
	Locks    LockEvidence  `json:"locks"`
	Ordering OrderEvidence `json:"ordering"`
}

// WitnessAccess is one side of the race.
type WitnessAccess struct {
	Op     string     `json:"op"` // "read" or "write"
	Pos    string     `json:"pos"`
	Fn     string     `json:"fn"`
	Origin OriginInfo `json:"origin"`
}

// OriginInfo describes the origin executing an access, §3.1's user-facing
// abstraction: its kind, spawn site, attribute pointers and the chain of
// origins that (transitively) spawned it, ending at main.
type OriginInfo struct {
	ID         uint32      `json:"id"`
	Kind       string      `json:"kind"` // "main", "thread", "event"
	Name       string      `json:"name"` // e.g. O2(thread run@site1)
	SpawnPos   string      `json:"spawn_pos,omitempty"`
	Attrs      string      `json:"attrs,omitempty"`
	Replicated bool        `json:"replicated,omitempty"`
	SpawnChain []SpawnStep `json:"spawn_chain"`
}

// SpawnStep is one link of the spawn chain, leaf origin first, main last.
type SpawnStep struct {
	Origin string `json:"origin"`
	Pos    string `json:"pos,omitempty"`
}

// Lock verdicts of LockEvidence.
const (
	LocksNone        = "both-unlocked"   // neither access holds any lock
	LocksUnprotected = "one-unprotected" // exactly one side holds locks
	LocksDisjoint    = "disjoint"        // both hold locks, no common lock
)

// LockEvidence is the lockset derivation: the resolved (sorted) lock
// names held at each access, their intersection (empty for every true
// race) and the verdict naming which protection failure applies.
type LockEvidence struct {
	A       []string `json:"a"`
	B       []string `json:"b"`
	Common  []string `json:"common"`
	Verdict string   `json:"verdict"`
}

// Ordering verdicts of OrderEvidence.
const (
	OrderReplicated = "replicated-origin" // concurrent instances of one replicated origin
	OrderNoHBPath   = "no-hb-path"        // no happens-before path in either direction
	OrderPartial    = "partially-ordered" // ordered pairwise, reported due to replication
)

// OrderEvidence is the happens-before-absence evidence: the raw HB
// queries in both directions, the segment relation, the replication flag
// and the verdict naming why the accesses are concurrent. SyncEdges
// lists the message-passing HB edges (notify→wait, channel send→recv /
// rendezvous / close→recv, WaitGroup Done→Wait) that run directly
// between the two racing segments: evidence that the origins do
// synchronize, just not in a way that orders these two accesses. Spawn
// and join edges are deliberately excluded — the spawn chain and the
// verdict text already narrate those.
type OrderEvidence struct {
	HBAtoB      bool     `json:"hb_a_to_b"`
	HBBtoA      bool     `json:"hb_b_to_a"`
	SameSegment bool     `json:"same_segment"`
	Replicated  bool     `json:"replicated_origin"`
	Verdict     string   `json:"verdict"`
	SyncEdges   []string `json:"sync_edges,omitempty"`
}

// BuildWitness derives the full witness for a reported race from the
// solved analysis and SHB graph. It only reads immutable analysis state,
// so witnesses for many races may be built concurrently.
func BuildWitness(a *pta.Analysis, g *shb.Graph, r *Race) *Witness {
	return buildWitness(a, g, r, func(id pta.OriginID) OriginInfo { return originInfo(a, id) })
}

func buildWitness(a *pta.Analysis, g *shb.Graph, r *Race, info func(pta.OriginID) OriginInfo) *Witness {
	na, nb := &g.Nodes[r.A.Node], &g.Nodes[r.B.Node]
	la := lockNames(a, g.Locksets.Set(na.Locks))
	lb := lockNames(a, g.Locksets.Set(nb.Locks))

	w := &Witness{
		Schema:   WitnessSchema,
		Location: r.Key.String(),
		A:        witnessAccess(r.A, info),
		B:        witnessAccess(r.B, info),
		Locks: LockEvidence{
			A:      la,
			B:      lb,
			Common: intersectSorted(la, lb),
		},
	}
	switch {
	case len(la) == 0 && len(lb) == 0:
		w.Locks.Verdict = LocksNone
	case len(la) == 0 || len(lb) == 0:
		w.Locks.Verdict = LocksUnprotected
	default:
		w.Locks.Verdict = LocksDisjoint
	}

	ord := OrderEvidence{
		HBAtoB:      g.HappensBefore(r.A.Node, r.B.Node),
		HBBtoA:      g.HappensBefore(r.B.Node, r.A.Node),
		SameSegment: na.Seg == nb.Seg,
		Replicated:  a.Origins.Get(g.Origin(r.A.Node)).Replicated,
		SyncEdges:   syncEdges(g, na.Seg, nb.Seg),
	}
	switch {
	case ord.SameSegment && ord.Replicated:
		ord.Verdict = OrderReplicated
	case !ord.HBAtoB && !ord.HBBtoA:
		ord.Verdict = OrderNoHBPath
	default:
		ord.Verdict = OrderPartial
	}
	w.Ordering = ord
	return w
}

// Witnesses builds one witness per reported race, in report order. Each
// origin is described once and its OriginInfo shared by every witness
// that names it: a report holds up to one race per pair of accesses but
// only as many origins as the program spawns.
func Witnesses(a *pta.Analysis, g *shb.Graph, rep *Report) []*Witness {
	infos := map[pta.OriginID]OriginInfo{}
	info := func(id pta.OriginID) OriginInfo {
		oi, ok := infos[id]
		if !ok {
			oi = originInfo(a, id)
			infos[id] = oi
		}
		return oi
	}
	out := make([]*Witness, len(rep.Races))
	for i := range rep.Races {
		out[i] = buildWitness(a, g, &rep.Races[i], info)
	}
	return out
}

// MarshalIndent renders the witness as stable, human-diffable JSON.
func (w *Witness) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(w, "", "  ")
}

func witnessAccess(acc Access, info func(pta.OriginID) OriginInfo) WitnessAccess {
	return WitnessAccess{Op: op(acc.Write), Pos: acc.Pos.String(), Fn: acc.Fn, Origin: info(acc.Origin)}
}

// originInfo describes the origin executing an access.
func originInfo(a *pta.Analysis, id pta.OriginID) OriginInfo {
	org := a.Origins.Get(id)
	info := OriginInfo{
		ID:         uint32(org.ID),
		Kind:       org.Kind.String(),
		Name:       org.String(),
		Attrs:      a.OriginAttrs(org.ID),
		Replicated: org.Replicated,
		SpawnChain: spawnChain(a, org.ID),
	}
	if org.ID != pta.MainOrigin {
		info.SpawnPos = org.Pos.String()
	}
	return info
}

// spawnChain walks Parent links from the access's origin to main, leaf
// first. The bound guards against malformed parent links.
func spawnChain(a *pta.Analysis, id pta.OriginID) []SpawnStep {
	var chain []SpawnStep
	for range a.Origins.Origins {
		org := a.Origins.Get(id)
		step := SpawnStep{Origin: org.String()}
		if org.ID != pta.MainOrigin {
			step.Pos = org.Pos.String()
		}
		chain = append(chain, step)
		if org.ID == pta.MainOrigin {
			return chain
		}
		id = org.Parent
	}
	return chain
}

// syncEdgeKinds labels an inter-origin HB edge by its endpoint node
// kinds. Only message-passing edges are named; spawn and join edges map
// to nothing and are skipped by syncEdges.
var syncEdgeKinds = map[[2]shb.NodeKind]string{
	{shb.NNotify, shb.NWait}:        "notify-wait",
	{shb.NChanSend, shb.NChanRecv}:  "chan-send-recv",
	{shb.NChanRecv, shb.NChanSend}:  "chan-rendezvous",
	{shb.NChanClose, shb.NChanRecv}: "chan-close-recv",
	{shb.NWgDone, shb.NWgWait}:      "wg-done-wait",
}

// syncEdges collects the message-passing HB edges running directly
// between the two racing segments, rendered "kind from-pos -> to-pos",
// deduplicated (replayed call contexts can revisit one source edge) and
// sorted for byte-stable JSON. nil when the accesses share a segment or
// no such edge exists, so the field marshals away and witnesses for
// spawn/join-only programs are unchanged.
func syncEdges(g *shb.Graph, segA, segB shb.SegID) []string {
	if segA == segB {
		return nil
	}
	seen := map[string]bool{}
	var out []string
	collect := func(from, to shb.SegID) {
		for _, e := range g.OutEdges(from) {
			if g.Nodes[e.To].Seg != to {
				continue
			}
			kind, ok := syncEdgeKinds[[2]shb.NodeKind{g.Nodes[e.From].Kind, g.Nodes[e.To].Kind}]
			if !ok {
				continue
			}
			s := fmt.Sprintf("%s %s -> %s", kind, g.Instr(e.From).Pos(), g.Instr(e.To).Pos())
			if !seen[s] {
				seen[s] = true
				out = append(out, s)
			}
		}
	}
	collect(segA, segB)
	collect(segB, segA)
	sort.Strings(out)
	return out
}

// intersectSorted intersects two sorted string slices. The result is
// never nil so the JSON always carries an explicit (possibly empty) list.
func intersectSorted(a, b []string) []string {
	out := []string{}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return out
}
